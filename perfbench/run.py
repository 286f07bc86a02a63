"""tilqr benchmark: one workload, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's iterations one after another, each in a fresh
interpreter (child.py), until ``--seconds`` have passed, and prints the
metrics named in BENCHMARK.json. With ``--trace 0`` these are the end-to-end
metrics, from untraced iterations; ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics, with the tracing
overhead as traced minus untraced wall time. The last line of stdout is one
JSON object; run records and spans go to ``.perfbench_out/``.

Nothing here changes a machine setting: no cache drops, no cgroup or /proc
writes, no system-wide tracing. One child process runs at a time, and tilqr
runs with its default ``workers``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("mc_stream", "mc_paths", "pde")
SETUP_PROBES = 3
# a child still running this long after the run started is killed, so a run
# stays inside 180 s even if the program gets much slower
RUN_CAP_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "loadavg": os.getloadavg(),
    }


def import_seconds(stderr_text: str, module: str) -> float:
    """Cumulative ``-X importtime`` seconds of ``module`` during set-up."""
    for line in stderr_text.splitlines():
        if line.startswith("perfbench: set-up done"):
            break
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 \
                and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def spawn(workload: str, seed: int, iteration: int, trace: bool, work: Path,
          timeout: float, setup_only: bool = False, digest: bool = False) -> dict:
    """Run one child to completion and return what it measured."""
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []), str(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed), "--iteration", str(iteration),
           "--trace", str(int(trace)), "--work", str(work)]
    cmd += ["--setup-only"] * setup_only + ["--digest"] * digest
    with open(work / "stderr.txt", "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env,
                                cwd=ROOT, text=True)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            lines = proc.stdout.read().splitlines()
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            killer.cancel()
            proc.stdout.close()
        err.seek(0)
        stderr_text = err.read()
    rec = {"iteration": iteration, "traced": trace, "exit": proc.returncode,
           "setup_s": setup_s if ready.strip() == "ready" else None,
           "rss_mb": usage.ru_maxrss / 1024.0,
           "elapsed_s": time.perf_counter() - t0, "result": None}
    if not setup_only and proc.returncode == 0 and lines:
        rec["result"] = json.loads(lines[-1])
        if trace:
            rec["result"]["layers"]["setup.import_s"] = rec["result"]["import_s"]
            rec["result"]["layers"]["setup.import_scipy_special_s"] = \
                import_seconds(stderr_text, "scipy.special")
    elif proc.returncode != 0:
        rec["error"] = stderr_text.strip().splitlines()[-3:]
    return rec


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    work = OUT / f"{workload}-s{seed}-t{int(trace)}"
    deadline = time.perf_counter() + RUN_CAP_S
    probes = [] if trace else [
        spawn(workload, seed, 0, False, work / f"probe{k}",
              deadline - time.perf_counter(), setup_only=True)
        for k in range(SETUP_PROBES)]
    records = []
    start = time.perf_counter()
    while True:
        i = len(records)
        records.append(spawn(workload, seed, i, trace and i % 2 == 1, work / f"iter{i}",
                             deadline - time.perf_counter(), digest=i == 0))
        # start another iteration only if, at the mean iteration time so
        # far, it ends within --seconds; a traced run needs two
        next_end = (time.perf_counter() - start) * (i + 2) / (i + 1)
        if start + next_end > deadline or (next_end > seconds and not (trace and i == 0)):
            break
    return probes, records


def summarize(trace: bool, probes, records, spec: dict) -> tuple:
    attempted = failed = 0
    errors = []
    for rec in records:
        res = rec["result"]
        if res is None:  # the child died: count the iteration as one failed call
            attempted += 1
            failed += 1
            errors.append(f"iteration {rec['iteration']}: exit {rec['exit']} "
                          f"{' | '.join(rec.get('error', []))}")
            continue
        attempted += len(res["ops"])
        for name, problem in res["ops"]:
            if problem is not None:
                failed += 1
                errors.append(f"iteration {rec['iteration']}: {name}: {problem}")
    plain = [r for r in records if r["result"] and not r["traced"]]
    traced = [r for r in records if r["result"] and r["traced"]]
    if not plain or (trace and not traced):
        raise RuntimeError("no iteration finished: " + "; ".join(errors[-3:]))

    wall = median([r["result"]["wall_s"] for r in plain])
    if trace:
        values = {}
        for name in traced[0]["result"]["layers"]:
            values[name] = median([r["result"]["layers"][name] for r in traced])
        values["trace.overhead_s"] = median([r["result"]["wall_s"] for r in traced]) - wall
        values["trace.absent_names"] = len(traced[0]["result"]["absent"])
        wanted = spec["per_layer"]
    else:
        setups = [r["setup_s"] for r in probes + records if r["setup_s"] is not None]
        values = {"wall_s": wall, "setup_s": median(setups),
                  "peak_rss_mb": median([r["rss_mb"] for r in plain]),
                  "throughput": plain[0]["result"]["work"] / wall}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}, errors


def digest_status(workload: str, seed: int, records) -> str:
    first = next((r["result"] for r in records
                  if r["iteration"] == 0 and r["result"]), None)
    if first is None or first["digest"] is None:
        return "digest: not computed"
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    line = f"digest sha256 {first['digest']}"
    if first["seeded"] and seed != recorded["seed"]:
        return f"{line} (recorded only for seed {recorded['seed']})"
    if workload not in recorded["sha256"]:
        return f"{line} (none recorded)"
    same = recorded["sha256"][workload] == first["digest"]
    return f"{line} ({'matches' if same else 'DIFFERS FROM'} the recorded digest)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 32:
        parser.error("--seed must be in [0, 2**32)")
    if not (ROOT / "src" / "tilqr" / "__init__.py").is_file():
        print(f"perfbench: no tilqr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    facts = machine_facts()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))
    probes, records = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for rec in records:
        res = rec["result"] or {}
        print(f"iteration {rec['iteration']}{' traced' if rec['traced'] else ''}: "
              f"wall {res.get('wall_s', float('nan')):.3f} s, set-up "
              f"{rec['setup_s'] or float('nan'):.3f} s, peak {rec['rss_mb']:.0f} MB, "
              f"exit {rec['exit']}")
    try:
        result, errors = summarize(bool(args.trace), probes, records, spec)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"args": vars(args), "machine": facts, "probes": probes,
                       "records": records}, fh, indent=1)
    for err in errors[:10]:
        print(f"FAILED {err}")
    walls = [r["result"]["wall_s"] for r in records if r["result"] and not r["traced"]]
    if len(walls) >= 2:
        q1, _, q3 = quantiles(walls, n=4)
        print(f"wall_s over {len(walls)} untraced iterations: median {median(walls):.4g} s, "
              f"quartiles {q1:.4g} to {q3:.4g} s")
    print(digest_status(args.workload, args.seed, records))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
