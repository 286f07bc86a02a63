"""One workload iteration in a fresh interpreter; started by run.py.

    python3 perfbench/child.py --workload NAME --seed N --iteration I \
        --trace 0|1 --work DIR [--setup-only] [--digest]

Protocol: after ``import tilqr`` and the workload's inputs are built, the
child prints ``ready`` on stdout (the parent times set-up up to that line)
and the marker below on stderr (which ends the set-up part of any
``-X importtime`` report). After the body it prints one JSON line.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path

SETUP_DONE = "perfbench: set-up done"
SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iteration", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--digest", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import tilqr
    import_s = time.perf_counter() - t0
    if Path(tilqr.__file__).resolve().parent != SRC / "tilqr":
        sys.exit(f"perfbench: imported tilqr from {tilqr.__file__}, not from {SRC}")

    import json
    import resource

    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload](
        workloads.mc_seed(args.seed, args.iteration))
    print("ready", flush=True)
    print(SETUP_DONE, file=sys.stderr, flush=True)
    if args.setup_only:
        return 0

    args.work.mkdir(parents=True, exist_ok=True)
    it = workloads.Iteration(args.work)
    spans = None
    if args.trace:
        spans = tracer.Tracer()
        spans.install()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    workload.run(it)
    wall_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "wall_s": wall_s,
        "import_s": import_s,
        "work": workload.work,
        "ops": it.ops,
        "seeded": workload.seeded,
        "digest": workload.digest() if args.digest else None,
        "layers": {
            **it.extra,
            "proc.user_s": ru1.ru_utime - ru0.ru_utime,
            "proc.sys_s": ru1.ru_stime - ru0.ru_stime,
            "proc.minflt": ru1.ru_minflt - ru0.ru_minflt,
        },
    }
    if spans is not None:
        result["layers"].update(tracer.layer_metrics(spans.spans))
        result["absent"] = spans.absent
        with open(args.work / "spans.json", "w", encoding="utf-8") as fh:
            json.dump([vars(s) for s in spans.spans], fh)
    shutil.rmtree(args.work / "out", ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
