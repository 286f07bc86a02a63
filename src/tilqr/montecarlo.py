"""Seeded Euler simulation of the controlled state and Monte Carlo costs.

Noise comes from numpy's counter-based Philox 4x64-10 generator: counter word 0
is the block, word 1 the stream, the key is (seed, 0), and each stream starts one
block back because numpy increments the counter before hashing. These are the
words of the numpy-only emulation this replaced, so no noise byte changed. Each
path's stream is a pure function of (seed, stream index, step): batches are
bit-reproducible across runs, platforms, chunk sizes and thread counts, and one
Euler kernel advances every gain of a call on each noise chunk (common random numbers).
A noise call of more than 1024 streams maps the inverse CDF of its finished
stream groups on one helper thread while it draws the next group; which thread
maps a group changes no bit.
"""

from __future__ import annotations

import math
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtri

from ._util import readonly
from .errors import ConfigError, NumericError
from .model import LqrParams
from .riccati import GainLabel, GainSchedule

_MASK256 = (1 << 256) - 1

# Paths are simulated in fixed-size chunks. Per-path values depend only on seed
# and stream index, never on chunk boundaries, and both sizes are even, so a
# mirrored antithetic pair never straddles two chunks. The streaming route
# keeps 8192: at 1024 the mc_stream benchmark ran ~11% slower. Its chunk's
# noise is one 65 MB float64 array at 1000 steps. The retaining routes
# (simulate_paths, compare_strategies, the CLI's simulate) reduce each
# chunk as it is simulated, so their peak memory is one chunk buffer per
# worker: ~50 MB of states and controls at 1024 paths, three gains and 1000
# steps. On the mc_paths benchmark 1024 was no slower than 2048 or 8192 and
# faster than 512.
_CHUNK = 8192
_RETAIN_CHUNK = 1024
# Steps buffered before a copy into path-major trajectories (one strided write each)
_BLOCK = 32
# Streams whose Philox words normal_stream holds at once (64 x 1000 draws: 0.5 MB)
_STREAM_BLOCK = 64
# Streams per ndtri group: a helper thread maps each finished group while the
# calling thread draws the next (an 8192-stream chunk is 8 groups)
_GROUP = 16 * _STREAM_BLOCK


def raw_blocks(seed: int, stream, block, n_blocks: int = 1) -> np.ndarray:
    """Raw 64-bit Philox words, one row per (stream, first block) pair.

    Row ``i`` holds the ``4 * n_blocks`` words of blocks ``block[i]``,
    ``block[i] + 1``, ... of stream ``stream[i]``. One generator serves the
    call and ``advance`` moves it between rows.
    """
    out = np.empty((len(stream), 4 * n_blocks), dtype=np.uint64)
    gen, at = None, 0
    for row, (s, b) in enumerate(zip(np.asarray(stream).tolist(), np.asarray(block).tolist())):
        # numpy increments the counter before hashing, so start one block back
        start = ((s << 64 | b) - 1) & _MASK256
        if gen is None:
            gen = np.random.Philox(key=seed, counter=start)
        elif start != at:
            gen.advance((start - at) & _MASK256)
        out[row] = gen.random_raw(4 * n_blocks)
        at = (start + n_blocks) & _MASK256
    return out


def _map_groups(pending, failed: list) -> None:
    """Helper-thread body: ``ndtri`` in place on each queued group until ``None``.

    The first error is kept in ``failed`` for the caller to raise, and ends
    the thread; the caller's later puts never block.
    """
    try:
        while (g := pending.get()) is not None:
            ndtri(g, out=g)
    except BaseException as exc:  # re-raised on the calling thread
        failed.append(exc)


def normal_stream(seed: int, first_stream: int, n_streams: int, n_draws: int) -> np.ndarray:
    """Standard normals, one row per stream, via inverse CDF of (0,1) uniforms.

    Uniforms take the top 53 bits of each word, offset by half a spacing, so
    they stay strictly inside (0, 1) and the inverse CDF stays finite. Stored
    draw-major, so ``.T`` is C-contiguous. One float64 array of the output's
    size is the only chunk-sized allocation: words are drawn ``_STREAM_BLOCK``
    streams at a time and cast into it column block by column block, as
    exact 53-bit integers.

    Streams are filled ``_GROUP`` at a time. With more than one group, one
    helper thread runs ``ndtri`` (which releases the GIL) in place on each
    finished group while this thread draws the next; this thread maps the
    last group itself and then joins the helper, so no thread outlives the
    call and a helper's error is raised here. Every value is elementwise in
    its own (seed, stream, draw), so the output is bitwise the same whichever
    thread maps which group. A one-group call starts no thread.
    """
    blocks = (n_draws + 3) // 4
    u = np.empty((n_draws, n_streams))
    pending, failed, helper = queue.SimpleQueue(), [], None
    if n_streams > _GROUP:
        helper = threading.Thread(target=_map_groups, args=(pending, failed))
        helper.start()
    try:
        for g0 in range(0, n_streams, _GROUP):
            for s0 in range(g0, min(g0 + _GROUP, n_streams), _STREAM_BLOCK):
                streams = np.arange(first_stream + s0,
                                    first_stream + min(s0 + _STREAM_BLOCK, n_streams),
                                    dtype=np.uint64)
                words = raw_blocks(seed, streams, np.zeros_like(streams), blocks)[:, :n_draws]
                np.right_shift(words, np.uint64(11), out=words)
                u[:, s0:s0 + len(streams)] = words.T
            g = u[:, g0:g0 + _GROUP]
            g += 0.5
            g *= 2.0 ** -53
            if g0 + _GROUP < n_streams:
                pending.put(g)
            else:
                ndtri(g, out=g)
    finally:
        if helper is not None:
            pending.put(None)
            helper.join()
    if failed:
        raise failed[0]
    return u.T


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings; defaults are toolkit choices, not model content."""

    n_paths: int = 10_000
    n_steps: int = 1_000
    seed: int = 42
    antithetic: bool = False

    def __post_init__(self):
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.antithetic and self.n_paths % 2 != 0:
            raise ConfigError("antithetic mode needs an even n_paths")


@dataclass(frozen=True)
class TrajectoryBatch:
    """Simulated states and applied controls for one feedback law."""

    params: LqrParams
    config: SimConfig
    states: np.ndarray      # n_paths x (n_steps + 1)
    controls: np.ndarray    # n_paths x n_steps
    strategy_label: GainLabel

    def __post_init__(self):
        object.__setattr__(self, "states", readonly(self.states))
        object.__setattr__(self, "controls", readonly(self.controls))

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.params.horizon, self.config.n_steps + 1)

    @cached_property
    def valid_mask(self) -> np.ndarray:
        """True for paths that stayed finite throughout."""
        mask = (np.isfinite(self.states).all(axis=1)
                & np.isfinite(self.controls).all(axis=1))
        mask.setflags(write=False)
        return mask


@dataclass(frozen=True)
class CostEstimate:
    """Monte Carlo cost with its standard error.

    ``n_paths`` counts the independent samples behind the standard error:
    mirrored pairs count once in antithetic mode. ``n_dropped`` counts paths
    left out as non-finite, both members of a mirrored pair with a bad member.
    """

    mean: float
    stderr: float
    n_paths: int
    n_dropped: int = 0


def _gain_on_sim_grid(gain: GainSchedule, n_steps: int):
    """Left-endpoint gains on the simulation grid by nearest-node lookup."""
    n_ode = gain.grid.n_steps
    if n_ode % n_steps != 0 and n_steps % n_ode != 0:
        raise ConfigError(
            f"ODE grid ({n_ode} steps) and simulation grid ({n_steps} steps) "
            "must be refinement-compatible (one a multiple of the other)")
    i = np.arange(n_steps)
    j = (2 * i * n_ode + n_steps) // (2 * n_steps)  # round half up
    return gain.k_state[j], gain.c_offset[j]


def _sim_gains(gains, params: LqrParams, n_steps: int):
    """Negated state gains and offsets on the simulation grid, (n_steps, K, 1) each."""
    for gain in gains:  # every route checks the horizon before the grids
        if abs(gain.grid.horizon - params.horizon) > 1e-12:
            raise ConfigError(
                f"gain horizon {gain.grid.horizon} does not match model horizon {params.horizon}")
    k, c = (np.stack(v, axis=1)[:, :, None]
            for v in zip(*(_gain_on_sim_grid(g, n_steps) for g in gains)))
    return -k, c


def _euler_chunk(k, c, params: LqrParams, config: SimConfig, lo: int, hi: int,
                 states=None, controls=None):
    """Advance K gains as one (K, m) state over paths ``[lo, hi)`` on one noise chunk.

    Writes the trajectories into ``states``/``controls`` (K x m x ...) when
    given; otherwise returns the (K, m) path costs, with the squared controls
    summed step by step.
    """
    m, n_steps = hi - lo, config.n_steps
    dt = params.horizon / n_steps
    if config.antithetic:
        # one stream per mirrored pair; odd members negate it
        dw = np.empty((n_steps, m))
        dw[:, 0::2] = normal_stream(config.seed, lo // 2, m // 2, n_steps).T
        np.negative(dw[:, 0::2], out=dw[:, 1::2])
    else:
        dw = normal_stream(config.seed, lo, m, n_steps).T
    dw *= params.sigma * math.sqrt(dt)
    x = np.full((k.shape[1], m), params.x0)
    run, drift, tmp = np.zeros_like(x), np.empty_like(x), np.empty_like(x)
    a_buf = np.empty((_BLOCK,) + x.shape)
    if states is not None:
        states[:, :, 0] = x
        x_buf = np.empty_like(a_buf)
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n_steps, _BLOCK):
            n = min(_BLOCK, n_steps - i0)
            for j in range(n):
                # keeps the operation order of x + (a_bar x + b_bar a) dt + sigma sqrt(dt) z
                a = np.multiply(k[i0 + j], x, out=a_buf[j])
                a -= c[i0 + j]
                np.multiply(params.a_bar, x, out=drift)
                np.multiply(params.b_bar, a, out=tmp)
                drift += tmp
                drift *= dt
                x += drift
                x += dw[i0 + j]
                if states is not None:
                    x_buf[j] = x
            if states is None:
                for a in a_buf[:n]:
                    run += a * a
            else:
                controls[:, :, i0:i0 + n] = a_buf[:n].transpose(1, 2, 0)
                states[:, :, i0 + 1:i0 + n + 1] = x_buf[:n].transpose(1, 2, 0)
        if states is None:
            return 0.5 * dt * run + 0.5 * params.gamma * (x - params.x0) ** 2


def _over_chunks(fn, n_paths: int, chunk: int, workers: int):
    """``fn(lo, hi)`` over path chunks of size ``chunk``, yielded in path order.

    At most ``workers`` calls run at once, and the next group starts only
    after the caller has taken the last result of this one, so a caller may
    give each of ``workers`` buffers to every ``workers``-th chunk.
    """
    bounds = [(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]
    if workers < 2 or len(bounds) < 2:
        yield from (fn(*b) for b in bounds)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for i in range(0, len(bounds), workers):
            yield from pool.map(lambda b: fn(*b), bounds[i:i + workers])


def _checked(good: np.ndarray) -> np.ndarray:
    # every route tolerates at most 0.1% non-finite paths
    n_bad = good.size - int(np.count_nonzero(good))
    if n_bad > 0.001 * good.size:
        raise NumericError(f"{n_bad} of {good.size} paths went non-finite")
    return good


def _estimate(costs: np.ndarray, good: np.ndarray, antithetic: bool) -> CostEstimate:
    """Mean and standard error over the finite paths; a bad pair is dropped whole."""
    if antithetic:
        kept = costs.reshape(-1, 2)[good[0::2] & good[1::2]]
        samples = 0.5 * (kept[:, 0] + kept[:, 1])
    else:
        kept = samples = costs[good]
    n = samples.size
    if n == 0:
        raise ConfigError("no finite paths left to average")
    # finite costs near the float ceiling may sum to a non-finite estimate;
    # it is returned as such, with no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        stderr = 0.0 if n < 2 else float(np.std(samples, ddof=1) / math.sqrt(n))
        mean = float(np.mean(samples))
    return CostEstimate(mean=mean, stderr=stderr, n_paths=n, n_dropped=good.size - kept.size)


@dataclass(frozen=True)
class _Reduction:
    """What the retaining routes keep of K gains' paths."""

    config: SimConfig
    costs: np.ndarray             # K x n_paths, by estimate_cost's formula
    good: np.ndarray              # K x n_paths, True where a path stayed finite
    mean_state: np.ndarray        # K x (n_steps + 1), over the good paths
    mean_abs_control: np.ndarray  # K x n_steps, over the good paths
    states: np.ndarray            # K x keep x (n_steps + 1), the first paths
    controls: np.ndarray          # K x keep x n_steps

    def estimate(self, j: int = 0) -> CostEstimate:
        return _estimate(self.costs[j], self.good[j], self.config.antithetic)


def _add_rows(total, started, buf, m: int, ok) -> None:
    """Add the rows ``buf[:, 1:m + 1]`` that ``ok`` marks to ``total``, in row order.

    ``buf[:, 0]`` is the slot of the running total, so one ``np.add.reduce``
    per gain and chunk adds rows in the order ``rows[ok].sum(axis=0)`` takes
    over the whole batch (adding per-chunk sums would not be bitwise equal).
    A gain's total starts at its first valid row, as that reduction does,
    not at a row of zeros.
    """
    for j, valid in enumerate(ok):
        first = 0 if started[j] else 1
        buf[j, 0] = total[j]
        rows = buf[j, first:m + 1]
        if not valid.all():  # compress only in a chunk with a bad row
            rows = rows[np.concatenate([[True], valid])[first:]]
        if len(rows):
            np.add.reduce(rows, axis=0, out=total[j])


def _reduce_paths(gains, params: LqrParams, config: SimConfig, keep: int,
                  workers: int = 1) -> _Reduction:
    """Simulate K gains on shared noise, reducing each chunk as it is simulated.

    For each chunk, in path order: per-path costs and finite masks, running
    sums of the valid states and |controls|, and a copy of the paths below
    ``keep``. Only ``workers`` chunk buffers exist, and results are bitwise
    the same for any ``workers``. More than 0.1% non-finite paths in any
    gain raise ``NumericError``.
    """
    k, c = _sim_gains(gains, params, config.n_steps)
    n_gains, n_paths, n_steps = len(gains), config.n_paths, config.n_steps
    dt = params.horizon / n_steps
    width = min(_RETAIN_CHUNK, n_paths)
    # one spare leading row per buffer holds the running sums
    bufs = [(np.empty((n_gains, width + 1, n_steps + 1)), np.empty((n_gains, width + 1, n_steps)))
            for _ in range(min(workers, -(-n_paths // width)))]
    costs = np.empty((n_gains, n_paths))
    good = np.empty((n_gains, n_paths), dtype=bool)
    states = np.empty((n_gains, keep, n_steps + 1))
    controls = np.empty((n_gains, keep, n_steps))
    sum_x, sum_u = np.empty((n_gains, n_steps + 1)), np.empty((n_gains, n_steps))
    started = np.zeros(n_gains, dtype=bool)

    def simulate(lo, hi):
        x, u = bufs[lo // width % len(bufs)]
        _euler_chunk(k, c, params, config, lo, hi, x[:, 1:hi - lo + 1], u[:, 1:hi - lo + 1])
        return lo, hi, x, u

    for lo, hi, x, u in _over_chunks(simulate, n_paths, width, workers):
        m = hi - lo
        xs, us = x[:, 1:m + 1], u[:, 1:m + 1]
        if lo < keep:
            states[:, lo:hi] = xs[:, :keep - lo]
            controls[:, lo:hi] = us[:, :keep - lo]
        ok = good[:, lo:hi]
        np.isfinite(xs).all(axis=2, out=ok)
        ok &= np.isfinite(us).all(axis=2)
        np.abs(us, out=us)
        _add_rows(sum_x, started, x, m, ok)
        _add_rows(sum_u, started, u, m, ok)
        started |= ok.any(axis=1)
        # |u| * |u| is u * u bit for bit, so the squares reuse the buffer
        with np.errstate(over="ignore", invalid="ignore"):  # bad paths are dropped
            miss = xs[:, :, -1] - params.x0
            us *= us
            costs[:, lo:hi] = 0.5 * dt * np.sum(us, axis=2) + 0.5 * params.gamma * miss * miss
    for row in good:
        _checked(row)
    n_good = np.count_nonzero(good, axis=1)[:, None]
    return _Reduction(config=config, costs=costs, good=good, mean_state=sum_x / n_good,
                      mean_abs_control=sum_u / n_good, states=states, controls=controls)


def simulate_paths(gain: GainSchedule, params: LqrParams, config: SimConfig,
                   workers: int = 1) -> TrajectoryBatch:
    """Euler scheme ``X_{i+1} = X_i + (a_bar X_i + b_bar a_i) dt + sigma sqrt(dt) Z``.

    The applied control is ``a_i = -k(t_i) X_i - c(t_i)`` with gains sampled
    at the nearest ODE node (grids must be refinement-compatible). Per-path
    noise depends only on (seed, stream index), so output is bit-identical
    for any ``workers`` value.

    Raises
    ------
    ConfigError
        Horizon mismatch or incompatible grids.
    NumericError
        If more than 0.1% of paths go non-finite (explosive gains).
    """
    run = _reduce_paths([gain], params, config, config.n_paths, workers)
    return TrajectoryBatch(params=params, config=config, states=run.states[0],
                           controls=run.controls[0], strategy_label=gain.label)


def estimate_cost(batch: TrajectoryBatch) -> CostEstimate:
    """Time-zero cost estimate ``sum_i a_i^2 dt / 2 + gamma/2 (X_T - x0)^2``.

    ``dt``, ``gamma`` and ``x0`` come from the batch's own parameters. Uses
    the left-endpoint running-cost rule matching the Euler drift. Paths
    flagged non-finite are excluded (the simulator already capped them at
    0.1%); in antithetic mode a pair with a bad member is dropped whole.
    """
    if batch.config.n_paths == 0 or batch.states.size == 0:
        raise ConfigError("cannot estimate cost from an empty batch")
    dt = batch.params.horizon / batch.config.n_steps
    miss = batch.states[:, -1] - batch.params.x0
    costs = 0.5 * dt * np.sum(batch.controls ** 2, axis=1) + 0.5 * batch.params.gamma * miss * miss
    return _estimate(costs, batch.valid_mask, batch.config.antithetic)


def _streaming_estimates(gains, params: LqrParams, config: SimConfig,
                         workers: int = 1) -> list:
    """``estimate_cost_streaming`` for every gain, all advanced on one noise pass."""
    k, c = _sim_gains(gains, params, config.n_steps)
    parts = list(_over_chunks(lambda lo, hi: _euler_chunk(k, c, params, config, lo, hi),
                              config.n_paths, _CHUNK, workers))
    return [_estimate(costs, _checked(np.isfinite(costs)), config.antithetic)
            for costs in np.concatenate(parts, axis=1)]


def estimate_cost_streaming(gain: GainSchedule, params: LqrParams, config: SimConfig,
                            workers: int = 1) -> CostEstimate:
    """Cost estimate without retaining trajectories.

    Same estimator as ``simulate_paths`` + ``estimate_cost``, but chunks are
    reduced to per-path costs on the fly, so path counts in the millions fit
    in memory. Reductions run in fixed chunk order regardless of ``workers``.
    Non-finite paths follow the batch rule: more than 0.1% raises
    ``NumericError``, fewer are left out and counted in ``n_dropped``.
    """
    return _streaming_estimates([gain], params, config, workers)[0]


@dataclass(frozen=True)
class StrategyComparison:
    """Mean paths of several strategies simulated under common noise."""

    params: LqrParams
    config: SimConfig
    labels: tuple
    times: np.ndarray
    mean_state: np.ndarray       # n_strategies x (n_steps + 1)
    mean_abs_control: np.ndarray  # n_strategies x n_steps

    def __post_init__(self):
        object.__setattr__(self, "times", readonly(self.times))
        object.__setattr__(self, "mean_state", readonly(self.mean_state))
        object.__setattr__(self, "mean_abs_control", readonly(self.mean_abs_control))


def compare_strategies(params: LqrParams, config: SimConfig,
                       strategies, workers: int = 1) -> StrategyComparison:
    """Simulate every strategy on identical noise and average across paths.

    Common random numbers are automatic: each noise chunk is drawn once and
    drives every strategy. Each chunk is reduced as it is simulated, so no
    trajectory is kept, yet each row equals the mean of ``simulate_paths``
    for its gain over its valid paths bit for bit. Duplicate labels get an
    ordinal suffix so downstream columns stay distinguishable.
    """
    strategies = list(strategies)
    if len(strategies) < 2:
        raise ConfigError("comparison needs at least two strategies")
    run = _reduce_paths(strategies, params, config, 0, workers)
    labels = [g.label.value if sum(s.label is g.label for s in strategies) == 1
              else f"{g.label.value}_{i}" for i, g in enumerate(strategies)]
    return StrategyComparison(params=params, config=config, labels=tuple(labels),
                              times=np.linspace(0.0, params.horizon, config.n_steps + 1),
                              mean_state=run.mean_state, mean_abs_control=run.mean_abs_control)
