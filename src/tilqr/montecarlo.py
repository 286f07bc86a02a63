"""Seeded Euler simulation of the controlled state and Monte Carlo costs.

Noise comes from numpy's counter-based Philox 4x64-10 generator: counter word 0
is the block, word 1 the stream, the key is (seed, 0), and each stream starts one
block back because numpy increments the counter before hashing. These are the
words of the numpy-only emulation this replaced, so no noise byte changed. Each
path's stream is a pure function of (seed, stream index, step): batches are
bit-reproducible across runs, platforms, chunk sizes and thread counts, and one
Euler kernel advances every gain of a call on each noise chunk (common random numbers).
Each route call owns one lane: a one-worker ``ThreadPoolExecutor`` that runs,
in order, the work which releases the GIL. It maps each finished stream group
to normals while the calling thread draws the next, the last group in row
blocks just ahead of the Euler kernel, and on the retaining route it reduces
each finished chunk while the next chunk's words are drawn. Streaming chunks
on the ``workers`` pool share their call's lane. Every job's future is waited,
so a job's error is raised on the caller; the lane is shut down, its thread
joined, before the call returns, and which thread does a piece of work changes
no bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ._util import readonly
from .errors import ConfigError, NumericError
from .model import LqrParams
from .riccati import GainSchedule

_MASK256 = (1 << 256) - 1

# Paths are simulated in fixed-size chunks. Per-path values depend only on seed
# and stream index, never on chunk boundaries, and both sizes are even, so a
# mirrored antithetic pair never straddles two chunks. The streaming route
# keeps 8192: at 1024 the mc_stream benchmark ran ~11% slower. Its chunk's
# noise is one 65 MB float64 array at 1000 steps. The retaining route
# (compare_strategies, the CLI's simulate) reduces each chunk on the lane
# while the next chunk's words are drawn, so its peak memory is one noise
# buffer and one chunk buffer: ~50 MB of states and controls at 1024 paths,
# three gains and 1000 steps. On the mc_paths benchmark 1024 was no slower
# than 2048 or 8192 and faster than 512.
_CHUNK = 8192
_RETAIN_CHUNK = 1024
# Steps buffered before a copy into path-major trajectories (one strided write
# each); also the rows of the last noise group that the lane maps per job
_BLOCK = 32
# Streams whose Philox words are drawn at once (64 x 1000 draws: 0.5 MB)
_STREAM_BLOCK = 64
# Streams per noise group: the lane maps each finished group while the calling
# thread draws the next (an 8192-stream chunk is 8 groups, a retaining chunk 1)
_GROUP = 16 * _STREAM_BLOCK


def raw_blocks(seed: int, first_stream: int, n_streams: int, n_blocks: int = 1) -> np.ndarray:
    """Raw 64-bit Philox words, one row per stream.

    Row ``i`` holds the ``4 * n_blocks`` words of blocks 0 to
    ``n_blocks - 1`` of stream ``first_stream + i``. One generator serves the
    call, and one constant ``advance`` moves it from a row's end to the next
    stream's start.
    """
    out = np.empty((n_streams, 4 * n_blocks), dtype=np.uint64)
    # numpy increments the counter before hashing, so start one block back
    gen = np.random.Philox(key=seed, counter=((first_stream << 64) - 1) & _MASK256)
    for row in out:
        row[:] = gen.random_raw(4 * n_blocks)
        gen.advance((1 << 64) - n_blocks)
    return out


def _draw_uniforms(seed: int, first_stream: int, out: np.ndarray) -> None:
    """(0, 1] uniforms from the first words of streams ``first_stream, ...``,
    one column of the draw-major ``out`` per stream.

    Each takes the top 53 bits of its word, offset by half a spacing. Only
    the top word reaches 1: ``2**53 - 1 + 0.5`` rounds to ``2**53``. Words
    are drawn ``_STREAM_BLOCK`` streams at a time and cast into ``out`` as
    exact integers, so no word array of ``out``'s size exists.
    """
    n_draws, n_streams = out.shape
    blocks = (n_draws + 3) // 4
    for s0 in range(0, n_streams, _STREAM_BLOCK):
        words = raw_blocks(seed, first_stream + s0, min(_STREAM_BLOCK, n_streams - s0),
                           blocks)[:, :n_draws]
        np.right_shift(words, np.uint64(11), out=words)
        out[:, s0:s0 + len(words)] = words.T
    out += 0.5
    out *= 2.0 ** -53


def _to_normals(z: np.ndarray, scale: float, mirror) -> None:
    """Lane job: (0, 1] uniforms to standard normals in place (``ndtri``
    releases the GIL), times ``scale``; with a ``mirror`` (twice ``z``'s
    width), copied into its even columns and negated into its odd ones.

    A uniform of 1 is clamped to ``1 - 2**-53``, so its normal is 8.21, not
    +inf. Every other uniform is at most ``1 - 2**-52`` and stays as it is.
    """
    np.minimum(z, 1.0 - 2.0 ** -53, out=z)
    ndtri(z, out=z)
    z *= scale
    if mirror is not None:
        mirror[:, 0::2] = z
        np.negative(z, out=mirror[:, 1::2])


def _noise(seed: int, first_stream: int, n_streams: int, n_draws: int,
           lane: ThreadPoolExecutor, scale: float, mirror=None):
    """Draw the uniforms of ``n_streams`` streams into a new draw-major buffer
    and queue their mapping to normals (see ``_to_normals``) on ``lane``.

    Each group of ``_GROUP`` streams but the last is queued whole once it is
    drawn, so the lane maps it while the next is drawn. The last group is
    queued in ``_BLOCK``-draw row blocks, so the Euler kernel can step the
    first rows while the lane maps the rest; the whole groups are waited
    once those are queued. Returns the buffer and the row blocks' futures:
    once ``rows[b].result()`` returns, draws ``b * _BLOCK`` to
    ``(b + 1) * _BLOCK - 1`` of every stream are final, in the buffer or in
    ``mirror``. A one-group call is the last group alone.
    """
    u = np.empty((n_draws, n_streams))
    g, m = u, mirror  # what a call of no streams maps
    groups = []
    for g0 in range(0, n_streams, _GROUP):
        g = u[:, g0:g0 + _GROUP]
        _draw_uniforms(seed, first_stream + g0, g)
        m = None if mirror is None else mirror[:, 2 * g0:2 * (g0 + _GROUP)]
        if g0 + _GROUP < n_streams:
            groups.append(lane.submit(_to_normals, g, scale, m))
    rows = [lane.submit(_to_normals, g[r:r + _BLOCK], scale,
                        None if m is None else m[r:r + _BLOCK])
            for r in range(0, n_draws, _BLOCK)]
    for group in groups:
        group.result()
    return u, rows


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
                 lane: ThreadPoolExecutor, states=None, controls=None, ready=None):
    """Advance K gains as one (K, m) state over paths ``[lo, hi)`` on one noise chunk.

    The scheme and path costs are those of ``estimate_cost_streaming``. The
    chunk's noise is drawn here and mapped on ``lane``; each block of steps
    waits only for its own rows' future. Writes the trajectories into
    ``states``/``controls`` (K x m x ...) when given, once the future
    ``ready`` (of the reduction still reading them), if any, is done;
    otherwise returns the (K, m) path costs, with the squared controls
    summed step by step.
    """
    m, n_steps = hi - lo, config.n_steps
    dt = params.horizon / n_steps
    scale = params.sigma * math.sqrt(dt)
    if config.antithetic:
        # one stream per mirrored pair; odd members negate it
        dw = np.empty((n_steps, m))
        _, rows = _noise(config.seed, lo // 2, m // 2, n_steps, lane, scale, dw)
    else:
        dw, rows = _noise(config.seed, lo, m, n_steps, lane, scale)
    x = np.full((k.shape[1], m), params.x0)
    run, drift, tmp = np.zeros_like(x), np.empty_like(x), np.empty_like(x)
    a_buf = np.empty((_BLOCK,) + x.shape)
    if states is not None:
        if ready is not None:
            ready.result()
        states[:, :, 0] = x
        x_buf = np.empty_like(a_buf)
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n_steps, _BLOCK):
            n = min(_BLOCK, n_steps - i0)
            rows[i0 // _BLOCK].result()
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


def _checked(good: np.ndarray) -> np.ndarray:
    # every route tolerates at most 0.1% non-finite paths
    n_bad = good.size - int(np.count_nonzero(good))
    if n_bad > 0.001 * good.size:
        raise NumericError(f"{n_bad} of {good.size} paths went non-finite")
    return good


def _estimate(costs: np.ndarray, good: np.ndarray, antithetic: bool) -> CostEstimate:
    """Mean and standard error over the finite paths; a bad pair is dropped whole."""
    # finite costs near the float ceiling may sum to a non-finite estimate;
    # it is returned as such, with no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if antithetic:
            kept = costs.reshape(-1, 2)[good[0::2] & good[1::2]]
            samples = 0.5 * (kept[:, 0] + kept[:, 1])
        else:
            kept = samples = costs[good]
        n = samples.size
        if n == 0:
            raise ConfigError("no finite paths left to average")
        stderr = 0.0 if n < 2 else float(np.std(samples, ddof=1) / math.sqrt(n))
        mean = float(np.mean(samples))
    return CostEstimate(mean=mean, stderr=stderr, n_paths=n, n_dropped=good.size - kept.size)


@dataclass(frozen=True)
class _Reduction:
    """What the retaining route keeps of K gains' paths."""

    config: SimConfig
    costs: np.ndarray             # K x n_paths
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


def _reduce_paths(gains, params: LqrParams, config: SimConfig, keep: int) -> _Reduction:
    """Simulate K gains on shared noise, reducing each chunk as it is simulated.

    For each chunk, in path order: per-path costs and finite masks, running
    sums of the valid states and |controls|, and a copy of the paths below
    ``keep``. One chunk buffer exists; one lane maps the noise and reduces
    each chunk while the calling thread draws the next chunk's words. The
    kernel waits for the previous chunk's reduction before it writes the
    buffer, and the last reduction is waited after the loop. More than 0.1%
    non-finite paths in any gain raise ``NumericError``.
    """
    k, c = _sim_gains(gains, params, config.n_steps)
    n_gains, n_paths, n_steps = len(gains), config.n_paths, config.n_steps
    dt = params.horizon / n_steps
    width = min(_RETAIN_CHUNK, n_paths)
    # one spare leading row holds the running sums
    x, u = np.empty((n_gains, width + 1, n_steps + 1)), np.empty((n_gains, width + 1, n_steps))
    costs = np.empty((n_gains, n_paths))
    good = np.empty((n_gains, n_paths), dtype=bool)
    states = np.empty((n_gains, keep, n_steps + 1))
    controls = np.empty((n_gains, keep, n_steps))
    sum_x, sum_u = np.empty((n_gains, n_steps + 1)), np.empty((n_gains, n_steps))
    started = np.zeros(n_gains, dtype=bool)
    finite = np.empty((width, n_steps + 1), dtype=bool)

    def reduce_chunk(lo, hi):
        m = hi - lo
        xs, us = x[:, 1:m + 1], u[:, 1:m + 1]
        if lo < keep:
            states[:, lo:hi] = xs[:, :keep - lo]
            controls[:, lo:hi] = us[:, :keep - lo]
        ok = good[:, lo:hi]
        # one gain at a time through the caller's scratch: the lane allocates
        # nothing chunk-sized beside the next chunk's noise
        for j, row in enumerate(ok):
            np.isfinite(xs[j], out=finite[:m]).all(axis=1, out=row)
            row &= np.isfinite(us[j], out=finite[:m, :n_steps]).all(axis=1)
        np.abs(us, out=us)
        # finite paths near the float ceiling may sum to non-finite means,
        # kept as such; bad paths are dropped
        with np.errstate(over="ignore", invalid="ignore"):
            _add_rows(sum_x, started, x, m, ok)
            _add_rows(sum_u, started, u, m, ok)
            started[:] |= ok.any(axis=1)
            # |u| * |u| is u * u bit for bit, so the squares reuse the buffer
            miss = xs[:, :, -1] - params.x0
            us *= us
            costs[:, lo:hi] = 0.5 * dt * np.sum(us, axis=2) + 0.5 * params.gamma * miss * miss

    with ThreadPoolExecutor(max_workers=1) as lane:
        reduced = None
        for lo in range(0, n_paths, width):
            hi = min(lo + width, n_paths)
            _euler_chunk(k, c, params, config, lo, hi, lane,
                         x[:, 1:hi - lo + 1], u[:, 1:hi - lo + 1], reduced)
            reduced = lane.submit(reduce_chunk, lo, hi)
        reduced.result()
    for row in good:
        _checked(row)
    n_good = np.count_nonzero(good, axis=1)[:, None]
    return _Reduction(config=config, costs=costs, good=good, mean_state=sum_x / n_good,
                      mean_abs_control=sum_u / n_good, states=states, controls=controls)


def _streaming_estimates(gains, params: LqrParams, config: SimConfig,
                         workers: int = 1) -> list:
    """``estimate_cost_streaming`` for every gain, all advanced on one noise pass.

    The call owns one lane, a one-worker thread pool, for every chunk's
    noise. With ``workers`` > 1 and more than one chunk, at most ``workers``
    chunks run at once on a second pool and share the lane, which runs their
    jobs in the order they are queued; no lane job waits on anything, so none
    can block another. Costs are joined in path order.
    """
    k, c = _sim_gains(gains, params, config.n_steps)
    los = range(0, config.n_paths, _CHUNK)
    with ThreadPoolExecutor(max_workers=1) as lane:
        def chunk(lo):
            return _euler_chunk(k, c, params, config, lo, min(lo + _CHUNK, config.n_paths), lane)

        if workers < 2 or len(los) < 2:
            parts = list(map(chunk, los))
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(chunk, los))
    return [_estimate(costs, _checked(np.isfinite(costs)), config.antithetic)
            for costs in np.concatenate(parts, axis=1)]


def estimate_cost_streaming(gain: GainSchedule, params: LqrParams, config: SimConfig,
                            workers: int = 1) -> CostEstimate:
    """Monte Carlo estimate of the time-zero cost, keeping no trajectory.

    Paths follow ``X_{i+1} = X_i + (a_bar X_i + b_bar a_i) dt + sigma sqrt(dt) Z``
    under ``a_i = -k(t_i) X_i - c(t_i)``, with gains at the nearest ODE node
    (the grids must be refinement-compatible), and each costs
    ``sum_i a_i^2 dt / 2 + gamma/2 (X_T - x0)^2``: the left-endpoint rule
    matching the Euler drift. Chunks are reduced to per-path costs on the
    fly, so path counts in the millions fit in memory, and reductions run in
    fixed chunk order regardless of ``workers``. More than 0.1% non-finite
    paths raise ``NumericError``; fewer are left out and counted in
    ``n_dropped``, a mirrored antithetic pair whole.
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


def compare_strategies(params: LqrParams, config: SimConfig, strategies) -> StrategyComparison:
    """Simulate every strategy on identical noise and average across paths.

    Common random numbers are automatic: each noise chunk is drawn once and
    drives every strategy. Each chunk is reduced as it is simulated, so no
    trajectory is kept, yet each row equals the mean over the valid paths of
    all that gain's trajectories bit for bit. Duplicate labels get an
    ordinal suffix so downstream columns stay distinguishable.
    """
    strategies = list(strategies)
    if len(strategies) < 2:
        raise ConfigError("comparison needs at least two strategies")
    run = _reduce_paths(strategies, params, config, 0)
    labels = [g.label.value if sum(s.label is g.label for s in strategies) == 1
              else f"{g.label.value}_{i}" for i, g in enumerate(strategies)]
    return StrategyComparison(params=params, config=config, labels=tuple(labels),
                              times=np.linspace(0.0, params.horizon, config.n_steps + 1),
                              mean_state=run.mean_state, mean_abs_control=run.mean_abs_control)
