"""Seeded Euler simulation of the controlled state and Monte Carlo costs.

Noise comes from numpy's counter-based Philox 4x64-10 generator: counter word 0
is the block, word 1 the stream, the key is (seed, 0), and each stream starts one
block back because numpy increments the counter before hashing. These are the
words of the numpy-only emulation this replaced, so no noise byte changed. Each
path's stream is a pure function of (seed, stream index, step): batches are
bit-reproducible across runs, platforms, chunk sizes, segment sizes and thread
counts, and one Euler kernel advances every gain of a call on each noise chunk
(common random numbers). A stream is positioned at any block by writing its
generator's counter words through a guarded view, so the streaming route draws
a chunk's noise in fixed segments of steps into one reused buffer, whatever
n_steps is; the retaining route draws all its steps as one segment. A
segment's noise is one buffer; an antithetic pair's stream is drawn into its
even column and mirrored, negated, into its odd one.
Each route call owns one lane: a one-worker ``ThreadPoolExecutor`` that runs,
in order, the work which releases the GIL. It maps each finished stream group
to normals while the calling thread draws the next, the last group in row
blocks just ahead of the Euler kernel, and on the retaining route it reduces
each finished chunk while the next chunk's words are drawn. That route keeps one
trajectory buffer, the chunk's states; the reduction recomputes the controls
from them in row blocks, with the kernel's operations. Streaming chunks
on the ``workers`` pool share their call's lane. Every job's future is waited,
so a job's error is raised on the caller; the lane is shut down, its thread
joined, before the call returns, and which thread does a piece of work changes
no bit.
"""

from __future__ import annotations

import ctypes
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ._util import readonly
from .errors import ConfigError, NumericError
from .model import LqrParams
from .riccati import GainSchedule

_MASK64 = (1 << 64) - 1
_MASK192 = (1 << 192) - 1
_MASK256 = (1 << 256) - 1

# Paths are simulated in fixed-size chunks. Per-path values depend only on seed
# and stream index, never on chunk boundaries, and both sizes are even, so a
# mirrored antithetic pair never straddles two chunks. The streaming route
# keeps 8192: at 1024 the mc_stream benchmark ran ~11% slower. Its chunk's
# noise is one float64 buffer of _SEGMENT steps, ~23 MB whatever n_steps is.
# The retaining route (compare_strategies, the CLI's simulate) reduces each
# chunk on the lane while the next chunk's words are drawn, so its peak memory
# is one noise buffer of all n_steps and one trajectory buffer: ~25 MB of
# states at 1024 paths, three gains and 1000 steps (the controls are
# recomputed from them). On the mc_paths benchmark 1024 was no slower than
# 2048 or 8192 and faster than 512.
_CHUNK = 8192
_RETAIN_CHUNK = 1024
# Steps of noise the streaming route draws at once into one reused buffer, each
# stream's counter set to the segment's first block: a multiple of 4 (one Philox
# block), here also of _BLOCK. 8192 x 352 floats is ~23 MB. The retaining route
# draws all n_steps as one segment: its states grow with n_steps anyway, and
# segments made mc_paths ~12% slower.
_SEGMENT = 352
# Steps buffered before a copy into path-major trajectories (one strided write
# each); also the rows of the last noise group that the lane maps per job
_BLOCK = 32
# Streams whose Philox words are drawn at once (64 x 1000 draws: 0.5 MB); also
# the paths whose controls the retaining route's reduction recomputes at once
_STREAM_BLOCK = 64
# Streams per noise group: the lane maps each finished group while the calling
# thread draws the next (an 8192-stream chunk is 8 groups, a retaining chunk 1)
_GROUP = 16 * _STREAM_BLOCK


def _counter_view(gen: np.random.Philox, counter: int):
    """A ctypes uint64 view of ``gen``'s 4-word counter, or None if numpy's
    layout is not the expected one.

    numpy's ``philox_state`` struct starts with a pointer to the counter,
    which the generator object holds. Both the struct and the counter must lie
    inside the object (its ``__sizeof__`` bytes from ``id(gen)``;
    ``sys.getsizeof`` would add the GC header, which lies before it), and the
    counter must read back ``counter``. A pointer outside the object is
    rejected before anything is read through it.
    """
    lo, hi = id(gen), id(gen) + gen.__sizeof__()
    state = gen.ctypes.state_address
    if not lo <= state <= hi - 8:
        return None
    ptr = ctypes.c_void_p.from_address(state).value
    if ptr is None or not lo <= ptr <= hi - 32:
        return None
    ctr = (ctypes.c_uint64 * 4).from_address(ptr)
    if ctr[:] != [(counter >> (64 * i)) & _MASK64 for i in range(4)]:
        return None
    return ctr


def _stream_rows(seed: int, first_stream: int, n_blocks: int, first_block: int):
    """Rows of ``raw_blocks``, streams ``first_stream, ...`` in turn, as long
    as they are asked for, all from one generator."""
    # numpy increments the counter before hashing, so start one block back
    start = ((first_stream << 64) + first_block - 1) & _MASK256
    gen = np.random.Philox(key=seed, counter=start)
    ctr = _counter_view(gen, start)
    block, upper = start & _MASK64, start >> 64
    while True:
        row = gen.random_raw(4 * n_blocks)
        if ctr is None:
            gen.advance((1 << 64) - n_blocks)
        else:
            # the next stream's start: word 0 back at the first block, the
            # upper three words one on, written past word 1 only when it wraps
            upper = (upper + 1) & _MASK192
            ctr[0] = block
            ctr[1] = upper & _MASK64
            if not upper & _MASK64:
                ctr[2], ctr[3] = (upper >> 64) & _MASK64, upper >> 128
        yield row


def raw_blocks(seed: int, first_stream: int, n_streams: int, n_blocks: int = 1,
               first_block: int = 0) -> np.ndarray:
    """Raw 64-bit Philox words, one row per stream.

    Row ``i`` holds the ``4 * n_blocks`` words of blocks ``first_block`` to
    ``first_block + n_blocks - 1`` of stream ``first_stream + i``. One
    generator serves the call and is positioned at each stream's start by
    writing its counter's block and stream words through a view (see
    ``_counter_view``); if numpy's layout is not the expected one, one
    constant ``advance`` moves it from a row's end to the next stream's start
    instead. Both give the same words; the streaming route positions each
    stream once per segment, and ``advance`` alone made the mc_stream
    benchmark ~28% slower.
    """
    rows = _stream_rows(seed, first_stream, n_blocks, first_block)
    return np.array([next(rows) for _ in range(n_streams)],
                    dtype=np.uint64).reshape(n_streams, 4 * n_blocks)


def _draw_uniforms(seed: int, first_stream: int, first_draw: int, out: np.ndarray) -> None:
    """(0, 1] uniforms from draws ``first_draw, ...`` of streams
    ``first_stream, ...``, one column of the draw-major ``out`` per stream.

    ``first_draw`` is a multiple of 4, the start of a Philox block. Each
    uniform takes the top 53 bits of its word, offset by half a spacing. Only
    the top word reaches 1: ``2**53 - 1 + 0.5`` rounds to ``2**53``. One
    generator draws the words of every stream, as ``raw_blocks`` does,
    ``_STREAM_BLOCK`` streams at a time, and they are cast into ``out`` as
    exact integers, so no word array of ``out``'s size exists.
    """
    n_draws, n_streams = out.shape
    rows = _stream_rows(seed, first_stream, (n_draws + 3) // 4, first_draw // 4)
    for s0 in range(0, n_streams, _STREAM_BLOCK):
        words = np.array([next(rows) for _ in range(min(_STREAM_BLOCK, n_streams - s0))],
                         dtype=np.uint64)[:, :n_draws]
        np.right_shift(words, np.uint64(11), out=words)
        out[:, s0:s0 + len(words)] = words.T
    out += 0.5
    out *= 2.0 ** -53


def _to_normals(block: np.ndarray, scale: float, antithetic: bool) -> None:
    """Lane job: (0, 1] uniforms to standard normals in place (``ndtri``
    releases the GIL), times ``scale``. In antithetic mode the uniforms are
    ``block``'s even columns, and their normals are negated into its odd ones.

    A uniform of 1 is clamped to ``1 - 2**-53``, so its normal is 8.21, not
    +inf. Every other uniform is at most ``1 - 2**-52`` and stays as it is.
    """
    z = block[:, 0::2] if antithetic else block
    np.minimum(z, 1.0 - 2.0 ** -53, out=z)
    ndtri(z, out=z)
    z *= scale
    if antithetic:
        np.negative(z, out=block[:, 1::2])


def _noise(seed: int, first_stream: int, first_draw: int, dw: np.ndarray,
           lane: ThreadPoolExecutor, scale: float, antithetic: bool) -> list:
    """Fill the draw-major ``dw`` with draws ``first_draw, ...`` (a multiple
    of 4), one stream per column or, in antithetic mode, per pair of
    columns: draw the uniforms of streams ``first_stream, ...`` and queue
    their mapping to normals (see ``_to_normals``) on ``lane``.

    Each group of ``_GROUP`` streams but the last is queued whole once it is
    drawn, so the lane maps it while the next is drawn. The last group is
    queued in ``_BLOCK``-draw row blocks, so the Euler kernel can step the
    first rows while the lane maps the rest; the whole groups are waited
    once those are queued. Returns the row blocks' futures: once
    ``rows[b].result()`` returns, rows ``b * _BLOCK`` to
    ``(b + 1) * _BLOCK - 1`` of ``dw`` are final. A one-group call is the
    last group alone.
    """
    step = 2 if antithetic else 1
    width = step * _GROUP
    groups = []
    for c0 in range(0, dw.shape[1], width):
        g = dw[:, c0:c0 + width]
        _draw_uniforms(seed, first_stream + c0 // step, first_draw, g[:, ::step])
        if c0 + width < dw.shape[1]:
            groups.append(lane.submit(_to_normals, g, scale, antithetic))
    rows = [lane.submit(_to_normals, g[r:r + _BLOCK], scale, antithetic)
            for r in range(0, len(dw), _BLOCK)]
    for group in groups:
        group.result()
    return rows


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
                 lane: ThreadPoolExecutor, segment: int, states=None, ready=None):
    """Advance K gains as one (K, m) state over paths ``[lo, hi)`` on one noise chunk.

    The scheme and path costs are those of ``estimate_cost_streaming``. The
    chunk's noise is drawn here ``segment`` steps at a time (a multiple of 4)
    into one buffer that every segment reuses, and mapped on ``lane``; each
    block of steps waits only for its own rows' future. A segment is drawn
    once the kernel has stepped through the one before, and the kernel's
    buffers are allocated after the first segment's draw. Writes the state
    trajectories into ``states`` (K x m x (n_steps + 1)) when given, once the
    future ``ready`` (of the reduction still reading them), if any, is done;
    the controls are a function of the states and are not kept. Otherwise
    returns the (K, m) path costs, with the squared controls summed step by
    step. The control is one (K, m) array that every step overwrites.
    """
    m, n_steps = hi - lo, config.n_steps
    dt = params.horizon / n_steps
    scale = params.sigma * math.sqrt(dt)
    first_stream = lo // 2 if config.antithetic else lo  # antithetic: one per pair
    dw = np.empty((min(segment, n_steps), m))
    with np.errstate(over="ignore", invalid="ignore"):
        for s0 in range(0, n_steps, len(dw)):
            seg = dw[:n_steps - s0]
            rows = _noise(config.seed, first_stream, s0, seg, lane, scale, config.antithetic)
            if s0 == 0:  # once the first draw's word arrays are freed
                x = np.full((k.shape[1], m), params.x0)
                run, a = np.zeros_like(x), np.empty_like(x)
                drift, tmp = np.empty_like(x), np.empty_like(x)
                if states is not None:
                    if ready is not None:
                        ready.result()
                    states[:, :, 0] = x
                    x_buf = np.empty((_BLOCK,) + x.shape)
            for r0 in range(0, len(seg), _BLOCK):
                n, i0 = min(_BLOCK, len(seg) - r0), s0 + r0
                rows[r0 // _BLOCK].result()
                for j in range(n):
                    # keeps the operation order of x + (a_bar x + b_bar a) dt + sigma sqrt(dt) z
                    np.multiply(k[i0 + j], x, out=a)
                    a -= c[i0 + j]
                    np.multiply(params.a_bar, x, out=drift)
                    np.multiply(params.b_bar, a, out=tmp)
                    drift += tmp
                    drift *= dt
                    x += drift
                    x += seg[r0 + j]
                    if states is None:
                        run += np.multiply(a, a, out=tmp)
                    else:
                        x_buf[j] = x
                if states is not None:
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
        # the spread is taken at a power-of-two scale near 1: exact, so no
        # bit moves, and the squares of costs below ~1e-154 or above ~1e154
        # no longer underflow to a zero standard error or overflow to inf
        e = math.frexp(float(np.max(np.abs(samples))))[1]
        stderr = 0.0 if n < 2 else math.ldexp(
            float(np.std(np.ldexp(samples, -e), ddof=1)), e) / math.sqrt(n)
        mean = float(np.mean(samples))
    return CostEstimate(mean=mean, stderr=stderr, n_paths=n, n_dropped=good.size - kept.size)


@dataclass(frozen=True)
class StrategyComparison:
    """What the retaining route keeps of K strategies on common noise, every array read-only."""

    config: SimConfig
    labels: tuple
    times: np.ndarray             # n_steps + 1
    mean_state: np.ndarray        # K x (n_steps + 1), over the good paths
    mean_abs_control: np.ndarray  # K x n_steps, over the good paths
    costs: np.ndarray             # K x n_paths
    good: np.ndarray              # K x n_paths, True where a path stayed finite
    states: np.ndarray            # K x keep x (n_steps + 1), the first paths
    controls: np.ndarray          # K x keep x n_steps

    def __post_init__(self):
        for name in ("times", "mean_state", "mean_abs_control", "costs", "states", "controls"):
            object.__setattr__(self, name, readonly(getattr(self, name)))
        self.good.setflags(write=False)  # readonly() would cast it to float

    def estimate(self, j: int = 0) -> CostEstimate:
        return _estimate(self.costs[j], self.good[j], self.config.antithetic)


def _add_rows(total, buf, m: int, ok) -> None:
    """Add the rows ``buf[:, 1:m + 1]`` that ``ok`` marks to ``total``, in row order.

    ``buf[:, 0]`` is the slot of the running total, so one ``np.add.reduce``
    per gain and chunk adds rows in the order ``rows[ok].sum(axis=0)`` takes
    over the whole batch (adding per-chunk sums would not be bitwise equal).
    Totals start at -0.0, the exact additive identity, so the first chunk
    adds to its total as every later one does.
    """
    for j, valid in enumerate(ok):
        buf[j, 0] = total[j]
        rows = buf[j, :m + 1]
        if not valid.all():  # compress only in a chunk with a bad row
            rows = rows[np.concatenate([[True], valid])]
        np.add.reduce(rows, axis=0, out=total[j])


def compare_strategies(params: LqrParams, config: SimConfig, strategies,
                       keep: int = 0) -> StrategyComparison:
    """Simulate every strategy on identical noise, reducing each chunk as it is simulated.

    Common random numbers are automatic: each noise chunk is drawn once and
    drives every strategy. For each chunk, in path order: per-path costs and
    validity masks, running sums of the valid states and |controls|, and a
    copy of the first ``keep`` paths (``0 <= keep <= n_paths``). Each mean
    equals the mean over the valid paths of all that gain's trajectories bit
    for bit. A path is valid when its last state is finite: exactly when all
    its states and controls are, as the kernel only adds and multiplies. One
    trajectory buffer, the chunk's states, exists; one lane maps the noise and
    reduces each chunk while the calling thread draws the next chunk's words.
    The reduction recomputes the controls ``-k_i X_i - c_i`` from the states
    in blocks of ``_STREAM_BLOCK`` paths, with the kernel's operations on the
    kernel's operands, so every bit is the kernel's. The kernel waits for the
    previous chunk's reduction before it writes the buffer, and the last
    reduction is waited after the loop. More than 0.1% non-finite paths in any
    gain raise ``NumericError``. Duplicate labels get an ordinal suffix so
    downstream columns stay distinguishable.
    """
    gains = list(strategies)
    if not gains:
        raise ConfigError("comparison needs at least one strategy")
    if not 0 <= keep <= config.n_paths:
        raise ConfigError(f"keep must lie in 0..{config.n_paths}, got {keep}")
    k, c = _sim_gains(gains, params, config.n_steps)
    n_gains, n_paths, n_steps = len(gains), config.n_paths, config.n_steps
    dt = params.horizon / n_steps
    width = min(_RETAIN_CHUNK, n_paths)
    block = min(_STREAM_BLOCK, width)
    # one spare leading row of each buffer holds a running sum
    x, u = np.empty((n_gains, width + 1, n_steps + 1)), np.empty((n_gains, block + 1, n_steps))
    # each gain's schedule along a path's steps, (K, 1, n_steps)
    k_path, c_path = (np.ascontiguousarray(np.moveaxis(v, 0, -1)) for v in (k, c))
    costs = np.empty((n_gains, n_paths))
    good = np.empty((n_gains, n_paths), dtype=bool)
    states = np.empty((n_gains, keep, n_steps + 1))
    controls = np.empty((n_gains, keep, n_steps))
    sum_x, sum_u = np.full((n_gains, n_steps + 1), -0.0), np.full((n_gains, n_steps), -0.0)

    def reduce_chunk(lo, hi):
        m = hi - lo
        xs = x[:, 1:m + 1]
        if lo < keep:
            states[:, lo:hi] = xs[:, :keep - lo]
        ok = good[:, lo:hi]
        # a non-finite state or control leaves every later state non-finite
        # (inf * 0 and inf - inf are NaN), so the last state decides
        np.isfinite(xs[:, :, -1], out=ok)
        # a diverging path's controls overflow here as in the kernel, and
        # finite paths near the float ceiling may sum to non-finite means,
        # kept as such; bad paths are dropped
        with np.errstate(over="ignore", invalid="ignore"):
            for r0 in range(0, m, block):
                r1 = min(r0 + block, m)
                us, ok_rows = u[:, 1:r1 - r0 + 1], ok[:, r0:r1]
                # a = k x; a -= c, as the kernel steps it
                np.multiply(k_path, xs[:, r0:r1, :-1], out=us)
                us -= c_path
                if lo + r0 < keep:
                    controls[:, lo + r0:lo + r1] = us[:, :keep - lo - r0]
                np.abs(us, out=us)
                _add_rows(sum_u, u, r1 - r0, ok_rows)
                # |u| * |u| is u * u bit for bit, so the squares reuse the buffer
                miss = xs[:, r0:r1, -1] - params.x0
                us *= us
                costs[:, lo + r0:lo + r1] = (0.5 * dt * np.sum(us, axis=2)
                                             + 0.5 * params.gamma * miss * miss)
            _add_rows(sum_x, x, m, ok)

    with ThreadPoolExecutor(max_workers=1) as lane:
        reduced = None
        for lo in range(0, n_paths, width):
            hi = min(lo + width, n_paths)
            _euler_chunk(k, c, params, config, lo, hi, lane, n_steps,
                         x[:, 1:hi - lo + 1], reduced)
            reduced = lane.submit(reduce_chunk, lo, hi)
        reduced.result()
    for row in good:
        _checked(row)
    n_good = np.count_nonzero(good, axis=1)[:, None]
    labels = [g.label.value if sum(s.label is g.label for s in gains) == 1
              else f"{g.label.value}_{i}" for i, g in enumerate(gains)]
    return StrategyComparison(config=config, labels=tuple(labels),
                              times=np.linspace(0.0, params.horizon, n_steps + 1),
                              mean_state=sum_x / n_good, mean_abs_control=sum_u / n_good,
                              costs=costs, good=good, states=states, controls=controls)


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
            return _euler_chunk(k, c, params, config, lo, min(lo + _CHUNK, config.n_paths), lane,
                                _SEGMENT)

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
    fly, so path counts in the millions fit in memory; each chunk's noise is
    drawn ``_SEGMENT`` steps at a time into one buffer, so its size does not
    grow with ``n_steps``. Reductions run in fixed chunk order regardless of
    ``workers``. More than 0.1% non-finite paths raise ``NumericError``;
    fewer are left out and counted in ``n_dropped``, a mirrored antithetic
    pair whole.
    """
    return _streaming_estimates([gain], params, config, workers)[0]
