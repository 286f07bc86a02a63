"""Seeded Euler simulation of the controlled state and Monte Carlo costs.

Noise comes from numpy's counter-based Philox 4x64-10 generator: counter word 0
is the block, word 1 the stream, the key is (seed, 0), and each stream starts one
block back because numpy increments the counter before hashing. These are the
words of the numpy-only emulation this replaced, so no noise byte changed. Each
path's stream is a pure function of (seed, stream index, step): batches are
bit-reproducible across runs, platforms, chunk sizes and thread counts, and one
Euler kernel advances every gain of a call on each noise chunk (common random numbers).
"""

from __future__ import annotations

import math
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

# Paths are simulated in fixed-size chunks; chunk boundaries are part of no
# contract (results per path depend only on seed and stream index), but a
# fixed size keeps the reduction order identical for any worker count.
_CHUNK = 8192
# Steps buffered before a copy into path-major trajectories (one strided write each)
_BLOCK = 32


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


def normal_stream(seed: int, first_stream: int, n_streams: int, n_draws: int) -> np.ndarray:
    """Standard normals, one row per stream, via inverse CDF of (0,1) uniforms.

    Uniforms take the top 53 bits of each word, offset by half a spacing, so
    they stay strictly inside (0, 1) and the inverse CDF stays finite. Stored
    draw-major, so ``.T`` is C-contiguous.
    """
    blocks = (n_draws + 3) // 4
    streams = np.arange(first_stream, first_stream + n_streams, dtype=np.uint64)
    words = raw_blocks(seed, streams, np.zeros_like(streams), blocks)[:, :n_draws]
    np.right_shift(words, np.uint64(11), out=words)
    u = words.T.astype(np.float64, order="C")
    u += 0.5
    u *= 2.0 ** -53
    return ndtri(u, out=u).T


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

    Writes the trajectories into ``states``/``controls`` (K x n_paths x ...)
    when given; otherwise returns the (K, m) path costs, with the squared
    controls summed step by step.
    """
    m, n_steps = hi - lo, config.n_steps
    dt = params.horizon / n_steps
    if config.antithetic:
        # one stream per mirrored pair; odd members negate it
        base = normal_stream(config.seed, lo // 2, m // 2, n_steps).T
        dw = np.stack([base, -base], axis=-1).reshape(n_steps, m)
    else:
        dw = normal_stream(config.seed, lo, m, n_steps).T
    dw *= params.sigma * math.sqrt(dt)
    x = np.full((k.shape[1], m), params.x0)
    run, drift, tmp = np.zeros_like(x), np.empty_like(x), np.empty_like(x)
    a_buf, x_buf = np.empty((2, _BLOCK) + x.shape)
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
                x_buf[j] = x
            if states is None:
                for a in a_buf[:n]:
                    run += a * a
            else:
                controls[:, lo:hi, i0:i0 + n] = a_buf[:n].transpose(1, 2, 0)
                states[:, lo:hi, i0 + 1:i0 + n + 1] = x_buf[:n].transpose(1, 2, 0)
        if states is None:
            return 0.5 * dt * run + 0.5 * params.gamma * (x - params.x0) ** 2


def _over_chunks(fn, n_paths: int, workers: int) -> list:
    # _CHUNK is even, so mirrored pairs never straddle chunk boundaries
    bounds = [(lo, min(lo + _CHUNK, n_paths)) for lo in range(0, n_paths, _CHUNK)]
    if workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda b: fn(*b), bounds))
    return [fn(*b) for b in bounds]


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
    stderr = 0.0 if n < 2 else float(np.std(samples, ddof=1) / math.sqrt(n))
    return CostEstimate(mean=float(np.mean(samples)), stderr=stderr, n_paths=n,
                        n_dropped=good.size - kept.size)


def _simulate_batches(gains, params: LqrParams, config: SimConfig, workers: int) -> tuple:
    """One retained batch per gain, all advanced on one noise pass."""
    k, c = _sim_gains(gains, params, config.n_steps)
    states = np.empty((len(gains), config.n_paths, config.n_steps + 1))
    controls = np.empty((len(gains), config.n_paths, config.n_steps))
    states[:, :, 0] = params.x0
    _over_chunks(lambda lo, hi: _euler_chunk(k, c, params, config, lo, hi, states, controls),
                 config.n_paths, workers)
    batches = tuple(TrajectoryBatch(params=params, config=config, states=s, controls=u,
                                    strategy_label=g.label)
                    for g, s, u in zip(gains, states, controls))
    for batch in batches:
        _checked(batch.valid_mask)
    return batches


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
    return _simulate_batches([gain], params, config, workers)[0]


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
    parts = _over_chunks(lambda lo, hi: _euler_chunk(k, c, params, config, lo, hi),
                         config.n_paths, workers)
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
    """Per-strategy batches under common noise, with mean-path summaries."""

    params: LqrParams
    config: SimConfig
    labels: tuple
    batches: tuple
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
    drives every strategy, and each batch equals ``simulate_paths`` for its
    gain bit for bit. Duplicate labels get an ordinal suffix so downstream
    columns stay distinguishable.
    """
    strategies = list(strategies)
    if len(strategies) < 2:
        raise ConfigError("comparison needs at least two strategies")
    batches = _simulate_batches(strategies, params, config, workers)
    labels = [g.label.value if sum(s.label is g.label for s in strategies) == 1
              else f"{g.label.value}_{i}" for i, g in enumerate(strategies)]
    mean_state = np.stack([b.states[b.valid_mask].mean(axis=0) for b in batches])
    mean_abs = np.stack([np.abs(b.controls[b.valid_mask]).mean(axis=0) for b in batches])
    return StrategyComparison(params=params, config=config, labels=tuple(labels),
                              batches=batches, times=batches[0].times,
                              mean_state=mean_state, mean_abs_control=mean_abs)
