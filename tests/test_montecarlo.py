"""Tests for the counter-based noise generator and the Euler cost machinery."""

import ctypes
import hashlib
import itertools
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri

from tilqr import (
    ConfigError,
    CostEstimate,
    GainLabel,
    GainSchedule,
    LqrParams,
    NumericError,
    SimConfig,
    TimeGrid,
    compare_strategies,
    equilibrium_gain,
    estimate_cost_streaming,
    exact_cost,
    naive_gain,
    solve_equilibrium_riccati,
    solve_naive,
)
from tilqr import montecarlo
from tilqr.montecarlo import (_BLOCK, _CHUNK, _GROUP, _RETAIN_CHUNK, _estimate,
                              _gain_on_sim_grid, _noise, _streaming_estimates, raw_blocks)

from test_hjbgrid import peak_traced_bytes
from toolchain import pin_mismatch


def constant_gain(k: float, c: float, n_steps: int, horizon: float = 1.0) -> GainSchedule:
    ones = np.ones(n_steps + 1)
    return GainSchedule(grid=TimeGrid(n_steps, horizon), k_state=k * ones,
                        c_offset=c * ones, label=GainLabel.CUSTOM)


def numpy_block_words(seed: int, stream: int, block: int, n_words: int = 4) -> np.ndarray:
    """Philox 4x64 output words from numpy for one (stream, block) counter.

    numpy's ``Philox`` bit generator increments its 256-bit counter before
    producing each block, so the counter is backed up by one (mod 2^256)
    relative to the counter our generator hashes directly.
    """
    c = ((block | (stream << 64)) - 1) & ((1 << 256) - 1)
    counter = np.array([(c >> (64 * i)) & 0xFFFFFFFFFFFFFFFF for i in range(4)],
                       dtype=np.uint64)
    key = np.array([seed, 0], dtype=np.uint64)
    return np.random.Philox(key=key, counter=counter).random_raw(n_words)


def one_block(seed: int, stream: int, block: int) -> np.ndarray:
    """The four words of one block, read as a column slice of its stream's
    draw from block 0."""
    return raw_blocks(seed, stream, 1, block + 1)[0, 4 * block:4 * block + 4]


def lane_normals(seed: int, first_stream: int, n_streams: int, n_draws: int,
                 lane=None) -> np.ndarray:
    """Unit normals of streams ``first_stream, ...``, one row per stream, as
    the routes draw them: through ``_noise`` on ``lane`` (or a lane of the
    call's own), every row waited."""
    if lane is None:
        with ThreadPoolExecutor(max_workers=1) as lane:
            return lane_normals(seed, first_stream, n_streams, n_draws, lane)
    z = np.empty((n_draws, n_streams))
    for row in _noise(seed, first_stream, 0, z, lane, 1.0, False):
        row.result()
    return z.T


def serial_normals(seed: int, first_stream: int, n_streams: int, n_draws: int) -> np.ndarray:
    """The routes' noise formula in one piece on the calling thread, no lane."""
    words = raw_blocks(seed, first_stream, n_streams, (n_draws + 3) // 4)[:, :n_draws]
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return ndtri(np.minimum(u, 1.0 - 2.0 ** -53))


# (seed, stream, block) -> the four words of that block, as computed by the
# pure-numpy Philox 4x64-10 (explicit 128-bit multiplies, ten rounds) that the
# generator used before it wrapped numpy's C implementation. They stay an
# oracle independent of numpy's Philox.
KNOWN_WORDS = {
    (42, 7, 3): (0x4489BA073A3B1D95, 0x8D5E886ECEF73F5F,
                 0xCF2DBD416EB632C8, 0x5D39A389A8700369),
    (42, 7, 0): (0x9FCA6955DA835DDB, 0x51654C1AD0EEF583,   # borrow into the stream word
                 0xAC01F893F3B69890, 0x26FE72F14B18CFA7),
    (42, 0, 0): (0xA7687E2D34C89DC6, 0x4C5818AB9649D53F,   # full 256-bit wraparound
                 0xEA0ADD4230DDDAB5, 0xE2A142EECEE5BB40),
    (0, 0, 0): (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC,
                0xD7E772CEE186176B, 0x7E68B68AEC7BA23B),
    (123456789, 2 ** 40, 5): (0x06ADF5A5595D1AA2, 0xB0862ABE69C0F8D6,
                              0x7BAADFBA17F8208A, 0xF596288E72CA3697),
    (2 ** 63, 1, 2 ** 20): (0x7909194575D683D5, 0x14CD3147AE399637,
                            0xC053F6E3A2B96DE5, 0x3CC8A36B0C46EE6B),
}


class TestRawBlocks:
    @pytest.mark.parametrize("case", sorted(KNOWN_WORDS))
    def test_matches_known_answer_words(self, case):
        expected = np.array(KNOWN_WORDS[case], dtype=np.uint64)
        assert np.array_equal(one_block(*case), expected), pin_mismatch(f"KNOWN_WORDS[{case}]")

    def test_matches_numpy_philox_word_for_word(self):
        for seed, stream, block in KNOWN_WORDS:
            expected = numpy_block_words(seed, stream, block)
            assert np.array_equal(one_block(seed, stream, block), expected), (seed, stream, block)

    def test_vector_call_matches_elementwise_calls(self):
        # each row is its stream's one-stream call, from the wraparound start
        # of stream 0 on
        batch = raw_blocks(99, 0, 5, n_blocks=2)
        assert batch.shape == (5, 8)
        for i, row in enumerate(batch):
            assert np.array_equal(row, raw_blocks(99, i, 1, n_blocks=2)[0])
            assert np.array_equal(row, numpy_block_words(99, i, 0, n_words=8))

    def test_consecutive_blocks_continue_the_counter(self):
        # rows of several blocks, from a stream whose start borrows from the
        # stream word to one whose index carries into the next counter word,
        # match numpy's words block for block
        rows = raw_blocks(7, 2 ** 64 - 2, 3, n_blocks=3)
        assert rows.shape == (3, 12)
        for i, row in enumerate(rows):
            assert np.array_equal(row, numpy_block_words(7, 2 ** 64 - 2 + i, 0, n_words=12))


# (first stream, streams): from the borrow of stream 7's start into the
# stream word, across the carry of stream 2**64 into counter word 2, and
# across the wraparound of the 256-bit counter
FIRST_BLOCK_STREAMS = [(7, 3), (2 ** 64 - 2, 4), (2 ** 192 - 2, 3)]


class TestFirstBlock:
    """Rows that start at a later block, positioned through the counter view
    or, when numpy's layout is not the expected one, by ``advance``."""

    @pytest.mark.parametrize("case", sorted(KNOWN_WORDS))
    def test_matches_known_answer_words(self, case):
        seed, stream, block = case
        expected = np.array(KNOWN_WORDS[case], dtype=np.uint64)
        assert np.array_equal(raw_blocks(seed, stream, 1, first_block=block)[0], expected), \
            pin_mismatch(f"KNOWN_WORDS[{case}]")

    @pytest.mark.parametrize("first_block", [0, 1, 63, 2 ** 20])
    def test_rows_match_numpy_words(self, first_block):
        for first_stream, n_streams in FIRST_BLOCK_STREAMS:
            rows = raw_blocks(11, first_stream, n_streams, 3, first_block)
            assert rows.shape == (n_streams, 12)
            for i, row in enumerate(rows):
                expected = numpy_block_words(11, first_stream + i, first_block, n_words=12)
                assert np.array_equal(row, expected), (first_stream + i, first_block)

    @pytest.mark.parametrize("first_block", [0, 1, 63, 2 ** 20])
    def test_the_advance_fallback_gives_the_same_words(self, first_block, monkeypatch):
        # a generator that reports no size fails the layout check, so every
        # row is positioned by advance
        viewed = [raw_blocks(11, s, n, 3, first_block) for s, n in FIRST_BLOCK_STREAMS]
        advances = []

        class Unviewable(np.random.Philox):
            def __sizeof__(self):
                return 0

            def advance(self, delta):
                advances.append(delta)
                return super().advance(delta)

        monkeypatch.setattr(np.random, "Philox", Unviewable)
        for (first_stream, n_streams), rows in zip(FIRST_BLOCK_STREAMS, viewed):
            assert np.array_equal(raw_blocks(11, first_stream, n_streams, 3, first_block), rows)
        assert advances == [2 ** 64 - 3] * sum(n for _, n in FIRST_BLOCK_STREAMS)

    def test_the_view_reads_and_positions_the_counter(self):
        start = (5 << 64) + 9
        gen = np.random.Philox(key=3, counter=start)
        ctr = montecarlo._counter_view(gen, start)
        assert ctr is not None and ctr[:] == [9, 5, 0, 0]
        ctr[0], ctr[1] = 2 ** 64 - 1, 6  # one block before block 0 of stream 7
        assert np.array_equal(gen.random_raw(4), numpy_block_words(3, 7, 0))
        # the wrong known counter fails the read-back
        assert montecarlo._counter_view(np.random.Philox(key=3, counter=start), start + 1) is None

    def test_a_pointer_outside_the_generator_is_rejected(self):
        # the fake counter outside the object holds the right words, so only
        # the bounds check can reject it, before anything is read through it;
        # a pointer inside the object to other words fails the read-back
        start = (5 << 64) + 9
        gen = np.random.Philox(key=3, counter=start)
        slot = ctypes.c_void_p.from_address(gen.ctypes.state_address)
        real = slot.value
        fake = (ctypes.c_uint64 * 4)(9, 5, 0, 0)
        try:
            slot.value = ctypes.addressof(fake)
            assert montecarlo._counter_view(gen, start) is None
            slot.value = id(gen)
            assert montecarlo._counter_view(gen, start) is None
        finally:
            slot.value = real
        assert montecarlo._counter_view(gen, start)[:] == [9, 5, 0, 0]


class TestOneGenerator:
    """``_draw_uniforms`` draws all its streams through one generator."""

    @pytest.mark.parametrize("positioning", ["view", "advance"])
    def test_one_generator_draws_every_stream_of_a_call(self, positioning, monkeypatch):
        # 130 streams span three word blocks of 64, and the stream index
        # carries into counter word 2 inside the second block
        first, n_streams, n_draws = 2 ** 64 - 100, 130, 7
        words = raw_blocks(5, first, n_streams, 2, first_block=2)[:, :n_draws]
        expected = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        builds, philox = [], np.random.Philox

        def counted(*args, **kwargs):
            builds.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        if positioning == "advance":
            monkeypatch.setattr(montecarlo, "_counter_view", lambda gen, counter: None)
        out = np.empty((n_draws, n_streams))
        montecarlo._draw_uniforms(5, first, 8, out)
        assert len(builds) == 1
        assert np.array_equal(out.T, expected)


class TestNormalStream:
    """The unit normals of consecutive streams, as the routes draw them."""

    def test_matches_inverse_cdf_of_numpy_words(self):
        seed, first_stream, n_streams, n_draws = 42, 5, 3, 7
        got = lane_normals(seed, first_stream, n_streams, n_draws)
        assert got.shape == (n_streams, n_draws)
        for row, stream in enumerate(range(first_stream, first_stream + n_streams)):
            words = numpy_block_words(seed, stream, 0, n_words=8)[:n_draws]
            u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
            assert np.array_equal(got[row], ndtri(u))

    @pytest.mark.parametrize("seed, first_stream, n_streams, n_draws", [
        (7, 0, 8, 20),
        # starts unaligned, crosses the 64- and 128-stream block edges and
        # draws a count that is not a multiple of four
        (7, 61, 200, 21),
        # starts unaligned, crosses two group edges into a ragged last group
        # and draws a count that is not a multiple of four
        (9, 1000, 2 * _GROUP + 77, 33),
    ], ids=["absolute-index", "stream-block-edges", "group-edges"])
    def test_rows_match_single_stream_calls(self, seed, first_stream, n_streams, n_draws):
        # a row depends only on its absolute stream index
        wide = lane_normals(seed, first_stream, n_streams, n_draws)
        for i, row in enumerate(wide):
            assert np.array_equal(row, lane_normals(seed, first_stream + i, 1, n_draws)[0])

    def test_odd_draw_counts_and_extreme_seeds_match_numpy_words(self):
        for seed in (0, 2 ** 63, 2 ** 64 - 1):
            got = lane_normals(seed, 0, 2, 5)
            for stream in range(2):
                words = numpy_block_words(seed, stream, 0, n_words=8)[:5]
                u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
                assert np.array_equal(got[stream], ndtri(u))

    def test_draws_are_finite_with_plausible_moments(self):
        z = lane_normals(1, 0, 200, 500)
        assert np.isfinite(z).all()
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_the_top_word_maps_to_a_finite_normal(self, antithetic, monkeypatch):
        # the top word's uniform rounds to 1 and is clamped to 1 - 2**-53; the
        # next word down keeps its uniform 1 - 2**-52
        top, below = 2 ** 64 - 1, 2 ** 64 - 1 - 2 ** 11

        def top_rows(seed, first_stream, n_blocks, first_block):
            words = np.full(4 * n_blocks, top, dtype=np.uint64)
            words[1::2] = below
            return itertools.repeat(words)

        monkeypatch.setattr(montecarlo, "_stream_rows", top_rows)
        z = lane_normals(1, 0, 3, 6)
        assert np.isfinite(z).all()
        assert np.array_equal(z[:, 0::2], np.full((3, 3), ndtri(1.0 - 2.0 ** -53)))
        assert np.array_equal(z[:, 1::2], np.full((3, 3), ndtri(1.0 - 2.0 ** -52)))
        # every path then stays finite: none is dropped by either route
        gain, params = constant_gain(0.4, 0.1, 10), LqrParams()
        config = SimConfig(n_paths=20, n_steps=10, seed=1, antithetic=antithetic)
        for est in (estimate_cost_streaming(gain, params, config),
                    compare_strategies(params, config, [gain], 0).estimate()):
            assert est.n_dropped == 0 and np.isfinite(est.mean)

    def test_a_pipelined_chunk_equals_its_one_group_calls(self):
        # the chunk maps seven groups whole and the last in row blocks; each
        # one-group call maps its group in row blocks
        whole = lane_normals(42, 0, _CHUNK, 1000)
        parts = [lane_normals(42, lo, _GROUP, 1000) for lo in range(0, _CHUNK, _GROUP)]
        assert np.array_equal(whole, np.concatenate(parts))
        assert np.array_equal(whole[:, :200], serial_normals(42, 0, _CHUNK, 200))


def record_ndtri(monkeypatch, error=None, nth=None):
    """(thread id, shape) of each ``ndtri`` call; calls off this thread raise
    ``error``, only the ``nth`` call (counted from 1) if it is given."""
    calls, real, caller = [], montecarlo.ndtri, threading.get_ident()

    def recording(g, out):
        calls.append((threading.get_ident(), g.shape))
        if error is not None and calls[-1][0] != caller and nth in (None, len(calls)):
            raise error
        return real(g, out=out)

    monkeypatch.setattr(montecarlo, "ndtri", recording)
    return calls


class TestNoiseHelper:
    """One lane runs every ``ndtri`` of a ``_noise`` call: on each group but
    the last whole, on the last in ``_BLOCK``-draw row blocks."""

    def test_one_group_is_mapped_in_row_blocks_on_one_helper(self, monkeypatch):
        calls = record_ndtri(monkeypatch)
        before = threading.enumerate()
        got = lane_normals(3, 5, _GROUP, 2 * _BLOCK + 6)
        assert threading.enumerate() == before
        assert [shape for _, shape in calls] == [(_BLOCK, _GROUP)] * 2 + [(6, _GROUP)]
        threads = {t for t, _ in calls}
        assert len(threads) == 1 and threading.get_ident() not in threads
        assert np.array_equal(got, serial_normals(3, 5, _GROUP, 2 * _BLOCK + 6))

    def test_more_groups_use_one_helper_that_ends_with_the_call(self, monkeypatch):
        calls = record_ndtri(monkeypatch)
        before = threading.enumerate()
        got = lane_normals(3, 5, 3 * _GROUP + 5, 10)
        assert threading.enumerate() == before
        # three whole groups, then the ragged last one as one row block
        assert [shape for _, shape in calls] == [(10, _GROUP)] * 3 + [(10, 5)]
        threads = {t for t, _ in calls}
        assert len(threads) == 1 and threading.get_ident() not in threads
        assert np.array_equal(got, serial_normals(3, 5, 3 * _GROUP + 5, 10))

    def test_concurrent_calls_under_frequent_switches_stay_bitwise(self):
        # three callers on two cores share one lane, as the pooled chunks of
        # a streaming call do
        n = 3 * _GROUP + 5
        expected = [serial_normals(seed, 0, n, 2 * _BLOCK + 3) for seed in (1, 2, 3)]
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            with ThreadPoolExecutor(max_workers=1) as lane, \
                    ThreadPoolExecutor(max_workers=3) as pool:
                got = list(pool.map(lambda seed: lane_normals(seed, 0, n, 2 * _BLOCK + 3, lane),
                                    (1, 2, 3)))
        finally:
            sys.setswitchinterval(interval)
        for z, ref in zip(got, expected):
            assert np.array_equal(z, ref)

    def test_a_helper_error_is_raised_by_the_caller(self, monkeypatch):
        # the helper raises on the first group; the second, queued behind
        # it, still runs before the first group's error is raised
        error = FloatingPointError("first group")
        calls = record_ndtri(monkeypatch, error)
        before = threading.enumerate()
        with pytest.raises(FloatingPointError) as info:
            lane_normals(3, 0, 2 * _GROUP, 10)
        assert info.value is error
        assert [shape for _, shape in calls] == [(10, _GROUP)] * 2
        assert threading.get_ident() not in {t for t, _ in calls}
        assert threading.enumerate() == before

    def test_a_draw_error_after_a_queued_group_is_raised_by_the_caller(self, monkeypatch):
        # this thread's draw of the second group fails while the helper maps
        # the first; the helper finishes that group before the call ends
        error = MemoryError("second draw")
        calls, draws, real = record_ndtri(monkeypatch), [], montecarlo._draw_uniforms

        def draw(seed, first_stream, first_draw, out):
            draws.append(first_stream)
            if len(draws) == 2:
                raise error
            real(seed, first_stream, first_draw, out)

        monkeypatch.setattr(montecarlo, "_draw_uniforms", draw)
        before = threading.enumerate()
        with pytest.raises(MemoryError) as info:
            lane_normals(3, 0, 3 * _GROUP, 10)
        assert info.value is error
        assert draws == [0, _GROUP]
        assert [shape for _, shape in calls] == [(10, _GROUP)]
        assert threading.get_ident() not in {t for t, _ in calls}
        assert threading.enumerate() == before


class TestLane:
    """The lane of the Monte Carlo routes, a one-worker thread pool: every
    job's future is waited, and every job queued before an error still runs."""

    def test_a_reduction_error_is_raised_by_the_caller(self, monkeypatch):
        # the retaining route reduces chunks on the lane; a chunk's reduction
        # ends by adding its states, so the next call is the second chunk's
        # first, and it fails there
        error = MemoryError("second chunk")
        threads, chunks_done, real = [], [], montecarlo._add_rows

        def add_rows(total, buf, m, ok):
            threads.append(threading.get_ident())
            if chunks_done:
                raise error
            if total.shape[1] == 40 + 1:  # the states' sums, not the controls'
                chunks_done.append(m)
            return real(total, buf, m, ok)

        monkeypatch.setattr(montecarlo, "_add_rows", add_rows)
        gains = [constant_gain(0.4, 0.1, 40), constant_gain(1.2, -0.3, 40)]
        before = threading.enumerate()
        with pytest.raises(MemoryError) as info:
            compare_strategies(LqrParams(), SimConfig(n_paths=3 * _RETAIN_CHUNK, n_steps=40,
                                                      seed=2), gains)
        assert info.value is error
        assert chunks_done == [_RETAIN_CHUNK]
        assert threading.get_ident() not in threads
        assert threading.enumerate() == before

    @pytest.mark.parametrize("route", ["retaining", "streaming"])
    def test_a_row_block_error_is_raised_by_the_caller(self, route, monkeypatch):
        # the second ndtri call fails: a row block of the first chunk's last
        # group (the second of a one-group chunk, the first after a whole
        # group), which the Euler kernel waits for; the chunk's other row
        # blocks still run, and the next chunk is never drawn
        error = FloatingPointError("row block")
        calls = record_ndtri(monkeypatch, error, nth=2)
        gain = constant_gain(0.4, 0.1, 4 * _BLOCK)
        config = SimConfig(n_paths=2 * _RETAIN_CHUNK, n_steps=4 * _BLOCK, seed=2)
        before = threading.enumerate()
        with pytest.raises(FloatingPointError) as info:
            if route == "retaining":
                compare_strategies(LqrParams(), config, [gain], 0)
            else:
                estimate_cost_streaming(gain, LqrParams(), config)
        assert info.value is error
        whole = [] if route == "retaining" else [(4 * _BLOCK, _GROUP)]
        assert [shape for _, shape in calls] == whole + [(_BLOCK, _GROUP)] * 4
        assert threading.get_ident() not in {t for t, _ in calls}
        assert threading.enumerate() == before

    def test_a_whole_group_error_is_raised_by_the_caller(self, monkeypatch):
        # a three-group streaming chunk: the second whole group's ndtri
        # fails, and the error is raised once the last group's row blocks,
        # which still run, are queued behind it
        error = FloatingPointError("second group")
        calls = record_ndtri(monkeypatch, error, nth=2)
        config = SimConfig(n_paths=3 * _GROUP, n_steps=2 * _BLOCK, seed=2)
        before = threading.enumerate()
        with pytest.raises(FloatingPointError) as info:
            estimate_cost_streaming(constant_gain(0.4, 0.1, 2 * _BLOCK), LqrParams(), config)
        assert info.value is error
        assert [shape for _, shape in calls] == \
            [(2 * _BLOCK, _GROUP)] * 2 + [(_BLOCK, _GROUP)] * 2
        assert threading.get_ident() not in {t for t, _ in calls}
        assert threading.enumerate() == before

    def test_pooled_chunks_share_the_calls_lane(self, monkeypatch):
        # three chunks on a three-worker pool queue their noise on one lane,
        # and the estimate is the serial one bit for bit
        calls = record_ndtri(monkeypatch)
        gain = constant_gain(0.4, 0.1, 10)
        config = SimConfig(n_paths=2 * _CHUNK + 6, n_steps=10, seed=3)
        before = threading.enumerate()
        pooled = estimate_cost_streaming(gain, LqrParams(), config, workers=3)
        assert threading.enumerate() == before
        assert sorted(shape for _, shape in calls) == sorted(
            [(10, _GROUP)] * 16 + [(10, 6)])
        threads = {t for t, _ in calls}
        assert len(threads) == 1 and threading.get_ident() not in threads
        assert pooled == estimate_cost_streaming(gain, LqrParams(), config)

    def test_the_calling_thread_never_runs_ndtri(self, monkeypatch):
        # pins the pipeline: per 40-step chunk two row blocks of its last
        # group, after every earlier group whole
        calls = record_ndtri(monkeypatch)
        gains = [constant_gain(k, 0.0, 40) for k in (0.2, 0.5, 0.9)]
        compare_strategies(LqrParams(), SimConfig(n_paths=2 * _RETAIN_CHUNK + 6, n_steps=40,
                                                  seed=4), gains)
        assert [shape for _, shape in calls] == \
            [(_BLOCK, _GROUP), (8, _GROUP)] * 2 + [(_BLOCK, 6), (8, 6)]
        calls.clear()
        estimate_cost_streaming(gains[0], LqrParams(),
                                SimConfig(n_paths=_CHUNK + 6, n_steps=40, seed=4))
        assert [shape for _, shape in calls] == \
            [(40, _GROUP)] * 7 + [(_BLOCK, _GROUP), (8, _GROUP), (_BLOCK, 6), (8, 6)]
        assert threading.get_ident() not in {t for t, _ in calls}


class TestSimConfig:
    @pytest.mark.parametrize("kwargs, match", [
        (dict(n_paths=0), "n_paths"),
        (dict(n_steps=0), "n_steps"),
        (dict(seed=-1), "seed"),
        (dict(seed=2 ** 64), "seed"),
        (dict(n_paths=7, antithetic=True), "even"),
    ])
    def test_rejects_bad_settings(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            SimConfig(**kwargs)


class TestGainResampling:
    def test_downsamples_to_nearest_node(self):
        gain = constant_gain(0.0, 0.0, 10)
        gain = GainSchedule(grid=gain.grid, k_state=np.arange(11.0),
                            c_offset=np.arange(11.0), label=GainLabel.CUSTOM)
        k, c = _gain_on_sim_grid(gain, 5)
        assert np.array_equal(k, [0.0, 2.0, 4.0, 6.0, 8.0])
        assert np.array_equal(c, k)

    def test_upsampling_ties_round_toward_the_later_node(self):
        gain = GainSchedule(grid=TimeGrid(2, 1.0), k_state=np.arange(3.0),
                            c_offset=np.zeros(3), label=GainLabel.CUSTOM)
        # sim times 0, 1/4, 1/2, 3/4; 1/4 is equidistant between nodes 0 and 1
        k, _ = _gain_on_sim_grid(gain, 4)
        assert np.array_equal(k, [0.0, 1.0, 1.0, 2.0])

    def test_identical_grids_pass_through(self):
        gain = GainSchedule(grid=TimeGrid(6, 1.0), k_state=np.arange(7.0),
                            c_offset=np.arange(7.0) ** 2, label=GainLabel.CUSTOM)
        k, c = _gain_on_sim_grid(gain, 6)
        assert np.array_equal(k, gain.k_state[:6])
        assert np.array_equal(c, gain.c_offset[:6])

    @given(st.integers(1, 12), st.integers(1, 6), st.booleans())
    def test_chosen_node_is_nearest_in_time(self, base, factor, refine_sim):
        n_ode, n_sim = (base, base * factor) if refine_sim else (base * factor, base)
        gain = GainSchedule(grid=TimeGrid(n_ode, 1.0),
                            k_state=np.arange(n_ode + 1.0),
                            c_offset=np.zeros(n_ode + 1), label=GainLabel.CUSTOM)
        k, _ = _gain_on_sim_grid(gain, n_sim)
        t_sim = np.arange(n_sim) / n_sim
        t_node = k / n_ode  # k_state stores the node index, so this is the node time
        gap = np.abs(t_node - t_sim)
        assert np.all(gap <= 0.5 / n_ode + 1e-15)
        ties = np.abs(gap - 0.5 / n_ode) < 1e-15
        assert np.all(t_node[ties] > t_sim[ties])

    def test_incommensurate_grids_rejected(self):
        gain = constant_gain(0.1, 0.0, 10)
        with pytest.raises(ConfigError, match="refinement-compatible"):
            _gain_on_sim_grid(gain, 4)


def simulate_paths(gain, params, config):
    """Every path of one gain, as (states, controls): the retaining route keeping all."""
    run = compare_strategies(params, config, [gain], config.n_paths)
    return run.states[0], run.controls[0]


def valid_rows(states, controls) -> np.ndarray:
    return np.isfinite(states).all(axis=1) & np.isfinite(controls).all(axis=1)


def batch_estimate(states, controls, params=LqrParams(), antithetic=False) -> CostEstimate:
    """Reference estimate over a whole batch of paths, one cost formula for all of it.

    Each path costs ``sum_i a_i^2 dt / 2 + gamma/2 (X_T - x0)^2``; non-finite
    paths are left out, as ``_estimate`` does for the library routes.
    """
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    dt = params.horizon / controls.shape[1]
    miss = states[:, -1] - params.x0
    costs = 0.5 * dt * np.sum(controls ** 2, axis=1) + 0.5 * params.gamma * miss * miss
    return _estimate(costs, valid_rows(states, controls), antithetic)


class TestSimulatePaths:
    def test_noise_free_paths_follow_the_euler_recursion(self):
        # sigma is positive but far below one ulp of the state, so adding the
        # noise term cannot change any bit of the update
        params = LqrParams(sigma=1e-300)
        gain = constant_gain(0.3, 0.1, 8)
        states, controls = simulate_paths(gain, params, SimConfig(n_paths=3, n_steps=8, seed=0))
        dt = params.horizon / 8
        x = params.x0
        expected = [x]
        for _ in range(8):
            a = -0.3 * x - 0.1
            x = x + (params.a_bar * x + params.b_bar * a) * dt
            expected.append(x)
        assert np.array_equal(states, np.tile(expected, (3, 1)))
        assert valid_rows(states, controls).all()

    def test_bit_identical_across_runs(self):
        params = LqrParams()
        grid = TimeGrid(25, params.horizon)
        gain = equilibrium_gain(solve_equilibrium_riccati(params, grid), params)
        config = SimConfig(n_paths=2 * _CHUNK + 100, n_steps=25, seed=11)
        first = simulate_paths(gain, params, config)
        again = simulate_paths(gain, params, config)
        assert np.array_equal(first[0], again[0])
        assert np.array_equal(first[1], again[1])

    def test_each_path_is_a_pure_function_of_its_stream_index(self):
        params = LqrParams()
        gain = constant_gain(0.5, 0.0, 16)
        small, _ = simulate_paths(gain, params, SimConfig(n_paths=3, n_steps=16, seed=5))
        large, _ = simulate_paths(gain, params, SimConfig(n_paths=5, n_steps=16, seed=5))
        assert np.array_equal(small, large[:3])

    def test_different_seeds_give_different_noise(self):
        params = LqrParams()
        gain = constant_gain(0.5, 0.0, 16)
        a, _ = simulate_paths(gain, params, SimConfig(n_paths=4, n_steps=16, seed=1))
        b, _ = simulate_paths(gain, params, SimConfig(n_paths=4, n_steps=16, seed=2))
        assert not np.array_equal(a, b)

    def test_antithetic_pairs_mirror_exactly(self):
        # with x0 = 0 and zero gain every partial sum negates bit for bit
        params = LqrParams(a_bar=0.0, x0=0.0)
        gain = constant_gain(0.0, 0.0, 32)
        states, _ = simulate_paths(gain, params,
                                   SimConfig(n_paths=8, n_steps=32, seed=3, antithetic=True))
        assert np.array_equal(states[1::2], -states[0::2])
        assert not np.array_equal(states[0], states[2])

    def test_horizon_mismatch_rejected(self):
        gain = constant_gain(0.1, 0.0, 8, horizon=2.0)
        with pytest.raises(ConfigError, match="horizon"):
            simulate_paths(gain, LqrParams(), SimConfig(n_paths=2, n_steps=8, seed=0))

    def test_explosive_gain_is_flagged(self):
        gain = constant_gain(-1e154, 0.0, 4)
        with pytest.raises(NumericError, match="non-finite"):
            simulate_paths(gain, LqrParams(), SimConfig(n_paths=8, n_steps=4, seed=0))


class TestEstimateCost:
    def test_left_endpoint_rule_and_sample_statistics(self):
        # the defaults: horizon 1, gamma 5, x0 = 1
        states = [[1.0, 2.0, 3.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
        controls = [[0.5, -1.0], [2.0, 0.0], [0.0, 0.0]]
        dt = 0.5
        per_path = np.array([
            0.5 * dt * (0.25 + 1.0) + 2.5 * 4.0,
            0.5 * dt * 4.0,
            0.0,
        ])
        est = batch_estimate(states, controls)
        assert est.mean == pytest.approx(per_path.mean(), abs=1e-15)
        assert est.stderr == pytest.approx(per_path.std(ddof=1) / np.sqrt(3), abs=1e-15)
        assert est.n_paths == 3

    def test_reads_gamma_x0_and_horizon_from_the_batch(self):
        # none of the three is the default, so a default read shows
        params = LqrParams(gamma=2.0, horizon=4.0, x0=-1.0)
        dt = 2.0
        per_path = np.array([0.5 * dt * (0.25 + 1.0) + 0.5 * 2.0 * 2.0 ** 2, 0.0])
        est = batch_estimate([[-1.0, 0.0, 1.0], [-1.0, -1.0, -1.0]],
                             [[0.5, -1.0], [0.0, 0.0]], params)
        assert est.mean == pytest.approx(per_path.mean(), abs=1e-15)
        assert est.stderr == pytest.approx(per_path.std(ddof=1) / np.sqrt(2), abs=1e-15)
        # the retaining route reads the same three from its own parameters
        gain = constant_gain(0.4, 0.1, 20, horizon=4.0)
        config = SimConfig(n_paths=40, n_steps=20, seed=3)
        run = compare_strategies(params, config, [gain], 0)
        assert run.estimate() == batch_estimate(*simulate_paths(gain, params, config), params)

    def test_cost_estimate_defaults_to_nothing_dropped(self):
        est = CostEstimate(1.0, 0.1, 5)
        assert est.n_dropped == 0
        assert batch_estimate([[1.0, 1.0]], [[0.3]]).n_dropped == 0

    def test_single_path_has_zero_stderr(self):
        est = batch_estimate([[1.0, 1.0]], [[0.3]])
        assert est.stderr == 0.0
        assert est.n_paths == 1

    @pytest.mark.parametrize("scale", [2.0 ** -700, 2.0 ** 600], ids=["tiny", "huge"])
    def test_the_standard_error_scales_with_the_costs(self, scale):
        # the squared deviations underflowed to a zero standard error near
        # 1e-200 and overflowed to an infinite one near 1e180
        costs, good = np.array([1.0, 2.0, 4.0, 7.0]), np.ones(4, dtype=bool)
        unit, est = _estimate(costs, good, False), _estimate(scale * costs, good, False)
        assert (est.mean, est.stderr) == (scale * unit.mean, scale * unit.stderr)

    def test_non_finite_paths_are_excluded(self):
        states = np.array([[1.0, 1.0, 1.0], [1.0, np.nan, 1.0], [1.0, 2.0, 1.0]])
        controls = np.array([[0.1, 0.1], [0.1, 0.1], [0.2, 0.2]])
        est = batch_estimate(states, controls)
        assert est.mean == batch_estimate(states[[0, 2]], controls[[0, 2]]).mean
        assert est.n_paths == 2
        assert est.n_dropped == 1

    def test_antithetic_mode_drops_pairs_whole(self):
        states = np.array([[1.0, 1.0], [1.0, np.nan], [1.0, 2.0], [1.0, 0.0]])
        controls = np.array([[0.1], [0.1], [0.4], [-0.4]])
        est = batch_estimate(states, controls, antithetic=True)
        # pair (0, 1) has a bad member, so only the (2, 3) pair survives;
        # both its members cost 0.5*dt*0.16 + 2.5*1 with dt = 1
        pair_mean = 0.5 * 0.16 + 2.5
        assert est.n_paths == 1
        assert est.n_dropped == 2
        assert est.mean == pytest.approx(pair_mean, abs=1e-15)
        assert est.stderr == 0.0

    def test_costs_near_the_float_ceiling_overflow_without_a_warning(self):
        # each path's cost is finite, their sum is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = batch_estimate([[1.0, 1.0]] * 3, [[1.3e154]] * 3)
        assert est.mean == np.inf
        assert est.n_dropped == 0

    def test_mirrored_pairs_near_the_float_ceiling_overflow_without_a_warning(self):
        # each path's cost is finite, the pair's sum is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = _estimate(np.full(4, 1e308), np.ones(4, dtype=bool), antithetic=True)
        assert est.mean == np.inf
        assert (est.n_paths, est.n_dropped) == (2, 0)

    def test_no_finite_paths_is_an_error(self):
        with pytest.raises(ConfigError, match="no finite paths"):
            batch_estimate([[1.0, np.nan]], [[0.1]])

    def test_agrees_with_the_quadrature_reference(self):
        params = LqrParams()
        grid = TimeGrid(200, params.horizon)
        gain = equilibrium_gain(solve_equilibrium_riccati(params, grid), params)
        config = SimConfig(n_paths=20_000, n_steps=200, seed=42)
        est = compare_strategies(params, config, [gain], 0).estimate()
        reference = exact_cost(gain, params).total
        assert est.stderr > 0.0
        assert abs(est.mean - reference) <= 3.0 * est.stderr


class TestStreamingEstimate:
    def test_matches_the_batch_route(self):
        # summation order differs (running accumulation vs one big reduction),
        # so the contract is agreement to rounding, not bit equality
        params = LqrParams()
        grid = TimeGrid(100, params.horizon)
        gain = naive_gain(solve_naive(params, grid), params)
        config = SimConfig(n_paths=10_000, n_steps=100, seed=9)
        batch_est = batch_estimate(*simulate_paths(gain, params, config), params)
        stream_est = estimate_cost_streaming(gain, params, config)
        assert stream_est.n_paths == batch_est.n_paths
        assert stream_est.mean == pytest.approx(batch_est.mean, rel=1e-12)
        assert stream_est.stderr == pytest.approx(batch_est.stderr, rel=1e-12)

    def test_worker_count_does_not_change_the_estimate(self):
        params = LqrParams()
        grid = TimeGrid(20, params.horizon)
        gain = equilibrium_gain(solve_equilibrium_riccati(params, grid), params)
        config = SimConfig(n_paths=2 * _CHUNK + 4, n_steps=20, seed=13)
        serial = estimate_cost_streaming(gain, params, config)
        threaded = estimate_cost_streaming(gain, params, config, workers=4)
        assert serial.mean == threaded.mean
        assert serial.stderr == threaded.stderr

    def test_explosive_gain_is_flagged(self):
        gain = constant_gain(-1e154, 0.0, 4)
        with pytest.raises(NumericError, match="non-finite"):
            estimate_cost_streaming(gain, LqrParams(), SimConfig(n_paths=8, n_steps=4, seed=0))

    @pytest.mark.parametrize("route", [simulate_paths, estimate_cost_streaming])
    def test_horizon_mismatch_is_reported_before_grid_mismatch(self, route):
        # 10 ODE steps cannot be resampled onto 4 simulation steps either, so
        # the error shows which check runs first
        gain = constant_gain(0.1, 0.0, 10, horizon=2.0)
        with pytest.raises(ConfigError, match="horizon"):
            route(gain, LqrParams(), SimConfig(n_paths=2, n_steps=4, seed=0))

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_shared_noise_estimates_equal_one_gain_at_a_time(self, antithetic):
        params = LqrParams()
        gains = [constant_gain(0.4, 0.1, 20), constant_gain(1.2, -0.3, 20),
                 constant_gain(0.0, 0.0, 20)]
        config = SimConfig(n_paths=2 * _CHUNK + 6, n_steps=20, seed=8, antithetic=antithetic)
        shared = _streaming_estimates(gains, params, config)
        assert shared == [estimate_cost_streaming(g, params, config) for g in gains]

    def test_antithetic_counts_pairs_once(self):
        params = LqrParams()
        gain = constant_gain(0.0, 0.0, 50)
        config = SimConfig(n_paths=2_000, n_steps=50, seed=21, antithetic=True)
        est = estimate_cost_streaming(gain, params, config)
        assert est.n_paths == 1_000

    def test_antithetic_reduces_variance_for_a_drifting_law(self):
        # zero control leaves the drift unopposed, so the terminal miss has a
        # large odd component and mirroring must help
        params = LqrParams()
        gain = constant_gain(0.0, 0.0, 100)
        plain = estimate_cost_streaming(
            gain, params, SimConfig(n_paths=10_000, n_steps=100, seed=7))
        paired = estimate_cost_streaming(
            gain, params, SimConfig(n_paths=10_000, n_steps=100, seed=7, antithetic=True))
        assert paired.stderr < plain.stderr
        reference = exact_cost(gain, params).total
        assert abs(paired.mean - reference) <= 3.0 * paired.stderr


def poison(monkeypatch, paths):
    """Make the noise of the given stream indices -inf at step 2.

    The routes draw their uniforms through ``_draw_uniforms``; a uniform of 0
    maps to the normal -inf.
    """
    real = montecarlo._draw_uniforms

    def poisoned(seed, first_stream, first_draw, out):
        real(seed, first_stream, first_draw, out)
        for p in paths:
            if first_stream <= p < first_stream + out.shape[1] \
                    and first_draw <= 2 < first_draw + len(out):
                out[2 - first_draw, p - first_stream] = 0.0

    monkeypatch.setattr(montecarlo, "_draw_uniforms", poisoned)


class TestNonFinitePolicy:
    """Both routes drop up to 0.1% non-finite paths and raise beyond that."""

    params = LqrParams()
    gain = constant_gain(0.4, 0.1, 10)

    def test_one_bad_path_in_a_thousand_is_dropped_by_both_routes(self, monkeypatch):
        config = SimConfig(n_paths=1000, n_steps=10, seed=6)
        states, controls = simulate_paths(self.gain, self.params, config)
        poison(monkeypatch, [17])
        run = compare_strategies(self.params, config, [self.gain], 0)
        assert np.flatnonzero(~run.good[0]).tolist() == [17]
        streamed = estimate_cost_streaming(self.gain, self.params, config)
        keep = np.arange(1000) != 17
        expected = batch_estimate(states[keep], controls[keep])
        for est in (run.estimate(), streamed):
            assert (est.n_paths, est.n_dropped) == (999, 1)
            assert est.mean == pytest.approx(expected.mean, rel=1e-12)
            assert est.stderr == pytest.approx(expected.stderr, rel=1e-12)

    def test_antithetic_streaming_drops_the_pair_whole(self, monkeypatch):
        config = SimConfig(n_paths=2000, n_steps=10, seed=6, antithetic=True)
        poison(monkeypatch, [40])  # stream 40 drives paths 80 and 81
        est = estimate_cost_streaming(self.gain, self.params, config)
        assert (est.n_paths, est.n_dropped) == (999, 2)
        assert np.isfinite(est.mean)

    @pytest.mark.parametrize("route", [simulate_paths, estimate_cost_streaming])
    def test_more_than_a_thousandth_raises(self, route, monkeypatch):
        poison(monkeypatch, [3, 900])
        with pytest.raises(NumericError, match="2 of 1000 paths went non-finite"):
            route(self.gain, self.params, SimConfig(n_paths=1000, n_steps=10, seed=6))

    def test_more_than_a_thousandth_raises_in_a_comparison(self, monkeypatch):
        poison(monkeypatch, [3, 900])
        with pytest.raises(NumericError, match="2 of 1000 paths went non-finite"):
            compare_strategies(self.params, SimConfig(n_paths=1000, n_steps=10, seed=6),
                               [self.gain, constant_gain(1.1, -0.2, 10)])

    # path 0 makes each total start at a later row; a chunk of 2 leaves the
    # whole first chunk bad, and 1500 is a bad row inside a later chunk
    @pytest.mark.parametrize("chunk, bad, n_paths", [(_RETAIN_CHUNK, [0, 1500], 3000),
                                                     (2, [0, 1], 2000)])
    def test_comparison_means_skip_bad_paths_bitwise(self, chunk, bad, n_paths, monkeypatch):
        monkeypatch.setattr(montecarlo, "_RETAIN_CHUNK", chunk)
        poison(monkeypatch, bad)
        gains = [self.gain, constant_gain(1.1, -0.2, 10)]
        config = SimConfig(n_paths=n_paths, n_steps=10, seed=6)
        result = compare_strategies(self.params, config, gains)
        for j, gain in enumerate(gains):
            states, controls = simulate_paths(gain, self.params, config)
            valid = valid_rows(states, controls)
            assert np.flatnonzero(~valid).tolist() == bad
            assert np.array_equal(result.mean_state[j], states[valid].mean(axis=0))
            assert np.array_equal(result.mean_abs_control[j],
                                  np.abs(controls[valid]).mean(axis=0))

    @pytest.mark.parametrize("antithetic, bad", [(False, [17]), (True, [40])])
    def test_cli_simulate_route_estimates_like_the_batch(self, antithetic, bad, monkeypatch):
        # the CLI's simulate keeps 8 paths and reduces the rest chunk by chunk
        poison(monkeypatch, bad)
        config = SimConfig(n_paths=2000, n_steps=10, seed=6, antithetic=antithetic)
        run = compare_strategies(self.params, config, [self.gain], 8)
        states, controls = simulate_paths(self.gain, self.params, config)
        est = batch_estimate(states, controls, self.params, antithetic)
        assert est.n_dropped == (2 if antithetic else 1)
        assert run.estimate() == est
        assert np.array_equal(run.states[0], states[:8])
        assert np.array_equal(run.controls[0], controls[:8])


def spiked_gain(step: int, k_step: float = 0.4, c_step: float = 0.1,
                k: float = 0.4) -> GainSchedule:
    """``constant_gain(k, 0.1, 10)`` with the gain and offset of one step replaced."""
    gain = constant_gain(k, 0.1, 10)
    k_state, c_offset = gain.k_state.copy(), gain.c_offset.copy()
    k_state[step], c_offset[step] = k_step, c_step
    return GainSchedule(grid=gain.grid, k_state=k_state, c_offset=c_offset,
                        label=GainLabel.CUSTOM)


class TestValidPaths:
    """A path is valid when its last state is finite: exactly when every
    state and control of it is, which is the rule the reference applies."""

    # the spikes at step 9 are on the last step, after every state but the last
    CASES = {
        "nan-k-last": (LqrParams(), spiked_gain(9, k_step=np.nan)),
        "inf-k-mid": (LqrParams(), spiked_gain(4, k_step=np.inf)),
        "minus-inf-c-last": (LqrParams(), spiked_gain(9, c_step=-np.inf)),
        # inf * 0: the state that c makes infinite meets a zero gain and drift
        "zero-k-and-a_bar": (LqrParams(a_bar=0.0),
                             spiked_gain(3, k_step=0.0, c_step=np.inf, k=0.0)),
        # inf * 0: b_bar = 0 turns the infinite control into a NaN drift
        "zero-b_bar": (LqrParams(b_bar=0.0), spiked_gain(9, k_step=np.inf)),
        # k x overflows where |x| > 1.2 while every state before it is finite
        "k-x-overflow": (LqrParams(), spiked_gain(9, k_step=1.5e308)),
    }

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_good_marks_the_paths_whose_states_and_controls_are_all_finite(
            self, case, antithetic, monkeypatch):
        params, gain = self.CASES[case]
        monkeypatch.setattr(montecarlo, "_RETAIN_CHUNK", 16)  # four chunks
        # more than 0.1% of the paths go bad; read the mask instead of raising
        monkeypatch.setattr(montecarlo, "_checked", lambda good: good)
        config = SimConfig(n_paths=64, n_steps=10, seed=6, antithetic=antithetic)
        with np.errstate(divide="ignore", invalid="ignore"):  # means over no valid path
            run = compare_strategies(params, config, [gain], config.n_paths)
        reference = valid_rows(run.states[0], run.controls[0])
        assert not reference.all()
        if case == "k-x-overflow":
            assert reference.any() and np.isfinite(run.states[0][:, -2]).all()
        assert np.array_equal(run.good[0], reference)


class TestReductionBits:
    """Every field of the retaining route, pinned by one hash per mode.

    The kept controls are recomputed from the kept states, so comparing them
    with ``simulate_paths`` would be circular: these hashes were recorded when
    the Euler kernel wrote the controls itself. Poisoned paths pin the bits of
    non-finite rows too (stream 1500 is past an antithetic run's last stream).
    """

    PINNED = {
        False: "b5c165511a91df06f33ad9056756064e7a6455aea58ff8777c2aa4770a79b04a",
        True: "dfd836117316eba2d16f7c4756605c6a9f4cf55d1043199e8f817a9be5dc058e",
    }

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_every_field_keeps_its_bits(self, antithetic, monkeypatch):
        poison(monkeypatch, [3, 1500])
        config = SimConfig(n_paths=3000, n_steps=10, seed=6, antithetic=antithetic)
        gains = [constant_gain(0.4, 0.1, 10), constant_gain(1.1, -0.2, 10)]
        run = compare_strategies(LqrParams(), config, gains, config.n_paths)
        assert not run.good.all()
        h = hashlib.sha256()
        for field in (run.costs, run.good, run.mean_state, run.mean_abs_control,
                      run.states, run.controls):
            h.update(np.ascontiguousarray(field).tobytes())
        assert h.hexdigest() == self.PINNED[antithetic]


class TestCompareStrategies:
    def test_equal_gains_under_common_noise_are_identical(self):
        params = LqrParams()
        gain = constant_gain(0.4, 0.1, 30)
        config = SimConfig(n_paths=64, n_steps=30, seed=2)
        result = compare_strategies(params, config, [gain, gain])
        assert result.labels == ("custom_0", "custom_1")
        states, controls = simulate_paths(gain, params, config)
        for j in range(2):
            assert np.array_equal(result.mean_state[j], states.mean(axis=0))
            assert np.array_equal(result.mean_abs_control[j], np.abs(controls).mean(axis=0))
        assert np.array_equal(result.mean_state[0], result.mean_state[1])

    def test_distinct_labels_pass_through_unchanged(self):
        params = LqrParams()
        grid = TimeGrid(30, params.horizon)
        eq = equilibrium_gain(solve_equilibrium_riccati(params, grid), params)
        nv = naive_gain(solve_naive(params, grid), params)
        result = compare_strategies(params, SimConfig(n_paths=64, n_steps=30, seed=2),
                                    [eq, nv])
        assert result.labels == ("equilibrium", "naive")
        assert result.mean_state.shape == (2, 31)
        assert result.mean_abs_control.shape == (2, 30)
        assert np.array_equal(result.times, np.linspace(0.0, 1.0, 31))

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_each_batch_equals_its_own_simulation(self, antithetic):
        params = LqrParams()
        grid = TimeGrid(20, params.horizon)
        gains = [equilibrium_gain(solve_equilibrium_riccati(params, grid), params),
                 naive_gain(solve_naive(params, grid), params), constant_gain(0.0, 0.0, 20)]
        config = SimConfig(n_paths=2 * _CHUNK + 6, n_steps=20, seed=4, antithetic=antithetic)
        result = compare_strategies(params, config, gains)
        shared = compare_strategies(params, config, gains, config.n_paths)
        for j, gain in enumerate(gains):
            states, controls = simulate_paths(gain, params, config)
            assert np.array_equal(shared.states[j], states)
            assert np.array_equal(shared.controls[j], controls)
            assert shared.estimate(j) == batch_estimate(states, controls, params, antithetic)
            assert np.array_equal(result.mean_state[j], states.mean(axis=0))
            assert np.array_equal(result.mean_abs_control[j], np.abs(controls).mean(axis=0))

    def test_means_near_the_float_ceiling_overflow_without_a_warning(self):
        # every path stays at x0, finite, and their sum is not
        params = LqrParams(a_bar=0.0, sigma=1e-300, x0=1e308)
        gains = [constant_gain(0.0, 0.0, 4)] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = compare_strategies(params, SimConfig(n_paths=4, n_steps=4, seed=0), gains)
        assert np.all(result.mean_state == np.inf)
        assert np.all(result.mean_abs_control == 0.0)

    def test_draws_each_noise_chunk_once_for_all_gains(self, monkeypatch):
        # a retaining chunk is one noise group, drawn in one call
        calls = []
        real = montecarlo._draw_uniforms

        def counted(seed, first_stream, first_draw, out):
            calls.append((first_stream, out.shape[1]))
            real(seed, first_stream, first_draw, out)

        monkeypatch.setattr(montecarlo, "_draw_uniforms", counted)
        gains = [constant_gain(k, 0.0, 20) for k in (0.2, 0.5, 0.9)]
        compare_strategies(LqrParams(),
                           SimConfig(n_paths=2 * _RETAIN_CHUNK + 6, n_steps=20, seed=4), gains)
        assert calls == [(0, _RETAIN_CHUNK), (_RETAIN_CHUNK, _RETAIN_CHUNK),
                         (2 * _RETAIN_CHUNK, 6)]

    def test_one_strategy_equals_its_simulation(self):
        params = LqrParams()
        gain = constant_gain(0.4, 0.1, 30)
        config = SimConfig(n_paths=64, n_steps=30, seed=2)
        result = compare_strategies(params, config, [gain], keep=3)
        states, controls = simulate_paths(gain, params, config)
        assert result.labels == ("custom",)
        assert np.array_equal(result.states[0], states[:3])
        assert np.array_equal(result.controls[0], controls[:3])
        assert np.array_equal(result.mean_state[0], states.mean(axis=0))
        assert np.array_equal(result.mean_abs_control[0], np.abs(controls).mean(axis=0))
        assert result.estimate() == batch_estimate(states, controls, params)

    @pytest.mark.parametrize("keep", [-1, 5])
    def test_keep_outside_the_paths_is_rejected(self, keep):
        gain = constant_gain(0.1, 0.0, 8)
        with pytest.raises(ConfigError, match=rf"keep must lie in 0\.\.4, got {keep}"):
            compare_strategies(LqrParams(), SimConfig(n_paths=4, n_steps=8, seed=0), [gain],
                               keep)

    def test_needs_a_strategy(self):
        with pytest.raises(ConfigError, match="at least one strategy"):
            compare_strategies(LqrParams(), SimConfig(n_paths=4, n_steps=8, seed=0), [])

    def test_every_array_is_read_only(self):
        gains = [constant_gain(0.1, 0.0, 8), constant_gain(0.5, 0.2, 8)]
        result = compare_strategies(LqrParams(), SimConfig(n_paths=4, n_steps=8, seed=0),
                                    gains, keep=2)
        arrays = {name: value for name, value in vars(result).items()
                  if isinstance(value, np.ndarray)}
        assert sorted(arrays) == ["controls", "costs", "good", "mean_abs_control",
                                  "mean_state", "states", "times"]
        assert result.good.dtype == bool
        for name, value in arrays.items():
            assert not value.flags.writeable, name


class TestChunking:
    """Chunk sizes are part of no contract: per-path values depend only on
    (seed, stream), and every reduction adds paths in path order."""

    def test_chunk_sizes_are_even_so_mirrored_pairs_never_straddle(self):
        assert _CHUNK % 2 == 0
        assert _RETAIN_CHUNK % 2 == 0

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_results_do_not_depend_on_the_chunk_sizes(self, antithetic, monkeypatch):
        params = LqrParams()
        gains = [constant_gain(0.4, 0.1, 20), constant_gain(1.2, -0.3, 20),
                 constant_gain(0.0, 0.0, 20)]
        config = SimConfig(n_paths=46, n_steps=20, seed=3, antithetic=antithetic)

        def run(workers):
            paths = simulate_paths(gains[0], params, config)
            comp = compare_strategies(params, config, gains)
            est = estimate_cost_streaming(gains[1], params, config, workers=workers)
            return paths, comp, est

        whole = run(1)
        # 46 paths make ragged last chunks: 11 x 4 + 2 and 7 x 6 + 4; three
        # streaming workers, switching threads often, run chunks at once
        monkeypatch.setattr(montecarlo, "_RETAIN_CHUNK", 4)
        monkeypatch.setattr(montecarlo, "_CHUNK", 6)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            chunked = [run(workers) for workers in (1, 3)]
        finally:
            sys.setswitchinterval(interval)
        for paths, comp, est in chunked:
            assert np.array_equal(paths[0], whole[0][0])
            assert np.array_equal(paths[1], whole[0][1])
            assert np.array_equal(comp.mean_state, whole[1].mean_state)
            assert np.array_equal(comp.mean_abs_control, whole[1].mean_abs_control)
            assert est == whole[2]


class TestSegments:
    """The streaming route draws its noise ``_SEGMENT`` steps at a time; no
    segment size moves a bit of its estimates."""

    # with 1024-path chunks, 2500 paths make three chunks, the last ragged;
    # 250 steps make a ragged last segment of each size and 1000 steps one of
    # 36 and of 96; seed 2**64 - 1 is the top key word
    @pytest.mark.parametrize("n_paths, n_steps, seed, antithetic", [
        (2500, 250, 2 ** 64 - 1, False),
        (2500, 1000, 5, True),
    ], ids=["plain", "antithetic"])
    def test_segment_sizes_keep_every_bit(self, n_paths, n_steps, seed, antithetic,
                                          monkeypatch):
        params = LqrParams()
        gains = [constant_gain(0.4, 0.1, n_steps), constant_gain(1.2, -0.3, n_steps)]
        config = SimConfig(n_paths=n_paths, n_steps=n_steps, seed=seed, antithetic=antithetic)
        monkeypatch.setattr(montecarlo, "_CHUNK", 1024)
        monkeypatch.setattr(montecarlo, "_SEGMENT", n_steps)
        whole = _streaming_estimates(gains, params, config)
        for segment in (4, 36, 96):
            monkeypatch.setattr(montecarlo, "_SEGMENT", segment)
            for workers in (1, 4):
                got = _streaming_estimates(gains, params, config, workers)
                assert got == whole, (segment, workers)


class TestMemory:
    # the unit is K x m x (2 n_steps + 1) floats, what one chunk's states and
    # controls would take together; the retaining route keeps only the
    # states, about half a unit, and recomputes the controls from them

    @staticmethod
    def unit(n_steps: int) -> int:
        return 3 * _RETAIN_CHUNK * (2 * n_steps + 1) * 8

    def compare_peak(self, n_chunks: int, n_steps: int = 50) -> int:
        gains = [constant_gain(k, 0.0, n_steps) for k in (0.2, 0.5, 0.9)]
        config = SimConfig(n_paths=n_chunks * _RETAIN_CHUNK, n_steps=n_steps, seed=1)
        return peak_traced_bytes(lambda: compare_strategies(LqrParams(), config, gains))

    def test_compare_holds_one_chunk_whatever_the_path_count(self):
        two, eight = self.compare_peak(2), self.compare_peak(8)
        assert eight <= 1.2 * two
        # one chunk's states, one chunk's noise, the Euler kernel's 32-step
        # blocks and the per-path costs (~1.5 here); retaining every path
        # would need 8 units' worth
        assert eight <= 1.6 * self.unit(50)

    def test_long_paths_keep_one_trajectory_buffer(self):
        # at 1000 steps the chunk's states (~0.5) and noise (~0.17) dominate
        # (~0.74 here); a second chunk-sized buffer of controls would add 0.5
        assert self.compare_peak(4, n_steps=1000) <= 0.85 * self.unit(1000)

    def test_noise_holds_one_copy_of_its_output(self):
        # words are drawn a block of streams at a time straight into the
        # float output, so no chunk-sized word array or transposed copy exists
        out_bytes = 4096 * 200 * 8
        assert peak_traced_bytes(lambda: lane_normals(5, 0, 4096, 200)) <= 1.25 * out_bytes

    def test_streaming_noise_is_one_segment_whatever_the_step_count(self):
        # 2000 steps of noise would be ~5.7 segment buffers; the route holds
        # one segment's, reused, with the kernel's state and its one control
        # array beside it (1.15 here; 1.24 with a 32-step block of controls)
        config = SimConfig(n_paths=2048, n_steps=2000, seed=2)
        gain = constant_gain(0.5, 0.0, 2000)
        peak = peak_traced_bytes(lambda: estimate_cost_streaming(gain, LqrParams(), config))
        assert peak <= 1.2 * 2048 * montecarlo._SEGMENT * 8

    def test_antithetic_chunk_mirrors_its_noise_in_place(self):
        # one noise buffer (1.04 with the kernel's state and its one control
        # array; 1.20 with a 32-step block of controls): each stream is drawn
        # into a pair's even column and mirrored into its odd one
        n_steps = 200
        config = SimConfig(n_paths=_CHUNK, n_steps=n_steps, seed=2, antithetic=True)
        gain = constant_gain(0.5, 0.0, n_steps)
        peak = peak_traced_bytes(lambda: estimate_cost_streaming(gain, LqrParams(), config))
        assert peak <= 1.1 * _CHUNK * n_steps * 8


class TestEulerConvergence:
    def test_first_order_in_the_step_size(self):
        # constant gain turns the drift into x' = lam*x + d with a known flow;
        # vanishing sigma makes the scheme deterministic
        params = LqrParams(sigma=1e-300)
        lam = params.a_bar - params.b_bar * 0.3
        d = -params.b_bar * 0.1
        exact_terminal = (params.x0 + d / lam) * np.exp(lam * params.horizon) - d / lam
        errors = []
        for n in (50, 100, 200):
            gain = constant_gain(0.3, 0.1, n)
            states, _ = simulate_paths(gain, params, SimConfig(n_paths=1, n_steps=n, seed=0))
            errors.append(abs(states[0, -1] - exact_terminal))
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all(orders > 0.9)
        assert np.all(orders < 1.1)
