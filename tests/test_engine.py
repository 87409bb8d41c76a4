"""Tests for the process-sharded generation engine."""

import os
import queue
import signal
from collections import OrderedDict

import numpy as np
import pytest

from repro.core.parallel import ParallelExpanderPRNG
from repro.core.streams import derive_seed
from repro.engine import EngineConfig, ShardedEngine, serial_reference
from repro.engine.sharded import _make_feed
from repro.resilience.errors import WorkerFailedError
from repro.serve.session import SessionStream

CONFIG = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=2)


def kill_shard(eng, i):
    proc = eng._procs[i]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=5)
    assert not proc.is_alive()


class TestConfig:
    def test_defaults_validate(self):
        EngineConfig()

    def test_bad_policy_rejected(self):
        """Every engine bank walks the windowed 'mod' stream: the
        config has no policy field to set."""
        for policy in ("bogus", "mod"):
            with pytest.raises(TypeError, match="policy"):
                EngineConfig(policy=policy)

    def test_reject_policy_not_addressable(self):
        """'reject' consumes data-dependent chunks: engine refuses it."""
        with pytest.raises(TypeError, match="policy"):
            EngineConfig(policy="reject")

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(shards=0)
        with pytest.raises(ValueError):
            EngineConfig(lanes=0)
        with pytest.raises(ValueError):
            EngineConfig(ring_slots=-1)
        with pytest.raises(ValueError):
            EngineConfig(fetch_timeout_s=0)

    def test_config_and_overrides_exclusive(self):
        with pytest.raises(TypeError, match="either a config"):
            ShardedEngine(EngineConfig(), shards=2)


class TestBulkStream:
    def test_matches_serial_reference(self):
        ref = serial_reference(CONFIG, 200)
        with ShardedEngine(CONFIG) as eng:
            np.testing.assert_array_equal(eng.generate(200), ref)

    def test_round_is_shard_major(self):
        """Round r of the stream = shard 0's round r, then shard 1's."""
        banks = [
            ParallelExpanderPRNG(
                num_threads=CONFIG.lanes,
                bit_source=_make_feed(CONFIG, derive_seed(CONFIG.seed, i)),
                policy="mod",
            )
            for i in range(2)
        ]
        with ShardedEngine(CONFIG) as eng:
            round0 = eng.generate(16)
        np.testing.assert_array_equal(round0[:8], banks[0].next_round())
        np.testing.assert_array_equal(round0[8:], banks[1].next_round())

    def test_negative_count_rejected(self):
        with ShardedEngine(CONFIG) as eng:
            with pytest.raises(ValueError):
                eng.generate(-1)

    def test_serve_only_pool_has_no_bulk_stream(self):
        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=0)
        with ShardedEngine(cfg) as eng:
            with pytest.raises(RuntimeError, match="serve-only"):
                eng.generate(16)
            # ...but named streams still work.
            assert eng.fetch_stream(5, 4, 12).size == 12


class TestNamedStreams:
    def test_matches_in_process_bank(self):
        """A stream fetch is byte-identical to the same bank run locally."""
        seed, lanes = 41, 16
        local = ParallelExpanderPRNG(
            num_threads=lanes, bit_source=_make_feed(CONFIG, seed),
            policy="mod",
        )
        with ShardedEngine(CONFIG) as eng:
            np.testing.assert_array_equal(
                eng.fetch_stream(seed, lanes, 100), local.generate(100)
            )

    def test_explicit_offset_fetch(self):
        """fetch_stream(offset=...) serves any slice, even backwards."""
        seed, lanes = 41, 16
        local = ParallelExpanderPRNG(
            num_threads=lanes, bit_source=_make_feed(CONFIG, seed),
            policy="mod",
        )
        ref = local.generate(200)
        with ShardedEngine(CONFIG) as eng:
            np.testing.assert_array_equal(
                eng.fetch_stream(seed, lanes, 50, offset=120), ref[120:170]
            )
            # Default continues from where the explicit fetch ended.
            np.testing.assert_array_equal(
                eng.fetch_stream(seed, lanes, 30), ref[170:200]
            )
            # Backwards slice: no replay machinery, just a seek.
            np.testing.assert_array_equal(
                eng.fetch_stream(seed, lanes, 40, offset=7), ref[7:47]
            )

    def test_streams_are_independent(self):
        with ShardedEngine(CONFIG) as eng:
            a = eng.fetch_stream(6, 8, 64)
            b = eng.fetch_stream(7, 8, 64)
        assert not np.array_equal(a, b)

    def test_routing_is_stable(self):
        with ShardedEngine(CONFIG) as eng:
            assert eng.stream_shard(6) == 0
            assert eng.stream_shard(7) == 1

    def test_bad_lane_count_rejected(self):
        with ShardedEngine(CONFIG) as eng:
            with pytest.raises(ValueError):
                eng.fetch_stream(1, 0, 16)


class TestWorkerStreamCache:
    def test_named_stream_cache_is_bounded(self, monkeypatch):
        """More distinct streams than the cap, through the worker's
        fetch path: at most the cap stay cached, and every word equals a
        fresh in-process bank at the same offset (an evicted bank is
        rebuilt and seeks)."""
        import repro.engine.sharded as sharded_mod

        monkeypatch.setattr(sharded_mod, "MAX_WORKER_STREAMS", 3)
        cfg = EngineConfig(seed=3, shards=1, lanes=8, ring_slots=0)
        streams, resp = OrderedDict(), queue.Queue()
        served = {}
        # One fetchv round each; the last round alone names 5 streams,
        # and streams 0 and 1 come back after being evicted.
        rounds = [[0], [1], [2], [3], [4], [0], [5], [1],
                  [10, 11, 12, 13, 14]]
        for seeds in rounds:
            spans = [(seed, 8, served.get(seed, 0), 13) for seed in seeds]
            sharded_mod._serve_request(("fetchv", [spans]), streams, cfg,
                                       resp)
            status, (buf, metas) = resp.get_nowait()
            assert status == "okv" and metas == [13] * len(spans)
            assert len(streams) <= 3
            for i, (seed, lanes, start, n) in enumerate(spans):
                fresh = ParallelExpanderPRNG(
                    num_threads=lanes, bit_source=_make_feed(cfg, seed),
                    policy="mod",
                )
                np.testing.assert_array_equal(
                    buf[i * n:(i + 1) * n], fresh.generate(start + n)[start:]
                )
                served[seed] = start + n
        assert list(streams) == [(12, 8), (13, 8), (14, 8)]


class TestServeIntegration:
    def test_engine_backed_session_matches_in_process(self):
        """Moving a session onto the shard pool changes no values."""
        local = SessionStream("alice", master_seed=9, lanes=16)
        with ShardedEngine(
            EngineConfig(seed=9, shards=2, lanes=8, ring_slots=0)
        ) as eng:
            remote = SessionStream("alice", master_seed=9, lanes=16,
                                   engine=eng)
            np.testing.assert_array_equal(
                np.concatenate([remote.generate(40), remote.generate(60)]),
                local.generate(100),
            )
            assert remote.health == "OK"
            desc = remote.describe()
        assert desc["active_source"].startswith("engine-shard-")
        assert desc["words_served"] == 100


class TestFailure:
    def test_dead_shard_raises_worker_failed(self):
        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=2,
                           fetch_timeout_s=3.0)
        with ShardedEngine(cfg) as eng:
            eng.generate(16)
            kill_shard(eng, 1)
            with pytest.raises(WorkerFailedError) as err:
                eng.generate(200)
            assert err.value.worker_index == 1
            assert eng.health == "FAILED"

    def test_bulk_restart_is_deterministic(self):
        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=2,
                           fetch_timeout_s=3.0, auto_restart=True)
        # The shard may fill its whole ring before the kill lands; a
        # tail longer than every buffered word forces the respawn.
        buffered = cfg.ring_slots * cfg.ring_burst * cfg.shards * cfg.lanes
        n_tail = buffered + 100
        ref = serial_reference(cfg, 50 + n_tail)
        with ShardedEngine(cfg) as eng:
            head = eng.generate(50)
            kill_shard(eng, 1)
            tail = eng.generate(n_tail)
            assert eng.restarts >= 1
            assert eng.health == "DEGRADED"
        np.testing.assert_array_equal(np.concatenate([head, tail]), ref)

    def test_stream_restart_is_deterministic(self):
        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=0,
                           fetch_timeout_s=3.0, auto_restart=True)
        seed, lanes = 40, 8  # seed % 2 == 0: shard 0 owns the stream
        local = ParallelExpanderPRNG(
            num_threads=lanes, bit_source=_make_feed(cfg, seed),
            policy="mod",
        )
        with ShardedEngine(cfg) as eng:
            head = eng.fetch_stream(seed, lanes, 30)
            kill_shard(eng, 0)
            tail = eng.fetch_stream(seed, lanes, 70)
        np.testing.assert_array_equal(
            np.concatenate([head, tail]), local.generate(100)
        )


class TestRingBursts:
    """Burst framing is transport-only: values, restarts and geometry
    must be invariant in ``ring_burst``."""

    def test_effective_burst_geometry(self):
        from repro.engine.sharded import MAX_ROUND_WORDS, _effective_burst

        assert _effective_burst(
            EngineConfig(seed=1, shards=1, lanes=8, ring_burst=8)
        ) == 8
        # Huge lanes: capped so one burst still fits a worker message.
        big = EngineConfig(
            seed=1, shards=1, lanes=MAX_ROUND_WORDS // 2, ring_burst=8
        )
        assert _effective_burst(big) == 2
        # Never below one round per slot.
        giant = EngineConfig(
            seed=1, shards=1, lanes=MAX_ROUND_WORDS, ring_burst=8
        )
        assert _effective_burst(giant) == 1

    def test_bad_burst_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(seed=1, shards=1, lanes=8, ring_burst=0)

    @pytest.mark.parametrize("burst", [1, 3, 8])
    def test_bulk_stream_invariant_in_burst(self, burst):
        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=2,
                           ring_burst=burst)
        ref = serial_reference(cfg, 200)
        with ShardedEngine(cfg) as eng:
            assert eng.describe()["ring_burst"] == burst
            np.testing.assert_array_equal(eng.generate(200), ref)

    def test_restart_mid_burst_is_deterministic(self):
        """Kill a shard part-way through consuming a burst: the revived
        worker must resume at the next *round*, not the next burst."""
        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=2,
                           ring_burst=4, fetch_timeout_s=3.0,
                           auto_restart=True)
        ref = serial_reference(cfg, 400)
        with ShardedEngine(cfg) as eng:
            # 88 words = 5.5 rounds/shard: shard cursors stop mid-burst.
            head = eng.generate(88)
            kill_shard(eng, 1)
            tail = eng.generate(312)
            assert eng.restarts >= 1
        np.testing.assert_array_equal(np.concatenate([head, tail]), ref)


class TestIntrospection:
    def test_ping(self):
        with ShardedEngine(CONFIG) as eng:
            assert eng.ping(0) and eng.ping(1)

    def test_describe(self):
        with ShardedEngine(CONFIG) as eng:
            eng.generate(16)
            eng.fetch_stream(1, 4, 8)
            doc = eng.describe()
        assert doc["shards"] == 2
        assert doc["lanes_per_shard"] == 8
        assert doc["rounds_assembled"] >= 1
        assert doc["streams"] == 1
        assert doc["health"] == "OK"

    def test_close_is_idempotent(self):
        eng = ShardedEngine(CONFIG)
        eng.close()
        eng.close()
        assert eng.shards_alive == [False, False]


class TestFetchSpans:
    def test_multi_span_round_matches_per_stream_references(self):
        """One fused fetch_spans call serves many streams across both
        shards, each byte-identical to its in-process bank."""
        streams = [(40, 8), (41, 16), (42, 8), (43, 4)]
        locals_ = {
            (seed, lanes): ParallelExpanderPRNG(
                num_threads=lanes, bit_source=_make_feed(CONFIG, seed),
                policy="mod",
            )
            for seed, lanes in streams
        }
        spans = [
            (seed, lanes, None, 50 + 10 * i)
            for i, (seed, lanes) in enumerate(streams)
        ]
        with ShardedEngine(CONFIG) as eng:
            results = eng.fetch_spans(spans)
        for (seed, lanes, _off, n), got in zip(spans, results):
            assert isinstance(got, np.ndarray), got
            np.testing.assert_array_equal(
                got, locals_[(seed, lanes)].generate(n)
            )

    def test_same_stream_spans_are_contiguous(self):
        """Two offset=None spans of one stream in a single batch
        continue each other, and fetch_stream continues after both."""
        seed, lanes = 41, 8
        local = ParallelExpanderPRNG(
            num_threads=lanes, bit_source=_make_feed(CONFIG, seed),
            policy="mod",
        )
        ref = local.generate(120)
        with ShardedEngine(CONFIG) as eng:
            a, b = eng.fetch_spans(
                [(seed, lanes, None, 30), (seed, lanes, None, 50)]
            )
            np.testing.assert_array_equal(a, ref[:30])
            np.testing.assert_array_equal(b, ref[30:80])
            np.testing.assert_array_equal(
                eng.fetch_stream(seed, lanes, 40), ref[80:120]
            )

    def test_explicit_offsets_and_word_cap(self):
        """Spans bigger than the per-round word cap split into multiple
        capped rounds without changing a byte."""
        import repro.engine.sharded as sharded_mod

        seed, lanes = 40, 8
        local = ParallelExpanderPRNG(
            num_threads=lanes, bit_source=_make_feed(CONFIG, seed),
            policy="mod",
        )
        ref = local.generate(600)
        old_cap = sharded_mod.MAX_ROUND_WORDS
        sharded_mod.MAX_ROUND_WORDS = 100
        try:
            with ShardedEngine(CONFIG) as eng:
                results = eng.fetch_spans(
                    [
                        (seed, lanes, 100, 80),
                        (seed, lanes, 0, 90),
                        (seed, lanes, 300, 300),
                    ]
                )
        finally:
            sharded_mod.MAX_ROUND_WORDS = old_cap
        np.testing.assert_array_equal(results[0], ref[100:180])
        np.testing.assert_array_equal(results[1], ref[0:90])
        np.testing.assert_array_equal(results[2], ref[300:600])

    def test_empty_and_invalid_spans(self):
        with ShardedEngine(CONFIG) as eng:
            assert eng.fetch_spans([]) == []
            with pytest.raises(ValueError):
                eng.fetch_spans([(1, 0, None, 8)])
            with pytest.raises(ValueError):
                eng.fetch_spans([(1, 4, None, -1)])
            with pytest.raises(ValueError):
                eng.fetch_spans([(1, 4, -5, 8)])

    def test_restart_mid_spans_is_deterministic(self):
        """A shard killed before a fused round is re-served exactly
        (absolute offsets make the retry byte-identical)."""
        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=0,
                           fetch_timeout_s=3.0, auto_restart=True)
        seed, lanes = 40, 8  # shard 0 owns the stream
        local = ParallelExpanderPRNG(
            num_threads=lanes, bit_source=_make_feed(cfg, seed),
            policy="mod",
        )
        ref = local.generate(100)
        with ShardedEngine(cfg) as eng:
            head = eng.fetch_spans([(seed, lanes, None, 30)])[0]
            kill_shard(eng, 0)
            tail = eng.fetch_spans(
                [(seed, lanes, None, 40), (seed, lanes, None, 30)]
            )
            assert eng.restarts >= 1
        np.testing.assert_array_equal(head, ref[:30])
        np.testing.assert_array_equal(tail[0], ref[30:70])
        np.testing.assert_array_equal(tail[1], ref[70:100])
