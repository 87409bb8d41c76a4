"""Cross-module integration tests: the full stack working together."""

import numpy as np
import pytest

from repro.apps.listranking import (
    OnDemandBits,
    random_list,
    rank_list_hybrid,
    serial_ranks,
)
from repro.apps.photon import MCPhotonMigration, three_layer_skin
from repro.baselines.hybrid_adapter import HybridPRNG
from repro.bitsource import BufferedFeed, GlibcRandom, SplitMix64Source
from repro.core.parallel import ParallelExpanderPRNG
from repro.gpusim.pipeline import PipelineConfig, simulate_pipeline
from repro.hybrid.scheduler import HybridScheduler
from repro.hybrid.throughput import hybrid_time_ns
from repro.quality.crush import run_smallcrush
from repro.quality.diehard import birthday_spacings


class TestFullPipeline:
    def test_paper_configuration_end_to_end(self):
        """glibc feed -> buffered queue -> walkers -> quality probe."""
        feed = BufferedFeed(GlibcRandom(1), batch_words=1 << 12)
        prng = ParallelExpanderPRNG(num_threads=2048, bit_source=feed)
        gen = HybridPRNG(seed=1, num_threads=2048)  # same structure
        res = birthday_spacings(gen, n_samples=80)
        assert res.passed
        vals = prng.generate(10_000)
        assert np.unique(vals).size == 10_000
        assert feed.stats.snapshot()["words_consumed"] > 0

    def test_scheduler_prediction_matches_closed_form(self):
        with HybridScheduler(seed=2, bit_source=SplitMix64Source(2),
                             max_threads=512) as sched:
            plan = sched.plan(10**6)
            pred = sched.predict(plan)
            cfg = PipelineConfig(total_numbers=10**6,
                                 batch_size=plan.batch_size)
            assert pred.total_ns == pytest.approx(hybrid_time_ns(cfg))

    def test_simulated_and_functional_workloads_agree_on_structure(self):
        """The DES pipeline iteration count equals the plan's."""
        cfg = PipelineConfig(total_numbers=50_000, batch_size=50)
        res = simulate_pipeline(cfg)
        gens = [iv for iv in res.timeline.intervals
                if iv.device == "GPU" and iv.label.startswith("GENERATE")]
        assert len(gens) == cfg.iterations


class TestApplicationsShareTheGenerator:
    def test_one_prng_drives_both_applications(self):
        """A single hybrid PRNG instance serves list ranking then MC."""
        prng = ParallelExpanderPRNG(num_threads=2048,
                                    bit_source=SplitMix64Source(9))
        lst = random_list(5000, np.random.Generator(np.random.PCG64(1)))
        res = rank_list_hybrid(lst, OnDemandBits(prng))
        assert np.array_equal(res.ranks, serial_ranks(lst))

        gen = HybridPRNG(seed=9, num_threads=2048)
        sim = MCPhotonMigration(three_layer_skin(), gen, batch_size=3000)
        out = sim.run(3000)
        assert out.tally.energy_balance_error() < 1e-9

    @pytest.mark.parametrize("policy", ["reject", "mod"])
    def test_smallcrush_on_the_paper_generator(self, policy):
        gen = HybridPRNG(seed=4, num_threads=1 << 13, policy=policy)
        res = run_smallcrush(gen, scale=0.25)
        assert res.num_passed >= 13
