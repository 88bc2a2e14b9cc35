"""Tests for stratified Monte-Carlo estimation."""

import numpy as np
import pytest

from repro.encounters import StatisticalEncounterModel
from repro.montecarlo.stratified import STRATA, StratifiedEstimator
from repro.sim.encounter import EncounterSimConfig


@pytest.fixture(scope="module")
def report(test_table):
    estimator = StratifiedEstimator(
        test_table,
        StatisticalEncounterModel(),
        sim_config=EncounterSimConfig(),
        runs_per_encounter=4,
    )
    return estimator.estimate(encounters_per_stratum=12, seed=0, pilot=300)


class TestStratifiedEstimator:
    def test_validation(self, test_table):
        source = StatisticalEncounterModel()
        with pytest.raises(ValueError):
            StratifiedEstimator(test_table, source, runs_per_encounter=0)
        estimator = StratifiedEstimator(test_table, source)
        with pytest.raises(ValueError):
            estimator.estimate(0)

    def test_all_strata_estimated(self, report):
        assert [s.name for s in report.strata] == list(STRATA)
        for stratum in report.strata:
            assert stratum.encounters == 12
            assert 0.0 <= stratum.nmac.rate <= 1.0

    def test_weights_form_distribution(self, report):
        total = sum(s.weight for s in report.strata)
        assert total == pytest.approx(1.0)

    def test_combined_rate_is_weighted_mixture(self, report):
        expected = sum(s.weight * s.nmac.rate for s in report.strata)
        assert report.combined_rate == pytest.approx(expected)

    def test_tail_stratum_is_riskiest(self, report):
        rates = {s.name: s.nmac.rate for s in report.strata}
        # The paper's finding must show up per-stratum: tail approaches
        # carry the highest equipped NMAC rate.
        assert rates["tail-approach"] >= rates["head-on"]

    def test_errors_positive_and_reduction_reported(self, report):
        assert report.combined_std_error >= 0.0
        assert report.naive_std_error >= report.combined_std_error * 0.5
        assert report.variance_reduction > 0.0

    def test_summary_text(self, report):
        text = report.summary()
        assert "combined NMAC rate" in text
        assert "variance reduction" in text

    def test_deterministic_given_seed(self, test_table):
        estimator = StratifiedEstimator(
            test_table,
            StatisticalEncounterModel(),
            runs_per_encounter=2,
        )
        a = estimator.estimate(4, seed=7, pilot=100)
        b = estimator.estimate(4, seed=7, pilot=100)
        assert a.combined_rate == b.combined_rate

    def test_shared_generator_stream_is_pinned(self, test_table):
        # estimate() threads the caller's Generator through sampling and
        # every simulator call, so this pins that shared stream: the
        # combined rate, each stratum's NMAC count and where the
        # caller's generator is left.  The values were generated while
        # BatchEncounterSimulator.run still had its own inline-draw
        # stepping loop; the golden corpus only covers fresh
        # per-scenario seeds.
        estimator = StratifiedEstimator(
            test_table,
            StatisticalEncounterModel(),
            sim_config=EncounterSimConfig(),
            runs_per_encounter=5,
        )
        rng = np.random.default_rng(2)
        report = estimator.estimate(10, seed=rng, pilot=200)
        assert report.combined_rate == 0.021500000000000002
        assert [
            (s.name, s.nmac.successes, s.nmac.trials) for s in report.strata
        ] == [
            ("head-on", 0, 50), ("crossing", 0, 50), ("tail-approach", 5, 50)
        ]
        assert int(rng.integers(0, 2**63)) == 3323306097847225916
