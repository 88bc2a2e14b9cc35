"""Tests for the persistent campaign result store (`repro.store`).

Covers the content-addressed :class:`CampaignSpec` identity, sqlite
roundtrips, the resume/dedup contract of ``Campaign.run(store=...)`` /
``iter_records(store=...)`` — an interrupted campaign resumed from the
store must be bitwise identical to an uninterrupted run, and a
completed spec must re-run with zero new simulations — plus the
lossless seed-entropy export, cross-campaign queries/diffs, and the
pipelines (Monte-Carlo, search) that log through the store.
"""

import json
from itertools import islice

import numpy as np
import pytest

from repro.encounters import StatisticalEncounterModel, head_on_encounter
from repro.experiments import Campaign, ResultSet, SampledSource
from repro.montecarlo import MonteCarloEstimator
from repro.search.ga import GAConfig
from repro.search.runner import SearchRunner
from repro.store import ResultStore


@pytest.fixture
def store():
    with ResultStore(":memory:") as result_store:
        yield result_store


def make_campaign(table, scenarios=6, runs=4):
    return Campaign(
        SampledSource(StatisticalEncounterModel(), scenarios),
        table=table,
        runs_per_scenario=runs,
    )


def assert_records_identical(a: ResultSet, b: ResultSet) -> None:
    """Bitwise equality of two result sets' records."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.index == rb.index
        assert ra.name == rb.name
        assert ra.params == rb.params
        for field in (
            "min_separation",
            "min_horizontal",
            "nmac",
            "own_alerted",
            "intruder_alerted",
        ):
            np.testing.assert_array_equal(
                getattr(ra.runs, field), getattr(rb.runs, field)
            )


class TestCampaignSpec:
    def _spec(self, campaign, seed):
        return campaign.plan(seed).spec

    def test_identity_is_stable(self, test_table):
        a = self._spec(make_campaign(test_table), 7)
        b = self._spec(make_campaign(test_table), 7)
        assert a.campaign_id == b.campaign_id

    def test_identity_covers_every_input(self, test_table):
        base = self._spec(make_campaign(test_table), 7)
        assert self._spec(make_campaign(test_table), 8) != base
        assert (
            self._spec(make_campaign(test_table, scenarios=5), 7).campaign_id
            != base.campaign_id
        )
        assert (
            self._spec(make_campaign(test_table, runs=5), 7).campaign_id
            != base.campaign_id
        )
        unequipped = Campaign(
            SampledSource(StatisticalEncounterModel(), 6),
            equipage="none",
            runs_per_scenario=4,
        )
        assert self._spec(unequipped, 7).campaign_id != base.campaign_id

    def test_spawned_seeds_are_distinct_campaigns(self, test_table, store):
        # Children of one SeedSequence share its entropy and differ
        # only in spawn_key; each must be its own campaign, or a
        # "resume" would return another seed's results.  Fresh child
        # objects throughout: planning spawns from the sequence, and
        # the spawn counter is part of the identity too.
        def child(i):
            return np.random.SeedSequence(42).spawn(2)[i]

        spec_a = self._spec(make_campaign(test_table), child(0))
        spec_b = self._spec(make_campaign(test_table), child(1))
        assert spec_a.campaign_id != spec_b.campaign_id

        make_campaign(test_table, scenarios=2, runs=2).run(
            seed=child(0), store=store
        )
        run_b = make_campaign(test_table, scenarios=2, runs=2).run(
            seed=child(1), store=store
        )
        assert run_b.metadata["simulated"] == 2  # no false resume
        baseline_b = make_campaign(test_table, scenarios=2, runs=2).run(
            seed=child(1)
        )
        assert_records_identical(run_b, baseline_b)
        # Same child re-derived: a genuine resume.
        again = make_campaign(test_table, scenarios=2, runs=2).run(
            seed=child(1), store=store
        )
        assert again.metadata["simulated"] == 0

    def test_entropy_hashes_as_decimal_string(self, test_table):
        # 128-bit entropy must contribute its exact value to the id.
        big = 2**80 + 1
        near = 2**80  # same float64, different int
        assert float(big) == float(near)
        spec_a = self._spec(make_campaign(test_table), big)
        spec_b = self._spec(make_campaign(test_table), near)
        assert spec_a.campaign_id != spec_b.campaign_id


class TestStoreRoundtrip:
    def test_ingest_and_reconstruct(self, test_table, store):
        results = make_campaign(test_table).run(seed=3)
        campaign_id = store.ingest(results, label="unit")
        rebuilt = store.resultset(campaign_id)
        assert_records_identical(results, rebuilt)
        assert rebuilt.backend == results.backend
        assert rebuilt.equipage == results.equipage
        assert rebuilt.coordination == results.coordination
        assert rebuilt.runs_per_scenario == results.runs_per_scenario
        assert rebuilt.seed_entropy == results.seed_entropy
        assert rebuilt.workers == results.workers
        assert rebuilt.metadata["label"] == "unit"
        assert rebuilt.aggregates()["nmac_rate"] == pytest.approx(
            results.aggregates()["nmac_rate"]
        )

    def test_different_outcomes_never_alias_on_ingest(
        self, test_table, store
    ):
        # The ingest path cannot see the logic table, so identical
        # provenance with different outcomes (e.g. a re-solved table)
        # must land as a separate campaign, not dedup into stale rows.
        results = make_campaign(test_table).run(seed=3)
        first = store.ingest(results, label="original")
        tweaked = make_campaign(test_table).run(seed=3)
        tweaked.records[0].runs.min_separation[0] += 1.0
        second = store.ingest(tweaked, label="changed-table")
        assert first != second
        assert len(store.campaigns()) == 2
        np.testing.assert_array_equal(
            store.resultset(first)[0].runs.min_separation,
            results[0].runs.min_separation,
        )

    def test_reingest_dedups_to_same_campaign(self, test_table, store):
        results = make_campaign(test_table).run(seed=3)
        first = store.ingest(results, label="unit")
        second = store.ingest(results, label="unit")
        assert first == second
        assert len(store.campaigns()) == 1
        assert len(store.records(first)) == len(results)

    def test_add_record_dedup(self, test_table, store):
        results = make_campaign(test_table).run(seed=3)
        campaign_id = store.ingest(results, label="unit")
        assert store.add_record(campaign_id, results[0]) is False
        assert store.get_campaign(campaign_id).completed == len(results)

    def test_prefix_resolution(self, test_table, store):
        results = make_campaign(test_table).run(seed=3)
        campaign_id = store.ingest(results)
        assert store.resolve(campaign_id[:10]) == campaign_id
        with pytest.raises(KeyError, match="no campaign"):
            store.resolve("feedc0ffee")

    def test_export_parity_with_direct_tojson(
        self, test_table, store, tmp_path
    ):
        results = make_campaign(test_table).run(seed=3)
        campaign_id = store.ingest(results)
        direct = json.loads(
            results.to_json(tmp_path / "direct.json").read_text()
        )
        exported = json.loads(
            store.export_json(campaign_id, tmp_path / "stored.json")
            .read_text()
        )
        assert exported["scenarios"] == direct["scenarios"]
        for key in ("backend", "equipage", "coordination",
                    "runs_per_scenario", "seed_entropy"):
            assert exported[key] == direct[key]
        direct_csv = results.to_csv(tmp_path / "direct.csv").read_text()
        stored_csv = store.export_csv(
            campaign_id, tmp_path / "stored.csv"
        ).read_text()
        assert stored_csv == direct_csv

    def test_cross_campaign_record_query(self, test_table, store):
        store.ingest(make_campaign(test_table).run(seed=3), label="a")
        store.ingest(make_campaign(test_table).run(seed=4), label="b")
        everywhere = store.records()
        assert len(everywhere) == 12
        assert len({r.campaign_id for r in everywhere}) == 2
        risky = store.records(where="nmac_rate > ?", params=(0.0,))
        assert all(r.record.nmac_rate > 0.0 for r in risky)


class TestSeedEntropyProvenance:
    def test_big_entropy_roundtrips_losslessly(self, test_table, store):
        # SeedSequence default entropy is 128-bit; 2^80 + 1 would be
        # silently truncated by any float path.
        entropy = 2**80 + 1
        assert float(entropy) == float(entropy - 1)  # beyond float53
        results = make_campaign(
            test_table, scenarios=2, runs=2
        ).run(seed=np.random.SeedSequence(entropy))
        assert results.seed_entropy == entropy
        campaign_id = store.ingest(results)
        assert store.resultset(campaign_id).seed_entropy == entropy

    def test_to_json_exports_entropy_as_string(
        self, test_table, tmp_path
    ):
        entropy = 2**80 + 1
        results = make_campaign(test_table, scenarios=2, runs=2).run(
            seed=np.random.SeedSequence(entropy)
        )
        payload = json.loads(
            results.to_json(tmp_path / "c.json").read_text()
        )
        assert payload["seed_entropy"] == str(entropy)
        assert ResultSet.parse_seed_entropy(
            payload["seed_entropy"]
        ) == entropy

    def test_parse_seed_entropy_rejects_float(self):
        assert ResultSet.parse_seed_entropy(None) is None
        assert ResultSet.parse_seed_entropy(17) == 17
        assert ResultSet.parse_seed_entropy("17") == 17
        with pytest.raises(TypeError, match="float"):
            ResultSet.parse_seed_entropy(float(2**80))


class TestResumeAndDedup:
    def test_interrupted_campaign_resumes_bitwise_identical(
        self, test_table, store
    ):
        baseline = make_campaign(test_table).run(seed=2016)

        # Kill the campaign mid-stream: consume three records through a
        # store-backed stream (each persisted before being yielded),
        # then abandon the iterator.
        stream = make_campaign(test_table).iter_records(
            seed=2016, store=store, chunk_size=1
        )
        consumed = list(islice(stream, 3))
        stream.close()
        assert len(consumed) == 3
        partial = store.campaigns()[0]
        assert 0 < partial.completed < len(baseline)

        # Re-running the same spec simulates only the missing tail...
        resumed = make_campaign(test_table).run(seed=2016, store=store)
        assert resumed.metadata["loaded"] == partial.completed
        assert (
            resumed.metadata["simulated"]
            == len(baseline) - partial.completed
        )
        # ...and the merged result is bitwise identical to the
        # uninterrupted storeless run.
        assert_records_identical(baseline, resumed)

    def test_completed_spec_reruns_with_zero_simulations(
        self, test_table, store
    ):
        first = make_campaign(test_table).run(seed=2016, store=store)
        assert first.metadata["simulated"] == len(first)
        again = make_campaign(test_table).run(seed=2016, store=store)
        assert again.metadata["simulated"] == 0
        assert again.metadata["loaded"] == len(first)
        assert_records_identical(first, again)

    def test_different_seed_is_a_different_campaign(
        self, test_table, store
    ):
        make_campaign(test_table).run(seed=1, store=store)
        other = make_campaign(test_table).run(seed=2, store=store)
        assert other.metadata["simulated"] == len(other)
        assert len(store.campaigns()) == 2

    def test_streaming_resume_merges_in_index_order(
        self, test_table, store
    ):
        # Persist a strided subset, then stream the full campaign.
        campaign = make_campaign(test_table)
        full = campaign.run(seed=5)
        stream = campaign.iter_records(seed=5, store=store, chunk_size=1)
        kept = [next(stream) for _ in range(2)]
        stream.close()
        merged = list(campaign.iter_records(seed=5, store=store))
        assert [r.index for r in merged] == list(range(len(full)))
        assert_records_identical(
            full,
            ResultSet(
                records=merged,
                backend=full.backend,
                equipage=full.equipage,
                coordination=full.coordination,
                runs_per_scenario=full.runs_per_scenario,
            ),
        )

    @pytest.mark.slow
    def test_resume_through_parallel_path(self, test_table, store):
        def campaign():
            return make_campaign(test_table)

        baseline = campaign().run(seed=2016, chunk_size=1)
        stream = campaign().iter_records(
            seed=2016, store=store, chunk_size=1
        )
        list(islice(stream, 3))
        stream.close()
        resumed = campaign().run(
            seed=2016, store=store, workers=4, chunk_size=1
        )
        assert resumed.metadata["simulated"] == len(baseline) - 3
        assert_records_identical(baseline, resumed)
        # And a full re-run through the pool is also zero simulations.
        again = campaign().run(
            seed=2016, store=store, workers=4, chunk_size=1
        )
        assert again.metadata["simulated"] == 0
        assert_records_identical(baseline, again)


class TestCrossCampaignDiff:
    def test_equipped_vs_unequipped(self, test_table, store):
        scenarios = SampledSource(StatisticalEncounterModel(), 4)
        equipped = Campaign(
            scenarios, table=test_table, runs_per_scenario=4
        ).run(seed=9, store=store)
        unequipped = Campaign(
            scenarios, equipage="none", runs_per_scenario=4
        ).run(seed=9, store=store)
        diff = store.diff(
            equipped.metadata["campaign_id"],
            unequipped.metadata["campaign_id"],
        )
        # Same seed, same scenario list: the diff pairs per scenario.
        assert len(diff.paired_nmac) == 4
        assert diff.aggregates_b["nmac_rate"] >= diff.aggregates_a[
            "nmac_rate"
        ]
        text = diff.summary()
        assert "nmac_rate" in text
        assert "paired scenarios: 4" in text


class TestPipelinesLogThroughStore:
    def test_montecarlo_logs_both_arms(self, test_table, store):
        estimator = MonteCarloEstimator(
            test_table,
            StatisticalEncounterModel(),
            runs_per_encounter=2,
            store=store,
        )
        report = estimator.estimate(3, seed=0)
        campaigns = store.campaigns()
        assert len(campaigns) == 2
        assert {c.equipage for c in campaigns} == {"both", "none"}
        assert all(c.complete for c in campaigns)
        # Re-estimating with the same seed resumes both arms entirely.
        rerun = MonteCarloEstimator(
            test_table,
            StatisticalEncounterModel(),
            runs_per_encounter=2,
            store=store,
        ).estimate(3, seed=0)
        assert rerun.equipped_results.metadata["simulated"] == 0
        assert rerun.unequipped_results.metadata["simulated"] == 0
        assert rerun.risk_ratio == pytest.approx(report.risk_ratio)

    def test_search_logs_generation_campaigns(self, test_table, store):
        runner = SearchRunner(
            test_table,
            ga_config=GAConfig(population_size=6, generations=2),
            num_runs=2,
            store=store,
        )
        runner.run(seed=0, top_k=2)
        campaigns = store.campaigns()
        assert len(campaigns) >= 2  # one fitness campaign per generation
        assert all(c.complete for c in campaigns)


class TestStoreMisc:
    def test_explicit_campaign_roundtrip(self, test_table, store):
        results = Campaign(
            [head_on_encounter()], table=test_table, runs_per_scenario=3
        ).run(seed=0, store=store)
        rebuilt = store.resultset(results.metadata["campaign_id"])
        assert_records_identical(results, rebuilt)

    def test_wall_time_counts_only_simulating_runs(
        self, test_table, store
    ):
        results = make_campaign(test_table, scenarios=2, runs=2).run(
            seed=0, store=store
        )
        info = store.get_campaign(results.metadata["campaign_id"])
        assert info.wall_time > 0.0
        assert info.cpu_count is not None
        assert info.metadata["workers"] == 1
        # A pure-load resume performs no simulation and must leave the
        # stored timing untouched.
        make_campaign(test_table, scenarios=2, runs=2).run(
            seed=0, store=store
        )
        again = store.get_campaign(results.metadata["campaign_id"])
        assert again.wall_time == info.wall_time

    def test_sql_aggregates_match_resultset(self, test_table, store):
        results = make_campaign(test_table).run(seed=3, store=store)
        campaign_id = results.metadata["campaign_id"]
        from_sql = store.aggregates(campaign_id)
        reference = results.aggregates()
        for key in ("scenarios", "total_runs", "nmac_count"):
            assert from_sql[key] == reference[key]
        for key in ("nmac_rate", "alert_rate", "mean_min_separation",
                    "worst_min_separation"):
            assert from_sql[key] == pytest.approx(reference[key])

    def test_persistent_store_on_disk(self, test_table, tmp_path):
        path = tmp_path / "nested" / "results.sqlite"
        with ResultStore(path) as store:
            results = make_campaign(test_table, scenarios=2, runs=2).run(
                seed=0, store=store
            )
            campaign_id = results.metadata["campaign_id"]
        with ResultStore(path) as reopened:
            rebuilt = reopened.resultset(campaign_id)
            assert_records_identical(results, rebuilt)


class TestFilterHardening:
    """User-supplied --where filters must stay single expressions.

    ``records(where=...)``/``campaigns(where=...)`` interpolate the
    filter into the query by design (it is an expression over the row
    columns); statement separators and comment sequences are rejected
    up front, and filters that sqlite itself chokes on surface as a
    clean one-line ``ValueError`` instead of a sqlite traceback.
    """

    @pytest.mark.parametrize(
        "where",
        [
            "nmac_rate > 0; DROP TABLE records",
            "nmac_rate > 0 -- comment",
            "nmac_rate > 0 /* block */",
            "nmac_rate > 0 */",
        ],
    )
    def test_multi_statement_and_comment_filters_rejected(
        self, store, where
    ):
        with pytest.raises(ValueError, match="not allowed"):
            store.records(where=where)
        with pytest.raises(ValueError, match="not allowed"):
            store.campaigns(where=where)

    def test_malformed_filter_is_clean_valueerror(self, test_table, store):
        make_campaign(test_table, scenarios=2, runs=2).run(
            seed=0, store=store
        )
        with pytest.raises(ValueError, match="malformed filter"):
            store.records(where="no_such_column > 1")
        with pytest.raises(ValueError, match="malformed filter"):
            store.campaigns(where="equipage ===")

    def test_legitimate_filters_still_work(self, test_table, store):
        results = make_campaign(test_table, scenarios=3, runs=2).run(
            seed=0, store=store
        )
        rows = store.records(where="nmac_rate >= ?", params=(0.0,))
        assert len(rows) == len(results)
        infos = store.campaigns(where="c.equipage = ?", params=("both",))
        assert len(infos) == 1


class TestPagination:
    def test_records_limit_offset_window_the_index_order(
        self, test_table, store
    ):
        make_campaign(test_table, scenarios=5, runs=2).run(seed=0, store=store)
        full = store.records()
        page = store.records(limit=2, offset=1)
        assert [r.index for r in page] == [r.index for r in full[1:3]]
        assert store.records(limit=0) == []
        assert [r.index for r in store.records(offset=4)] == [4]
        assert store.records(offset=99) == []

    def test_campaigns_limit_offset(self, test_table, store):
        for seed in range(3):
            make_campaign(test_table, scenarios=2, runs=2).run(
                seed=seed, store=store
            )
        everything = [c.campaign_id for c in store.campaigns()]
        assert len(everything) == 3
        window = [c.campaign_id for c in store.campaigns(limit=1, offset=1)]
        assert window == everything[1:2]

    def test_negative_limit_and_offset_rejected(self, test_table, store):
        with pytest.raises(ValueError, match="limit"):
            store.records(limit=-1)
        with pytest.raises(ValueError, match="offset"):
            store.campaigns(offset=-1)

    def test_record_rows_match_decoded_records(self, test_table, store):
        results = make_campaign(test_table, scenarios=3, runs=2).run(
            seed=0, store=store
        )
        campaign_id = results.metadata["campaign_id"]
        rows = store.record_rows(campaign_id, limit=2)
        assert len(rows) == 2
        for row, record in zip(rows, results):
            assert row["scenario_index"] == record.index
            assert row["name"] == record.name
            assert row["nmac_rate"] == record.nmac_rate
            assert row["min_separation"] == record.min_separation
        assert "params" not in rows[0]  # scalar view: no blob decode

    def test_iter_records_streams_in_index_order(self, test_table, store):
        results = make_campaign(test_table, scenarios=5, runs=2).run(
            seed=0, store=store
        )
        campaign_id = results.metadata["campaign_id"]
        streamed = list(store.iter_records(campaign_id, batch=2))
        assert [r.index for r in streamed] == [0, 1, 2, 3, 4]
        # assert_records_identical only needs len() + iteration.
        assert_records_identical(streamed, list(results))

    def test_totals(self, test_table, store):
        assert store.totals() == {"campaigns": 0, "records": 0}
        make_campaign(test_table, scenarios=3, runs=2).run(seed=0, store=store)
        assert store.totals() == {"campaigns": 1, "records": 3}


class TestThreadSafety:
    """One shared handle must serve concurrent readers (the service)."""

    def test_concurrent_readers_share_one_handle(self, test_table, store):
        import threading

        results = make_campaign(test_table, scenarios=4, runs=2).run(
            seed=0, store=store
        )
        campaign_id = results.metadata["campaign_id"]
        expected = store.aggregates(campaign_id)
        errors = []

        def read(loops=25):
            try:
                for _ in range(loops):
                    assert store.aggregates(campaign_id) == expected
                    rows = store.record_rows(campaign_id, limit=2, offset=1)
                    assert [r["scenario_index"] for r in rows] == [1, 2]
                    assert store.get_campaign(campaign_id).complete
                    assert len(store.campaigns()) == 1
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_reader_threads_while_writer_appends(self, test_table, store):
        """The service shape: request threads read while a run writes."""
        import threading

        campaign = make_campaign(test_table, scenarios=6, runs=2)
        stop = threading.Event()
        errors = []

        def poll():
            try:
                while not stop.is_set():
                    for info in store.campaigns():
                        store.record_rows(info.campaign_id, limit=3)
                        store.completed_indices(info.campaign_id)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        readers = [threading.Thread(target=poll) for _ in range(4)]
        for reader in readers:
            reader.start()
        try:
            results = campaign.run(seed=3, store=store)
        finally:
            stop.set()
            for reader in readers:
                reader.join()
        assert errors == []
        assert len(store.records()) == len(results)
