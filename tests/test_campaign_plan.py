"""The campaign identity contract, held by :meth:`Campaign.plan`.

Every stored campaign is content-addressed: ``Campaign.run(store=)``,
``Campaign.iter_records(store=)``, the distributed ``submit`` and the
campaign service all derive the id from one :class:`CampaignPlan`.  The
pinned ids below were produced before the plan existed, so a refactor
that changes any stored id fails here; the property checks that every
entry point agrees with the plan and that the bits do not depend on
chunking or on resuming.
"""

from __future__ import annotations

import tempfile
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import WorkQueue, submit
from repro.encounters import StatisticalEncounterModel
from repro.experiments import (
    PRESETS,
    Campaign,
    CampaignPlan,
    SampledSource,
)
from repro.store import CampaignSpec, ResultStore, results_digest


def presets_campaign(table) -> Campaign:
    return Campaign(
        ["head_on", "tail_approach"], table=table, runs_per_scenario=5
    )


def sampled_campaign(table) -> Campaign:
    return Campaign(
        SampledSource(StatisticalEncounterModel(), 4),
        equipage="none",
        runs_per_scenario=3,
    )


def single_preset_campaign(table) -> Campaign:
    return Campaign(["head_on"], equipage="none", runs_per_scenario=2)


#: (campaign factory, seed factory, campaign_id, results_digest).
PINNED = {
    "explicit-presets": (
        presets_campaign,
        lambda: 11,
        "d868974b29049a1077417b22f7582eda5866a724466b970444831d1f10ba86a8",
        "fac68cfa5615dfb19f6d1c362c0cd581bc81c985f4d41f4ac0c8df1ad08b7e52",
    ),
    "sampled-source": (
        sampled_campaign,
        lambda: 7,
        "3f8d7409e2c0a8ae173364607e4a3afe1419881f6a5cc8a450a2ce160c1ad6da",
        "c4a323d95ec1e2170872b1afbc3014139a64caa7f619e318dccc67102d70be58",
    ),
    "spawned-child-seed": (
        single_preset_campaign,
        lambda: np.random.SeedSequence(5).spawn(2)[1],
        "895385c3dc0a755d9a5594a62dc53de601829057b3f80640720eaaf5b313eba8",
        "ab867a768f501f7877f7e2f987312fd33796be4c0b1b7c7c3f1e790e8bb77c3e",
    ),
}


class TestPinnedCampaignIds:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_stored_id_and_digest_are_pinned(self, name, test_table):
        make, seed, campaign_id, digest = PINNED[name]
        assert make(test_table).plan(seed()).campaign_id == campaign_id
        with ResultStore(":memory:") as store:
            result = make(test_table).run(seed=seed(), store=store)
        assert result.metadata["campaign_id"] == campaign_id
        assert results_digest(result) == digest

    def test_spawned_children_are_distinct_campaigns(self):
        first, second = np.random.SeedSequence(5).spawn(2)
        assert (
            single_preset_campaign(None).plan(first).campaign_id
            != single_preset_campaign(None).plan(second).campaign_id
        )


class TestPlan:
    def test_plan_resolves_scenarios_seeds_and_chunks(self):
        plan = sampled_campaign(None).plan(7, chunk_size=3)
        assert isinstance(plan, CampaignPlan)
        assert len(plan.scenarios) == len(plan.seeds) == 4
        assert [len(chunk) for chunk in plan.chunks] == [3, 1]
        flat = [item for chunk in plan.chunks for item in chunk]
        assert [index for index, _, _ in flat] == [0, 1, 2, 3]
        assert [seed for _, _, seed in flat] == plan.seeds

    def test_invalid_arguments_raise_at_the_call_site(self):
        campaign = single_preset_campaign(None)
        with pytest.raises(ValueError, match="chunk_size"):
            campaign.plan(1, chunk_size=0)
        with pytest.raises(ValueError, match="workers"):
            campaign.plan(1, workers=0)

    def test_storeless_run_never_captures_a_spec(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("storeless run hashed a campaign spec")

        monkeypatch.setattr(CampaignSpec, "capture", refuse)
        assert len(sampled_campaign(None).run(seed=3)) == 4


def _sources():
    presets = st.lists(
        st.sampled_from(sorted(PRESETS)), min_size=1, max_size=3
    ).map(lambda names: lambda: list(names))
    sampled = st.integers(1, 4).map(
        lambda n: lambda: SampledSource(StatisticalEncounterModel(), n)
    )
    return st.one_of(presets, sampled)


@settings(max_examples=12, deadline=None)
@given(
    source=_sources(),
    equipped=st.booleans(),
    runs=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    chunk_size=st.integers(1, 4),
    stored_before_interrupt=st.integers(0, 4),
)
def test_every_entry_point_agrees_with_the_plan(
    tiny_table, source, equipped, runs, seed, chunk_size,
    stored_before_interrupt,
):
    def make() -> Campaign:
        return Campaign(
            source(),
            table=tiny_table if equipped else None,
            equipage="both" if equipped else "none",
            runs_per_scenario=runs,
        )

    plan = make().plan(seed)
    digest = results_digest(make().run(seed=seed))
    assert results_digest(make().run(seed=seed, chunk_size=chunk_size)) == (
        digest
    )
    with tempfile.TemporaryDirectory() as tmp:
        queue_path = Path(tmp) / "queue.sqlite"
        store_path = Path(tmp) / "store.sqlite"
        with ResultStore(store_path) as store:
            # Interrupt a stream after a few persisted records, then
            # resume: the stored prefix loads, the tail simulates.
            stream = make().iter_records(
                seed=seed, store=store, chunk_size=1
            )
            list(islice(stream, stored_before_interrupt))
            stream.close()
            resumed = make().run(
                seed=seed, chunk_size=chunk_size, store=store
            )
        assert resumed.metadata["campaign_id"] == plan.campaign_id
        assert resumed.metadata["loaded"] == min(
            stored_before_interrupt, len(plan.scenarios)
        )
        assert results_digest(resumed) == digest

        # A fresh fleet store: the whole campaign is enqueued under the
        # plan's id.
        run = submit(
            make(), seed, queue=queue_path, store=Path(tmp) / "fleet.sqlite"
        )
        assert run.campaign_id == plan.campaign_id
        assert run.chunks_enqueued >= 1
        with WorkQueue(queue_path) as queue:
            assert [job.campaign_id for job in queue.jobs()] == [
                plan.campaign_id
            ]
