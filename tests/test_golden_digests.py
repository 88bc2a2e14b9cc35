"""Golden-digest corpus pinning the megabatch kernel's output bits.

``tests/golden/kernel_digests.json`` holds one ``results_digest`` per
equipage × coordination × physics-substeps × seed combination over a
fixed scenario list (the named presets plus 20 sampled geometries).
Every entry must reproduce both when all scenarios share one kernel
call and when each scenario runs as its own chunk of one, so any bit
drift in the kernel — or any chunking dependence — fails here.

Coordination only changes behaviour when both aircraft are equipped,
so it is varied for ``both`` alone.

Regenerate the corpus (only after an intentional numerics change,
which shifts every stored campaign id) with::

    PYTHONPATH=src python tests/test_golden_digests.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.encounters import StatisticalEncounterModel
from repro.experiments import PRESETS, Campaign
from repro.sim.encounter import EncounterSimConfig
from repro.store import results_digest

CORPUS_PATH = Path(__file__).parent / "golden" / "kernel_digests.json"

#: (equipage, coordination) pairs with distinct kernel behaviour.
EQUIPAGES: Tuple[Tuple[str, bool], ...] = (
    ("both", True),
    ("both", False),
    ("own-only", True),
    ("none", True),
)
SUBSTEPS = (1, 5)
SEEDS = (1, 2)
#: Enough runs that every coordinated digest differs from its
#: uncoordinated twin: at 3 runs, 3 of the 4 pairs coincided, so the
#: corpus barely pinned the coordination lock.
RUNS_PER_SCENARIO = 10
SAMPLED_SCENARIOS = 20
SAMPLE_SEED = 2024


def corpus_key(equipage: str, coordination: bool, substeps: int, seed: int) -> str:
    """The corpus entry name of one combination."""
    coord = "coordinated" if coordination else "uncoordinated"
    return f"{equipage}/{coord}/substeps={substeps}/seed={seed}"


CORPUS_KEYS: List[Tuple[str, bool, int, int]] = [
    (equipage, coordination, substeps, seed)
    for equipage, coordination in EQUIPAGES
    for substeps in SUBSTEPS
    for seed in SEEDS
]


def corpus_scenarios():
    """The presets followed by the sampled geometries."""
    sampled = StatisticalEncounterModel().sample(
        SAMPLED_SCENARIOS, seed=np.random.default_rng(SAMPLE_SEED)
    )
    return [factory() for factory in PRESETS.values()] + sampled


def corpus_digest(
    table, scenarios, equipage: str, coordination: bool, substeps: int,
    seed: int, chunk_size: int,
) -> str:
    """``results_digest`` of one corpus combination at *chunk_size*."""
    campaign = Campaign(
        scenarios,
        backend="vectorized-batch",
        table=None if equipage == "none" else table,
        equipage=equipage,
        coordination=coordination,
        runs_per_scenario=RUNS_PER_SCENARIO,
        sim_config=EncounterSimConfig(physics_substeps=substeps),
    )
    return results_digest(campaign.run(seed=seed, chunk_size=chunk_size))


def build_corpus(table) -> Dict[str, object]:
    """The corpus payload, computed from the current kernel."""
    scenarios = corpus_scenarios()
    digests = {
        corpus_key(*combo): corpus_digest(
            table, scenarios, *combo, chunk_size=len(scenarios)
        )
        for combo in CORPUS_KEYS
    }
    return {
        "runs_per_scenario": RUNS_PER_SCENARIO,
        "presets": list(PRESETS),
        "sampled_scenarios": SAMPLED_SCENARIOS,
        "sample_seed": SAMPLE_SEED,
        "digests": digests,
    }


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS_PATH.read_text())


@pytest.fixture(scope="module")
def scenarios():
    return corpus_scenarios()


def test_corpus_describes_this_module(corpus):
    assert corpus["runs_per_scenario"] == RUNS_PER_SCENARIO
    assert corpus["presets"] == list(PRESETS)
    assert corpus["sampled_scenarios"] == SAMPLED_SCENARIOS
    assert corpus["sample_seed"] == SAMPLE_SEED
    assert sorted(corpus["digests"]) == sorted(
        corpus_key(*combo) for combo in CORPUS_KEYS
    )


def test_corpus_pins_coordination(corpus):
    # Coordination changes lanes in every combination, so a bug in the
    # coordination lock shows as a drifted digest.
    digests = corpus["digests"]
    same = [
        corpus_key("both", True, substeps, seed)
        for substeps in SUBSTEPS
        for seed in SEEDS
        if digests[corpus_key("both", True, substeps, seed)]
        == digests[corpus_key("both", False, substeps, seed)]
    ]
    assert not same, f"coordination does not change: {same}"


def test_one_chunk_matches_corpus(test_table, corpus, scenarios):
    # Every combination at full width in one test: ~1 s in total.
    mismatched = [
        corpus_key(*combo)
        for combo in CORPUS_KEYS
        if corpus_digest(
            test_table, scenarios, *combo, chunk_size=len(scenarios)
        ) != corpus["digests"][corpus_key(*combo)]
    ]
    assert not mismatched, f"kernel digests drifted: {mismatched}"


@pytest.mark.slow
@pytest.mark.parametrize(
    "combo", CORPUS_KEYS, ids=[corpus_key(*combo) for combo in CORPUS_KEYS]
)
def test_single_scenario_chunks_match_corpus(
    test_table, corpus, scenarios, combo
):
    digest = corpus_digest(test_table, scenarios, *combo, chunk_size=1)
    assert digest == corpus["digests"][corpus_key(*combo)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    from repro.acasx import build_logic_table, test_config

    payload = build_corpus(build_logic_table(test_config()))
    CORPUS_PATH.parent.mkdir(parents=True, exist_ok=True)
    CORPUS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['digests'])} digests to {CORPUS_PATH}")
