"""Cross-cutting property-based tests (hypothesis).

Invariants that must hold for *any* encounter the scenario space can
produce — the kind of blanket guarantees unit tests on hand-picked
cases cannot give.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dynamics.aircraft import cpa_horizontal_miss, time_to_cpa
from repro.encounters.encoding import EncounterParameters, decode_encounter
from repro.search.fitness import COLLISION_GAIN, paper_fitness
from repro.sim import BatchEncounterSimulator, EncounterSimConfig
from repro.sim.batch import decision_count
from repro.sim.batch_reference import reference_run_many
from repro.sim.disturbance import DisturbanceModel
from repro.sim.sensors import AdsBSensor

#: Strategy over the full scenario-generator parameter box.
encounter_params = st.builds(
    EncounterParameters,
    own_ground_speed=st.floats(15.0, 50.0),
    own_vertical_speed=st.floats(-5.0, 5.0),
    time_to_cpa=st.floats(20.0, 40.0),
    cpa_horizontal_distance=st.floats(0.0, 152.0),
    cpa_angle=st.floats(0.0, 2 * math.pi),
    cpa_vertical_distance=st.floats(-30.0, 30.0),
    intruder_ground_speed=st.floats(15.0, 50.0),
    intruder_bearing=st.floats(0.0, 2 * math.pi),
    intruder_vertical_speed=st.floats(-5.0, 5.0),
)


class TestEncounterGeometryProperties:
    @settings(max_examples=60)
    @given(encounter_params)
    def test_unmaneuvered_cpa_miss_within_configured_bounds(self, params):
        # The kinematic CPA of the decoded states can never exceed the
        # configured horizontal miss distance (it may be smaller when
        # the straight-line CPA time differs from the parameter T for
        # slow geometries, never larger).
        own, intruder = decode_encounter(params)
        miss = cpa_horizontal_miss(own, intruder)
        assert miss <= params.cpa_horizontal_distance + 1e-6

    @settings(max_examples=60)
    @given(encounter_params)
    def test_time_to_cpa_nonnegative_and_finite(self, params):
        own, intruder = decode_encounter(params)
        tau = time_to_cpa(own, intruder)
        assert tau >= 0.0
        assert np.isfinite(tau)


class TestFitnessProperties:
    @given(
        st.lists(st.floats(0.0, 1e5), min_size=1, max_size=30),
        st.floats(0.1, 50.0),
    )
    def test_fitness_decreases_when_all_distances_grow(self, distances, shift):
        base = paper_fitness(np.array(distances))
        shifted = paper_fitness(np.array(distances) + shift)
        assert shifted < base

    @given(st.lists(st.floats(0.0, 1e5), min_size=1, max_size=30))
    def test_fitness_of_subsets_brackets_mean(self, distances):
        values = np.array(distances)
        per_run = COLLISION_GAIN / (1.0 + values)
        total = paper_fitness(values)
        assert per_run.min() - 1e-9 <= total <= per_run.max() + 1e-9


RESULT_FIELDS = (
    "min_separation",
    "min_horizontal",
    "nmac",
    "own_alerted",
    "intruder_alerted",
)


@pytest.mark.parametrize("equipage", ["both", "own-only", "none"])
class TestMegabatchProperties:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        scenarios=st.lists(encounter_params, min_size=1, max_size=3),
        coordination=st.booleans(),
        substeps=st.integers(1, 3),
        num_runs=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        split=st.integers(1, 2),
    )
    def test_matches_reference_and_is_chunk_invariant(
        self, test_table, equipage, scenarios, coordination, substeps,
        num_runs, seed, split,
    ):
        # The megabatch kernel equals the frozen pre-refactor kernel bit
        # for bit on any geometry, and splitting the scenarios across
        # two calls changes nothing.
        simulator = BatchEncounterSimulator(
            None if equipage == "none" else test_table,
            EncounterSimConfig(physics_substeps=substeps),
            equipage=equipage,
            coordination=coordination,
        )
        seeds = [seed + i for i in range(len(scenarios))]
        whole = simulator.run_many(scenarios, num_runs, seeds)
        reference = reference_run_many(simulator, scenarios, num_runs, seeds)
        parts = simulator.run_many(
            scenarios[:split], num_runs, seeds[:split]
        )
        if split < len(scenarios):
            parts += simulator.run_many(
                scenarios[split:], num_runs, seeds[split:]
            )
        for got, ref, part in zip(whole, reference, parts):
            for field in RESULT_FIELDS:
                np.testing.assert_array_equal(
                    getattr(got, field), getattr(ref, field)
                )
                np.testing.assert_array_equal(
                    getattr(got, field), getattr(part, field)
                )


@pytest.mark.parametrize("equipage", ["none", "both"])
class TestBatchSimulatorProperties:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(params=encounter_params, seed=st.integers(0, 2**16))
    def test_invariants_hold_for_any_encounter(
        self, test_table, equipage, params, seed
    ):
        config = EncounterSimConfig(
            disturbance=DisturbanceModel(vertical_rate_std=0.3),
            sensor=AdsBSensor(),
        )
        table = None if equipage == "none" else test_table
        simulator = BatchEncounterSimulator(table, config, equipage=equipage)
        result = simulator.run(params, 4, seed=seed)

        # Separations are positive and minima are consistent.
        assert np.all(result.min_separation >= 0.0)
        assert np.all(result.min_horizontal >= 0.0)
        assert np.all(result.min_separation >= result.min_horizontal - 1e-9)

        # Minimum separation can never exceed the initial separation.
        own, intruder = decode_encounter(params)
        initial = own.distance_to(intruder)
        assert np.all(result.min_separation <= initial + 1e-6)

        # Unequipped runs never alert.
        if equipage == "none":
            assert not result.own_alerted.any()

        # NMAC implies close approach in both dimensions at once, so
        # min 3-D separation must be below the NMAC diagonal.
        diagonal = math.hypot(152.4, 30.48)
        if result.nmac.any():
            assert result.min_separation[result.nmac].min() <= diagonal


class TestNoiseFreeCpaRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(params=encounter_params, substeps=st.integers(1, 5))
    def test_min_separation_is_the_straight_line_miss(self, params, substeps):
        # Encode -> simulate -> measure: with nobody maneuvering and no
        # disturbance both aircraft fly straight lines, so the simulated
        # minimum is the 3-D miss of the decoded states (CPA time
        # clipped to the simulated duration), up to how far the nearest
        # physics sample can sit from that CPA time.
        config = EncounterSimConfig(
            physics_substeps=substeps,
            disturbance=DisturbanceModel(
                vertical_rate_std=0.0, horizontal_accel_std=0.0
            ),
        )
        simulator = BatchEncounterSimulator(None, config, equipage="none")
        result = simulator.run(params, 2, seed=0)

        own, intruder = decode_encounter(params)
        rel_pos = intruder.position - own.position
        rel_vel = intruder.velocity - own.velocity
        speed_sq = float(rel_vel @ rel_vel)
        duration = decision_count(params, config) * config.decision_dt
        t_cpa = (
            min(max(-float(rel_pos @ rel_vel) / speed_sq, 0.0), duration)
            if speed_sq > 0.0 else 0.0
        )
        miss = float(np.linalg.norm(rel_pos + rel_vel * t_cpa))
        sub_dt = config.decision_dt / substeps
        bound = math.hypot(miss, math.sqrt(speed_sq) * sub_dt / 2.0)

        assert np.all(result.min_separation >= miss - 1e-6)
        assert np.all(result.min_separation <= bound + 1e-6)
        # The configured CPA offset is one point of the straight lines,
        # so the true miss can only be smaller.
        assert miss <= math.hypot(
            params.cpa_horizontal_distance, params.cpa_vertical_distance
        ) + 1e-6


class TestUnequippedTableIndependence:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        scenarios=st.lists(encounter_params, min_size=1, max_size=3),
        num_runs=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_unequipped_runs_ignore_the_logic_table(
        self, tiny_table, test_table, scenarios, num_runs, seed
    ):
        # With nobody equipped no advisory is ever looked up, so which
        # table the simulator holds cannot change a single bit.
        seeds = [seed + i for i in range(len(scenarios))]
        results = [
            BatchEncounterSimulator(table, equipage="none").run_many(
                scenarios, num_runs, seeds
            )
            for table in (tiny_table, test_table)
        ]
        for tiny, test in zip(*results):
            for field in RESULT_FIELDS:
                np.testing.assert_array_equal(
                    getattr(tiny, field), getattr(test, field)
                )
