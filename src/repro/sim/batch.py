"""Vectorized batch simulation of encounters' many noisy runs.

The paper evaluates every GA individual with 100 stochastic simulation
runs (Section VII).  Running those through the agent-based engine is
faithful but slow in Python, so this module provides a NumPy fast path:
all runs advance simultaneously as array operations.  The dynamics,
sensing, coordination and monitors replicate
:mod:`repro.sim.encounter` step for step (a dedicated test asserts
statistical equivalence); only the random-draw order differs.

There is one stepping loop, :meth:`BatchEncounterSimulator.run_many`,
which advances many scenarios as one lane array;
:meth:`~BatchEncounterSimulator.run` is its one-scenario call.

- **Side-stacked state** — positions and velocities are
  component-major ``(3, 2, lanes)`` arrays (side 0 = own, side 1 =
  intruder) and advisory state is ``(2, lanes)``, so each physics and
  monitor op runs once for both aircraft on contiguous rows, and the
  conflict geometry of both equipped sides is one array pass feeding
  one joint logic-table lookup.
- **Noise tapes** — each scenario's entire disturbance + sensor noise
  sequence is pre-drawn up front with one bulk ``standard_normal`` per
  scenario, in exactly the order the frozen inline-draw kernel
  (:mod:`repro.sim.batch_reference`) draws it, then scaled per segment
  into the side-stacked tape layout.
  ``Generator.normal(0.0, std, size)`` computes ``0.0 + std * z`` over
  ``size`` sequential draws of the same ziggurat stream, so the tape
  values are bitwise identical to those inline draws while eliminating
  the per-decision Python RNG loop.
- **Per-phase timers** — ``run_many(profile=...)`` accumulates a
  :class:`KernelProfile` (tape-draw / decision / physics / observe),
  the observability surface ``Campaign.run(profile=True)`` stamps into
  campaign metadata.

Every kernel op is lane-wise, so a scenario's slice does not depend on
which scenarios share the batch.  The draw order and the bits are
pinned by ``tests/golden/kernel_digests.json`` and by equality with
:func:`repro.sim.batch_reference.reference_run_many`.

Supported equipage: both aircraft ACAS XU (coordinated or not),
own-ship only, or none — the combinations the experiments need.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.acasx.advisories import ADVISORIES
from repro.acasx.logic_table import LogicTable
from repro.encounters.encoding import EncounterParameters, decode_encounter
from repro.sim.encounter import EncounterSimConfig
from repro.util.rng import SeedLike, as_generator
from repro.util.units import NMAC_HORIZONTAL_M, NMAC_VERTICAL_M

#: Advisory attribute tables, indexed by advisory index.
_TARGET_RATES = np.array(
    [a.target_rate if a.is_active else np.nan for a in ADVISORIES]
)
_ACCELS = np.array([a.acceleration for a in ADVISORIES])
_SENSES = np.array([a.sense.value for a in ADVISORIES])  # 0 / +1 / -1
_ACTIVE = np.array([a.is_active for a in ADVISORIES])
# Derived tables hoisting per-substep elementwise work out of
# _advance: inactive advisories carry a 0.0 target rate (what
# nan_to_num + the activity mask used to produce lane-wise) and ramping
# only happens where an advisory is active with positive acceleration.
_TARGET_FILLED = np.nan_to_num(_TARGET_RATES)
_RAMP_MASK = _ACTIVE & (_ACCELS > 0)


#: Phase names of :class:`KernelProfile`, in pipeline order.
KERNEL_PHASES: Tuple[str, ...] = (
    "tape_draw", "decision", "physics", "observe",
)


@dataclass
class KernelProfile:
    """Per-phase wall-clock breakdown of megabatch kernel calls.

    Accumulates across every ``run_many`` call it is passed to, so one
    profile object can cover a whole chunked campaign.  Phases:

    - ``tape_draw`` — host-side noise generation (bulk tape draws, plus
      the per-decision tape slicing);
    - ``decision``  — sensing arithmetic + advisory selection (includes
      the host logic-table lookup);
    - ``physics``   — substep integration of both aircraft;
    - ``observe``   — separation / NMAC monitors.
    """

    tape_draw: float = 0.0
    decision: float = 0.0
    physics: float = 0.0
    observe: float = 0.0
    #: How many kernel invocations / scenarios / lanes accumulated.
    calls: int = 0
    scenarios: int = 0
    lanes: int = 0

    @property
    def total(self) -> float:
        """Wall-clock seconds across all profiled phases."""
        return float(sum(getattr(self, phase) for phase in KERNEL_PHASES))

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON view (the shape stamped into campaign metadata)."""
        payload: Dict[str, object] = {
            phase: getattr(self, phase) for phase in KERNEL_PHASES
        }
        payload.update(
            total=self.total,
            calls=self.calls,
            scenarios=self.scenarios,
            lanes=self.lanes,
        )
        return payload

    def describe(self) -> str:
        """Multi-line phase breakdown for benches and the CLI."""
        total = self.total
        lines = [
            f"kernel profile: {self.calls} call(s), "
            f"{self.scenarios} scenario(s), {self.lanes} lane(s), "
            f"{total:.3f}s in profiled phases"
        ]
        for phase in KERNEL_PHASES:
            seconds = getattr(self, phase)
            share = (seconds / total * 100.0) if total > 0 else 0.0
            lines.append(f"  {phase:<10} {seconds:8.3f}s  ({share:5.1f}%)")
        return "\n".join(lines)


def decision_count(params: EncounterParameters, config) -> int:
    """Avoidance decisions one run of *params* takes under *config*.

    Same rounding as ``SimulationEngine.run``, including its
    at-least-one-decision floor, so the agent and batch paths step in
    lockstep.  A chunk's noise tape is sized by its largest count.
    """
    duration = params.time_to_cpa + config.extra_duration
    return max(1, int(round(duration / config.decision_dt)))


class _NoiseTapes(NamedTuple):
    """Decision-major pre-drawn noise for one ``run_many`` invocation.

    The layouts match the side-stacked kernel state, lanes last:

    - ``sense`` is ``(D_max, 2, 3, 2, total)`` — (decision, position /
      velocity, axis x/y/z, viewer, lane).  Viewer 0 is own's report of
      the intruder, viewer 1 the intruder's report of own, so
      ``pos[:, ::-1] + sense[d, 0]`` is what each side senses;
    - ``vert`` is ``(D_max, substeps, 2, total)`` — (…, side, lane);
    - ``horiz`` is ``(D_max, substeps, 2, 2, total)`` — (…, axis x/y,
      side, lane).

    Side and viewer axes run own then intruder.  Entries are ``None``
    when that stream draws nothing (equipage / zero stds).  Decision
    ``d`` of scenario ``s`` is filled only for ``d < num_decisions[s]``:
    a finished scenario consumes no draws, matching the frozen
    :func:`~repro.sim.batch_reference.reference_run_many`.
    """

    sense: Optional[np.ndarray]
    vert: Optional[np.ndarray]
    horiz: Optional[np.ndarray]


@dataclass
class BatchResult:
    """Per-run outcomes of a batch simulation.

    Attributes
    ----------
    min_separation:
        Minimum 3-D separation per run, metres, shape ``(n,)``.
    min_horizontal:
        Minimum horizontal separation per run.
    nmac:
        Whether each run entered the NMAC cylinder.
    own_alerted / intruder_alerted:
        Whether each side ever displayed an active advisory.
    """

    min_separation: np.ndarray
    min_horizontal: np.ndarray
    nmac: np.ndarray
    own_alerted: np.ndarray
    intruder_alerted: np.ndarray

    @property
    def num_runs(self) -> int:
        """Number of simulated runs."""
        return self.min_separation.shape[0]

    @property
    def nmac_rate(self) -> float:
        """Fraction of runs ending in an NMAC."""
        return float(np.mean(self.nmac))


class BatchEncounterSimulator:
    """Simulates *n* noisy runs of one encounter as array operations.

    Parameters
    ----------
    table:
        Logic table for equipped aircraft (may be ``None`` when
        ``equipage='none'``).
    config:
        Simulation configuration shared with the agent-based engine.
    equipage:
        ``'both'`` (default), ``'own-only'`` or ``'none'``.
    coordination:
        Whether two equipped aircraft exchange maneuver senses.
    """

    def __init__(
        self,
        table: Optional[LogicTable],
        config: EncounterSimConfig | None = None,
        equipage: str = "both",
        coordination: bool = True,
    ):
        if equipage not in ("both", "own-only", "none"):
            raise ValueError(f"unknown equipage {equipage!r}")
        if equipage != "none" and table is None:
            raise ValueError("equipped simulations need a logic table")
        self.table = table
        self.config = config or EncounterSimConfig()
        self.equipage = equipage
        self.coordination = coordination

    # ------------------------------------------------------------------
    # Decision helpers
    # ------------------------------------------------------------------
    def _conflict_geometry(self, own_pos, own_vel, other_pos, other_vel):
        """Vectorized port of AcasXuController._conflict_geometry.

        Component-major, like :meth:`_advance`: :meth:`_decide_stacked`
        passes its ``(3, sides, lanes)`` side-stacked views, and ``tau``
        / ``in_conflict`` have the trailing ``(sides, lanes)`` shape.
        Every operation is lane-wise.
        """
        config = self.table.config
        rel_pos = other_pos[:2] - own_pos[:2]
        rel_vel = other_vel[:2] - own_vel[:2]
        speed_sq = rel_vel[0] * rel_vel[0] + rel_vel[1] * rel_vel[1]
        dot = rel_pos[0] * rel_vel[0] + rel_pos[1] * rel_vel[1]
        # Masked divide: lanes with ~zero closing speed keep the 0.0
        # prefill and the division is never evaluated there, so no
        # errstate bracket is needed.
        t_star = np.zeros_like(dot)
        np.divide(-dot, speed_sq, out=t_star, where=speed_sq > 1e-12)
        tau = np.maximum(t_star, 0.0)
        at_cpa = rel_pos + rel_vel * tau
        miss = np.hypot(at_cpa[0], at_cpa[1])
        in_conflict = (
            (tau > 0.0)
            & (tau <= config.horizon * config.dt)
            & (miss <= config.conflict_horizontal_radius)
        )
        return tau, in_conflict

    @staticmethod
    def _mask_forbidden(q, locked) -> None:
        """-inf out active advisories whose sense conflicts with *locked*."""
        locked = locked[:, None]
        q[(locked != 0) & (_SENSES == locked) & _ACTIVE] = -np.inf

    def _decide_stacked(self, pos, vel, sense_noise, sra):
        """New advisories of every equipped side from one joint lookup.

        *pos* / *vel* are side-stacked ``(3, 2, lanes)`` views, *sra* is
        ``(2, lanes)`` and *sense_noise* is ``(pos/vel, 3, sides,
        lanes)`` where ``sides`` is 2 when both aircraft are equipped
        and 1 when only own is.  Side ``j`` senses the other aircraft
        (``pos[:, ::-1]``), so the conflict geometry runs once for all
        equipped sides.  ``flatnonzero`` over the ``(sides, lanes)``
        conflict mask lists own rows before intruder rows, and the rows
        share one :meth:`LogicTable.q_values_batch` call (row-wise, so
        each row's values match separate per-side calls).  The only
        coupling is the coordination lock, applied to the q values after
        the lookup: own decides first, seeing the intruder's previous
        lock, and own's fresh sense then locks the intruder.  Returns
        the ``(sides, lanes)`` advisory indices.
        """
        sides = sense_noise.shape[2]
        lanes = pos.shape[2]
        own_pos, own_vel = pos[:, :sides], vel[:, :sides]
        sensed_pos = pos[:, ::-1][:, :sides] + sense_noise[0]
        sensed_vel = vel[:, ::-1][:, :sides] + sense_noise[1]

        tau, in_conflict = self._conflict_geometry(
            own_pos, own_vel, sensed_pos, sensed_vel
        )

        new_sra = np.zeros((sides, lanes), dtype=np.int64)  # COC
        active = np.flatnonzero(in_conflict)
        if active.size == 0:
            return new_sra
        side, lane = np.divmod(active, lanes)
        coords = np.empty((active.size, 3))
        coords[:, 0] = sensed_pos[2].reshape(-1)[active] - own_pos[2][side, lane]
        coords[:, 1] = own_vel[2][side, lane]
        coords[:, 2] = sensed_vel[2].reshape(-1)[active]
        q = self.table.q_values_batch(
            tau.reshape(-1)[active], sra[side, lane], coords
        )

        if not (self.coordination and sides == 2):
            new_sra[side, lane] = np.argmax(q, axis=1)
            return new_sra
        split = int(np.count_nonzero(in_conflict[0]))
        own_lanes, intr_lanes = lane[:split], lane[split:]
        q_own, q_intr = q[:split], q[split:]
        self._mask_forbidden(q_own, _SENSES[sra[1, own_lanes]])
        new_sra[0, own_lanes] = np.argmax(q_own, axis=1)
        self._mask_forbidden(q_intr, _SENSES[new_sra[0, intr_lanes]])
        new_sra[1, intr_lanes] = np.argmax(q_intr, axis=1)
        return new_sra

    # ------------------------------------------------------------------
    # Physics
    # ------------------------------------------------------------------
    @staticmethod
    def _gather_advisory(sra, dt: float):
        """Per-lane advisory physics terms, gathered once per decision.

        The returned ``(target, accel, max_change, ramp_mask)`` tuple is
        constant while *sra* is — i.e. for every substep of a decision —
        so :meth:`run_many` amortizes the fancy-index gathers across
        substeps (same values, so same bits).
        """
        accel = _ACCELS[sra]
        return _TARGET_FILLED[sra], accel, accel * dt, _RAMP_MASK[sra]

    @staticmethod
    def _advance(
        pos, vel, gathered, dt: float, vertical_noise, horizontal_noise
    ) -> None:
        """One physics substep, in place, on component-major arrays.

        Replicates :func:`repro.dynamics.aircraft.step_aircraft`:
        advisory ramp (exact trapezoid) then Brownian rate disturbance.
        *pos* and *vel* are the side-stacked ``(3, 2, lanes)`` state of
        :meth:`run_many`, so every operation runs once for both aircraft
        on contiguous rows.  *gathered* is :meth:`_gather_advisory` of the matching advisory
        array; the noises match ``pos[2]`` (vertical) and ``pos[:2]``
        (horizontal), or are ``None``.  Every operation is lane-wise, so
        the result for one lane does not depend on which other lanes
        share the arrays.
        """
        # Inactive advisories gather a 0.0 target and 0.0 acceleration,
        # so their ramp clips to (signed) zero, t_ramp masks to zero and
        # the commanded displacement collapses to the free-flight vz*dt.
        # In-place arithmetic below reuses temporaries; each rewrite is
        # the same float operation in the same order as the plain
        # formula it replaces, so every output bit is unchanged.
        vz = vel[2]
        target, accel, max_change, ramp_mask = gathered
        ramp = target - vz
        np.clip(ramp, -max_change, max_change, out=ramp)
        # Masked divide: non-ramping lanes (accel == 0) keep the 0.0
        # prefill and never evaluate the division, so no errstate
        # bracket is needed.
        t_ramp = np.zeros_like(ramp)
        np.divide(np.abs(ramp), accel, out=t_ramp, where=ramp_mask)
        vz_capture = vz + ramp
        lift = vz + vz_capture
        lift /= 2.0
        lift *= t_ramp
        np.subtract(dt, t_ramp, out=t_ramp)
        t_ramp *= vz_capture
        lift += t_ramp
        pos[2] += lift
        vel[2] = vz_capture  # equals vz where inactive (ramp == 0)

        if vertical_noise is not None:
            bump = 0.5 * vertical_noise
            bump *= dt
            bump *= dt
            pos[2] += bump
            vel[2] += vertical_noise * dt

        if horizontal_noise is not None:
            drift = vel[:2] * dt
            kick = 0.5 * horizontal_noise
            kick *= dt
            kick *= dt
            drift += kick
            pos[:2] += drift
            vel[:2] += horizontal_noise * dt
        else:
            pos[:2] += vel[:2] * dt

    # ------------------------------------------------------------------
    # One scenario: a one-entry megabatch
    # ------------------------------------------------------------------
    def run(
        self,
        params: EncounterParameters,
        num_runs: int,
        seed: SeedLike = None,
    ) -> BatchResult:
        """Simulate *num_runs* independent noisy runs of *params*."""
        return self.run_many([params], num_runs, [seed])[0]

    # ------------------------------------------------------------------
    # Megabatch: many scenarios × many runs as one lane array
    # ------------------------------------------------------------------
    def _draw_noise_tapes(
        self,
        rngs: List[np.random.Generator],
        num_decisions: np.ndarray,
        n: int,
        total: int,
    ) -> _NoiseTapes:
        """Pre-draw every scenario's full noise sequence up front.

        One bulk ``standard_normal`` per scenario replaces the
        historical thousands of tiny per-decision draws.  The flat
        stream is consumed in exactly the order the frozen inline-draw
        kernel (:mod:`repro.sim.batch_reference`) draws it — per
        decision: intruder report (pos x, y, z, vel x, y, z), own
        report, then per substep per side: vertical rate, horizontal
        accel (n, 2) in C order — and scaled per segment.  Since
        ``Generator.normal(0.0, std, size)`` evaluates
        ``0.0 + std * z`` over ``size`` sequential standard-normal
        draws, the scaled slices are bitwise identical to the inline
        calls they replace.

        The tapes are the kernel's dominant working set (~``D_max *
        total * 42`` doubles at default substeps); megabatch chunk
        sizing (:data:`repro.experiments.campaign.DEFAULT_CHUNK_LANES`)
        keeps that bounded to a few hundred MB at worst.
        """
        config = self.config
        substeps = config.physics_substeps
        sub_dt = config.decision_dt / substeps
        sensing = self.equipage in ("both", "own-only")
        noise_std = config.disturbance.vertical_rate_std
        h_std = config.disturbance.horizontal_accel_std
        has_vert = noise_std > 0
        has_horiz = h_std > 0

        vert_len = n if has_vert else 0
        horiz_len = 2 * n if has_horiz else 0
        sense_len = 12 * n if sensing else 0
        stride = sense_len + substeps * 2 * (vert_len + horiz_len)
        if stride == 0:
            return _NoiseTapes(None, None, None)

        d_max = int(num_decisions.max())
        sense_tape = (
            np.empty((d_max, 2, 3, 2, total)) if sensing else None
        )
        vert_tape = (
            np.empty((d_max, substeps, 2, total)) if has_vert else None
        )
        horiz_tape = (
            np.empty((d_max, substeps, 2, 2, total)) if has_horiz else None
        )
        sensor = config.sensor
        # Report scales by (position / velocity, axis x/y/z), broadcast
        # over (decision, ., ., viewer, lane).
        sense_scales = np.array([
            [sensor.horizontal_position_std,
             sensor.horizontal_position_std,
             sensor.vertical_position_std],
            [sensor.horizontal_velocity_std,
             sensor.horizontal_velocity_std,
             sensor.vertical_velocity_std],
        ])[None, :, :, None, None]
        vert_scale = noise_std / np.sqrt(sub_dt) if has_vert else 0.0

        # Each segment is scaled straight into its tape slot:
        # ``np.multiply(z, std, out=...)`` is the same float64 multiply
        # as ``std * z``, so every tape bit matches the inline draws;
        # only the copy layout differs from the draw order.
        for s, rng in enumerate(rngs):
            d_s = int(num_decisions[s])
            rows = slice(s * n, (s + 1) * n)
            z = rng.standard_normal(d_s * stride).reshape(d_s, stride)
            if sensing:
                # Draw order (decision, viewer, pos/vel, axis, lane):
                # own's report of the intruder first, then the
                # intruder's report of own.
                reports = z[:, :sense_len].reshape(d_s, 2, 2, 3, n)
                np.multiply(
                    reports.transpose(0, 2, 3, 1, 4), sense_scales,
                    out=sense_tape[:d_s, ..., rows],
                )
            if has_vert or has_horiz:
                sub = z[:, sense_len:].reshape(
                    d_s, substeps, 2, vert_len + horiz_len
                )
                if has_vert:
                    np.multiply(
                        sub[..., :vert_len], vert_scale,
                        out=vert_tape[:d_s, ..., rows],
                    )
                if has_horiz:
                    # Draw order (decision, substep, side, lane, axis).
                    horiz = sub[..., vert_len:].reshape(
                        d_s, substeps, 2, n, 2
                    )
                    np.multiply(
                        horiz.transpose(0, 1, 4, 2, 3), h_std,
                        out=horiz_tape[:d_s, ..., rows],
                    )
        return _NoiseTapes(sense_tape, vert_tape, horiz_tape)

    def run_many(
        self,
        params_list: Sequence[EncounterParameters],
        num_runs: int,
        seeds: Optional[Sequence[SeedLike]] = None,
        *,
        profile: Optional[KernelProfile] = None,
    ) -> List[BatchResult]:
        """Simulate *num_runs* runs of **each** scenario as one batch.

        Flattens ``S`` scenarios × ``num_runs`` runs into a single
        ``(S * num_runs)``-lane array simulation: lanes
        ``[s*num_runs, (s+1)*num_runs)`` carry scenario ``s``, seeded
        from ``seeds[s]``, starting from its decoded geometry.  An
        active-lane mask derived from each scenario's duration lets
        short encounters stop stepping while long ones continue, so the
        per-scenario Python stepping loop disappears.

        Each scenario's disturbance and sensor noise comes from its own
        pre-drawn tape (:meth:`_draw_noise_tapes`), and every array
        operation is lane-wise, so the slice returned for a scenario is
        **bitwise identical** to ``run(params, num_runs, seed)`` and
        independent of which scenarios happen to share the batch
        (chunking cannot change results).  The pre-refactor inline-draw
        implementation survives as
        :func:`repro.sim.batch_reference.reference_run_many`, the
        frozen oracle the equivalence tests and the kernel benchmark
        compare against.

        Parameters
        ----------
        profile:
            Optional :class:`KernelProfile` accumulating this call's
            per-phase wall-clock times.
        """
        params_list = list(params_list)
        if not params_list:
            raise ValueError("params_list must contain at least one scenario")
        if num_runs < 1:
            raise ValueError("num_runs must be >= 1")
        if seeds is None:
            seeds = [None] * len(params_list)
        seeds = list(seeds)
        if len(seeds) != len(params_list):
            raise ValueError(
                f"got {len(seeds)} seeds for {len(params_list)} scenarios"
            )
        rngs = [as_generator(seed) for seed in seeds]

        config = self.config
        num_scenarios = len(params_list)
        n = num_runs
        total = num_scenarios * n

        num_decisions = np.empty(num_scenarios, dtype=np.int64)
        for s, params in enumerate(params_list):
            num_decisions[s] = decision_count(params, config)

        # Process scenarios internally in descending-duration order
        # (stable, so equal durations keep their input order).  With the
        # longest encounters in the lowest lanes, the still-active lanes
        # are always the contiguous prefix [0, m*n): every per-decision
        # gather below is a plain view and no scatter-back is needed.
        # Each slot keeps its scenario's own rng and tape slice, and
        # every kernel op is lane-wise, so the permutation cannot change
        # any lane's bits; results map back to input order on return.
        order = np.argsort(-num_decisions, kind="stable")
        slot_decisions = num_decisions[order]

        # Side-stacked, component-major state: pos[c, j, lane] is
        # component c of side j (0 = own, 1 = intruder), so each
        # (component, side) row is contiguous over the lanes.
        starts = np.empty((2, 3, 2, num_scenarios))
        for slot, s in enumerate(order):
            own0, intr0 = decode_encounter(params_list[s])
            starts[0, :, 0, slot] = own0.position
            starts[0, :, 1, slot] = intr0.position
            starts[1, :, 0, slot] = own0.velocity
            starts[1, :, 1, slot] = intr0.velocity
        pos, vel = np.repeat(starts, n, axis=3)

        t_tape = t_decision = t_physics = t_observe = 0.0
        mark = time.perf_counter

        sub_dt = config.decision_dt / config.physics_substeps
        substeps = config.physics_substeps
        # How many sides decide: own first, then the intruder.
        equipped = {"both": 2, "own-only": 1, "none": 0}[self.equipage]

        t0 = mark()
        tapes = self._draw_noise_tapes(
            [rngs[s] for s in order], slot_decisions, n, total
        )
        t_tape += mark() - t0

        sra = np.zeros((2, total), dtype=np.int64)
        alerted = np.zeros((2, total), dtype=bool)
        min_sep = np.full(total, np.inf)
        min_horiz = np.full(total, np.inf)
        nmac = np.zeros(total, dtype=bool)

        def observe_into(p, sep_acc, horiz_acc, nmac_acc) -> None:
            # The accumulators are contiguous active-lane views gathered
            # once per decision, so each substep's monitor update is
            # pure in-place arithmetic.
            delta = p[:, 0] - p[:, 1]
            horizontal = np.hypot(delta[0], delta[1])
            vertical = np.abs(delta[2])
            separation = np.hypot(horizontal, vertical)
            np.minimum(sep_acc, separation, out=sep_acc)
            np.minimum(horiz_acc, horizontal, out=horiz_acc)
            nmac_acc |= (horizontal < NMAC_HORIZONTAL_M) & (
                vertical < NMAC_VERTICAL_M
            )

        t0 = mark()
        observe_into(pos, min_sep, min_horiz, nmac)
        t_observe += mark() - t0

        # slot_decisions is descending, so the number of still-active
        # slots at a decision is a single binary search.
        neg_decisions = -slot_decisions
        for decision in range(int(slot_decisions[0])):
            m = int(np.searchsorted(neg_decisions, -decision, side="left"))
            lanes = slice(0, m * n)

            # This decision's noise is pure tape indexing — the active
            # prefix makes every slice below a plain view.
            t0 = mark()
            sense_noise = (
                tapes.sense[decision][..., :equipped, lanes]
                if equipped else None
            )
            vert_noise = (
                tapes.vert[decision][..., lanes]
                if tapes.vert is not None else None
            )
            horiz_noise = (
                tapes.horiz[decision][..., lanes]
                if tapes.horiz is not None else None
            )
            t_tape += mark() - t0

            # The active lanes are a contiguous prefix, so these are
            # views: every in-place update below lands directly in the
            # full state arrays with no scatter-back.
            p, v = pos[..., lanes], vel[..., lanes]
            lane_sra = sra[:, lanes]
            if equipped:
                t0 = mark()
                decided = self._decide_stacked(p, v, sense_noise, lane_sra)
                lane_sra[:equipped] = decided
                alerted[:equipped, lanes] |= _ACTIVE[decided]
                t_decision += mark() - t0

            # Monitor accumulators, gathered once per decision.
            sep_acc, horiz_acc = min_sep[lanes], min_horiz[lanes]
            nmac_acc = nmac[lanes]

            # Advisories are fixed for the whole decision: gather their
            # physics terms once and reuse across every substep.
            terms = self._gather_advisory(lane_sra, sub_dt)
            for k in range(substeps):
                t0 = mark()
                self._advance(
                    p, v, terms, sub_dt,
                    vert_noise[k] if vert_noise is not None else None,
                    horiz_noise[k] if horiz_noise is not None else None,
                )
                t_physics += mark() - t0
                t0 = mark()
                observe_into(p, sep_acc, horiz_acc, nmac_acc)
                t_observe += mark() - t0

        if profile is not None:
            profile.tape_draw += t_tape
            profile.decision += t_decision
            profile.physics += t_physics
            profile.observe += t_observe
            profile.calls += 1
            profile.scenarios += num_scenarios
            profile.lanes += total

        # Undo the internal duration ordering: scenario s lives in slot
        # inverse[s] of the lane arrays.
        inverse = np.empty(num_scenarios, dtype=np.int64)
        inverse[order] = np.arange(num_scenarios)

        def result_for(s: int) -> BatchResult:
            rows = slice(int(inverse[s]) * n, (int(inverse[s]) + 1) * n)
            return BatchResult(
                min_separation=min_sep[rows].copy(),
                min_horizontal=min_horiz[rows].copy(),
                nmac=nmac[rows].copy(),
                own_alerted=alerted[0, rows].copy(),
                intruder_alerted=alerted[1, rows].copy(),
            )

        return [result_for(s) for s in range(num_scenarios)]
