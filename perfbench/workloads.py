"""The benchmark's three workloads: ``falsify``, ``risk`` and ``service``.

Each workload object has the same life cycle, driven by ``workload_main.py``:
``setup()`` (the part ``setup_s`` times), ``run(seconds, ops)`` (the
timed phase, store-hit replays included), ``check()`` (the output
checks) and ``teardown()``.  Each workload fixes its sizes in
``self.sizes``; ``smoke=True`` shrinks them so the benchmark's own tests
run in seconds.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
NPROC = os.cpu_count() or 1
PINNED = json.loads((HERE / "pinned.json").read_text())

#: Generations per GA search (the paper's Fig. 6 search runs five).
GENERATIONS = 5


def digest(arrays) -> str:
    """sha256 over the float64 bytes of a sequence of arrays."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()


def derived_seeds(seed: int, stream: int):
    """Endless seeded integers for one input stream of one workload."""
    rng = np.random.default_rng([seed, stream])
    while True:
        yield int(rng.integers(0, 2**62))


def load_table(cache: Path):
    import repro.acasx.cache as table_cache
    from repro.acasx import test_config

    return table_cache.build_or_load(test_config(), cache_dir=cache)


class Workload:
    name = ""

    def __init__(self, seed, work: Path, cache: Path, smoke=False,
                 trace_dir=None):
        self.seed = seed
        self.work = work
        self.cache = cache
        self.smoke = smoke
        self.trace_dir = trace_dir
        self.work.mkdir(parents=True, exist_ok=True)

    def warm(self) -> None:
        load_table(self.cache)

    def teardown(self) -> None:
        store = getattr(self, "store", None)
        if store is not None:
            store.close()

    def parameters(self) -> dict:
        return {"table_preset": "test", "nproc": NPROC, "smoke": self.smoke,
                "numpy": np.__version__, "seed": self.seed, **self.sizes}


# ----------------------------------------------------------------------
# falsify: the paper's Fig. 6 GA search
# ----------------------------------------------------------------------
class _TimedFitness:
    """Times each ``evaluate_population`` call the GA makes."""

    def __init__(self, fitness):
        self.fitness = fitness
        self.seconds = []

    def evaluate_population(self, genomes):
        start = time.monotonic()
        fits = self.fitness.evaluate_population(genomes)
        self.seconds.append(time.monotonic() - start)
        return fits


class Falsify(Workload):
    name = "falsify"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sizes = (
            {"population": 8, "runs_per_genome": 5,
             "generations": GENERATIONS}
            if self.smoke else
            {"population": 40, "runs_per_genome": 25,
             "generations": GENERATIONS}
        )

    def setup(self) -> None:
        from repro.store import ResultStore

        self.table = load_table(self.cache)
        self.store = ResultStore(self.work / "falsify.sqlite")
        # Warm-up generation (its own seed): the first kernel call and
        # the first store write happen before timing starts.
        ranges = self._ranges()
        genomes = np.random.default_rng([self.seed, 98]).uniform(
            ranges.lows(), ranges.highs(),
            size=(self.sizes["population"], len(ranges.lows())),
        )
        self._fitness(np.random.default_rng([self.seed, 99])
                      ).evaluate_population(genomes)

    def _ranges(self):
        from repro.encounters.generator import ParameterRanges

        return ParameterRanges()

    def _fitness(self, rng):
        from repro.search.fitness import EncounterFitness

        return EncounterFitness(
            self.table,
            num_runs=self.sizes["runs_per_genome"],
            seed=rng,
            backend="vectorized-batch",
            store=self.store,
        )

    def _search(self, ga_seed, label):
        """One GA search wired as ``SearchRunner.run`` wires it.

        Returns (fitness history, populations, per-generation walls,
        per-evaluation walls).
        """
        from repro.search.ga import GAConfig, GeneticAlgorithm
        from repro.util.rng import as_generator

        rng = as_generator(ga_seed)
        timed = _TimedFitness(self._fitness(rng))
        ga = GeneticAlgorithm(
            self._ranges(),
            GAConfig(population_size=self.sizes["population"],
                     generations=self.sizes["generations"]),
        )
        gen_seconds = []
        last = [time.monotonic()]

        def callback(generation, population, fits):
            now = time.monotonic()
            gen_seconds.append(now - last[0])
            last[0] = now
            tracing.set_ctx(f"{label}/gen-{generation + 1}")

        tracing.set_ctx(f"{label}/gen-0")
        result = ga.run(timed, seed=rng, callback=callback)
        tracing.set_ctx(None)
        return result, gen_seconds, timed.seconds

    def run(self, seconds, ops) -> dict:
        seeds = derived_seeds(self.seed, 1)
        self.searches = []
        self.resume_identical, self.resume_simulated = True, 0
        gen_seconds, eval_seconds, hit_seconds = [], [], []
        fresh_wall = replay_wall = 0.0
        start = time.monotonic()
        while True:
            ga_seed = next(seeds)
            label = f"search-{len(self.searches)}"
            search_start = time.monotonic()
            result, gens, evals = self._search(ga_seed, label)
            fresh_wall += time.monotonic() - search_start
            self.searches.append((ga_seed, result))
            gen_seconds += gens
            eval_seconds += evals
            # Resume: the same search again hits the store every generation.
            records = self.store.totals()["records"]
            replay_start = time.monotonic()
            replay, _, hits = self._search(ga_seed, "re" + label)
            replay_wall += time.monotonic() - replay_start
            hit_seconds += hits
            self.resume_simulated += self.store.totals()["records"] - records
            self.resume_identical &= all(
                np.array_equal(a, b) for a, b in
                zip(result.fitness_history, replay.fitness_history))
            now = time.monotonic()
            if ops is not None and len(self.searches) >= ops:
                break
            if ops is None and now - start >= seconds:
                break
        end = time.monotonic()
        gens = len(gen_seconds)
        return {
            "t_start": start, "t_end": end, "wall": end - start,
            "fresh_wall": fresh_wall, "replay_wall": replay_wall,
            "ops": len(self.searches),
            "attempted": gens + len(hit_seconds), "failed": 0,
            "runs": (gens * self.sizes["population"]
                     * self.sizes["runs_per_genome"]),
            "steps": gens + len(hit_seconds),
            "samples": {"gen_s": gen_seconds, "latency_s": eval_seconds,
                        "hit_latency_s": hit_seconds},
            "outputs": {"fitness_digest": digest(
                f for _, r in self.searches for f in r.fitness_history)},
        }

    def check(self) -> dict:
        from repro.experiments.campaign import Campaign
        from repro.search.fitness import paper_fitness
        from repro.store import results_digest

        checks = {
            "resume_identical": bool(self.resume_identical),
            "resume_simulated_nothing": self.resume_simulated == 0,
        }
        # Twin: a seeded sample of generations re-simulated in-process by
        # the per-scenario "vectorized" backend from the stored seed.
        # Elites repeat across generations, so a generation's campaign
        # is found by its last (freshly bred) genome.
        by_genome = {}
        for info in self.store.campaigns():
            last = self.store.get_record(info.campaign_id,
                                         info.num_scenarios - 1)
            if last is not None:
                by_genome[last.params.as_array().tobytes()] = info
        generations = [(population, fits)
                       for _, result in self.searches
                       for population, fits in zip(result.generations,
                                                   result.fitness_history)]
        rng = np.random.default_rng([self.seed, 7])
        picks = rng.choice(len(generations), size=min(2, len(generations)),
                           replace=False)
        twins_ok = True
        for pick in sorted(int(p) for p in picks):
            population, fits = generations[pick]
            info = by_genome.get(population[-1].tobytes())
            if info is None:
                twins_ok = False
                continue
            twin = Campaign(
                population, backend="vectorized", table=self.table,
                runs_per_scenario=self.sizes["runs_per_genome"],
            ).run(seed=np.random.SeedSequence(info.seed_entropy))
            stored = self.store.resultset(info.campaign_id)
            twin_fits = np.array(
                [paper_fitness(r.runs.min_separation) for r in twin])
            twins_ok &= results_digest(twin) == results_digest(stored)
            twins_ok &= bool(np.array_equal(twin_fits, fits))
        checks["twin_generations"] = bool(twins_ok)
        checks["pinned_probe"] = self.probe() == PINNED["falsify"]["digest"]
        return checks

    def probe(self) -> str:
        """Fitness-history digest of the pinned reference search."""
        from repro.search.fitness import EncounterFitness
        from repro.search.ga import GAConfig, GeneticAlgorithm
        from repro.store import ResultStore
        from repro.util.rng import as_generator

        spec = PINNED["falsify"]
        rng = as_generator(spec["seed"])
        with ResultStore(":memory:") as store:
            fitness = EncounterFitness(
                self.table, num_runs=spec["runs_per_genome"], seed=rng,
                backend="vectorized-batch", store=store)
            result = GeneticAlgorithm(
                self._ranges(),
                GAConfig(population_size=spec["population"],
                         generations=spec["generations"]),
            ).run(fitness, seed=rng)
        return digest(result.fitness_history)


# ----------------------------------------------------------------------
# risk: the paper's Monte-Carlo risk ratio
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _timed_equipped_arms():
    """Time every equipped-arm ``Campaign.run`` while the block runs.

    Yields the list the wall times are appended to.
    """
    from repro.experiments.campaign import Campaign

    run = Campaign.__dict__["run"]
    seconds = []

    @functools.wraps(run)
    def timed(self, *args, **kwargs):
        start = time.monotonic()
        try:
            return run(self, *args, **kwargs)
        finally:
            if self.equipage != "none":
                seconds.append(time.monotonic() - start)

    Campaign.run = timed
    try:
        yield seconds
    finally:
        Campaign.run = run


class Risk(Workload):
    name = "risk"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sizes = (
            {"encounters": 4, "runs_per_encounter": 50, "workers": NPROC}
            if self.smoke else
            {"encounters": 32, "runs_per_encounter": 500, "workers": NPROC}
        )

    def setup(self) -> None:
        from repro.store import ResultStore

        self.table = load_table(self.cache)
        self.store = ResultStore(self.work / "risk.sqlite")
        # Warm-up estimate (own seed): first pool start and kernel call.
        self._estimator(20, self.store).estimate(
            2 * NPROC, seed=[self.seed, 99])

    def _estimator(self, runs, store):
        from repro.encounters.statistical import StatisticalEncounterModel
        from repro.montecarlo.estimator import MonteCarloEstimator

        return MonteCarloEstimator(
            self.table,
            StatisticalEncounterModel(),
            runs_per_encounter=runs,
            backend="vectorized-batch",
            workers=self.sizes["workers"],
            store=store,
        )

    @staticmethod
    def _summary(report) -> dict:
        return {
            "equipped_nmac": report.equipped_nmac.successes,
            "unequipped_nmac": report.unequipped_nmac.successes,
            "risk_ratio": report.risk_ratio,
        }

    def run(self, seconds, ops) -> dict:
        estimator = self._estimator(self.sizes["runs_per_encounter"],
                                    self.store)
        seeds = derived_seeds(self.seed, 2)
        encounters = self.sizes["encounters"]
        self.reports, self.replays = [], []
        op_seconds, arm_seconds, hit_seconds = [], [], []
        fresh_wall = replay_wall = 0.0
        with _timed_equipped_arms() as equipped_arms:
            start = time.monotonic()
            while True:
                op_seed = next(seeds)
                tracing.set_ctx(f"op-{len(self.reports)}")
                op_start = time.monotonic()
                report = estimator.estimate(encounters, seed=op_seed)
                op_end = time.monotonic()
                op_seconds.append(op_end - op_start)
                fresh_wall += op_end - op_start
                arm_seconds.append(equipped_arms[-1])
                self.reports.append(report)
                # Resume: re-estimating the same seed hits the store on
                # both arms.
                replay = estimator.estimate(encounters, seed=op_seed)
                now = time.monotonic()
                replay_wall += now - op_end
                hit_seconds.append(equipped_arms[-1])
                self.replays.append(replay)
                if ops is not None and len(self.reports) >= ops:
                    break
                if ops is None and now - start >= seconds:
                    break
            end = time.monotonic()
        tracing.set_ctx(None)
        count = len(self.reports)
        return {
            "t_start": start, "t_end": end, "wall": end - start,
            "fresh_wall": fresh_wall, "replay_wall": replay_wall,
            "ops": count, "attempted": 4 * count, "failed": 0,
            "runs": count * 2 * encounters * self.sizes["runs_per_encounter"],
            "steps": 4 * count,
            "samples": {"gen_s": op_seconds, "latency_s": arm_seconds,
                        "hit_latency_s": hit_seconds},
            "outputs": {"estimates": [self._summary(r)
                                      for r in self.reports]},
        }

    def check(self) -> dict:
        from repro.analysis.metrics import risk_ratio
        from repro.store import results_digest

        stored_ok = True
        for report in self.reports:
            for arm, rate in ((report.equipped_results, report.equipped_nmac),
                              (report.unequipped_results,
                               report.unequipped_nmac)):
                stored = self.store.resultset(arm.metadata["campaign_id"])
                stored_ok &= results_digest(stored) == results_digest(arm)
                stored_ok &= stored.nmac_count == rate.successes
            stored_ok &= report.risk_ratio == risk_ratio(
                report.equipped_nmac.successes, report.equipped_nmac.trials,
                report.unequipped_nmac.successes,
                report.unequipped_nmac.trials)
        resumed_ok = all(
            self._summary(a) == self._summary(b)
            and b.equipped_results.metadata["simulated"] == 0
            and b.unequipped_results.metadata["simulated"] == 0
            for a, b in zip(self.reports, self.replays)
        )
        return {
            "store_matches_report": bool(stored_ok),
            "resume_identical_and_simulated_nothing": bool(resumed_ok),
            "pinned_probe": self.probe() == PINNED["risk"]["expected"],
        }

    def probe(self) -> dict:
        """NMAC counts and risk ratio of the pinned reference estimate."""
        spec = PINNED["risk"]
        report = self._estimator(spec["runs_per_encounter"], None).estimate(
            spec["encounters"], seed=spec["seed"])
        return self._summary(report)


# ----------------------------------------------------------------------
# service: closed-loop POST/GET against `repro serve --queue` + fleet
# ----------------------------------------------------------------------
class Service(Workload):
    name = "service"
    #: Every block of eight requests holds exactly this mix, in seeded
    #: order: fresh to hit submissions 2:1, as in the 40 fresh + 20 hit
    #: stream this workload was sized on, plus one read of each kind.
    BLOCK = ("fresh",) * 4 + ("hit",) * 2 + ("get_campaign", "get_records")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sizes = (
            {"sample": 2, "runs": 10, "chunk_size": 1, "hit_pool": 2,
             "connections": NPROC, "fleet": NPROC}
            if self.smoke else
            {"sample": 8, "runs": 100, "chunk_size": 4, "hit_pool": 4,
             "connections": NPROC, "fleet": NPROC}
        )
        self.procs = []
        self.logs = []

    # -- processes -----------------------------------------------------
    def _launch(self, name, *command):
        log = open(self.work / f"{name}.log", "w")
        self.logs.append(log)
        argv = [sys.executable, str(HERE / "launch.py"),
                "--cache", str(self.cache)]
        if self.trace_dir is not None:
            argv += ["--trace-dir", str(self.trace_dir)]
        env = {k: v for k, v in os.environ.items()
               if k not in ("REPRO_TRACE", "REPRO_FAULT_PLAN")}
        proc = subprocess.Popen(argv + ["--", *command], stdout=log,
                                stderr=subprocess.STDOUT, env=env,
                                cwd=str(self.work))
        self.procs.append(proc)
        return proc

    def _wait_for(self, predicate, what, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for proc in self.procs:
                if proc.poll() is not None:
                    raise RuntimeError(f"{what}: a launched process exited")
            value = predicate()
            if value:
                return value
            time.sleep(0.02)
        raise TimeoutError(f"{what}: not ready after {timeout}s")

    def _port(self):
        text = (self.work / "serve.log").read_text()
        marker = "listening on http://"
        if marker not in text:
            return None
        address = text.split(marker, 1)[1].split()[0]
        return int(address.rsplit(":", 1)[1])

    def _request(self, method, path, body=None, request_id=None):
        """One request on its own connection: (status, payload, start, end)."""
        headers = {"Content-Type": "application/json"}
        if request_id is not None:
            headers["X-Perfbench-Request"] = request_id
        data = None if body is None else json.dumps(body).encode()
        start = time.monotonic()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            status = response.status
        finally:
            conn.close()
        end = time.monotonic()
        return status, json.loads(raw.decode() or "null"), start, end

    def setup(self) -> None:
        self.table = load_table(self.cache)
        store = str(self.work / "service.sqlite")
        queue = str(self.work / "queue.sqlite")
        self.store_path = store
        self._launch("serve", "serve", "--store", store, "--queue", queue,
                     "--port", "0")
        for i in range(self.sizes["fleet"]):
            self._launch(f"worker{i}", "worker", "--queue", queue,
                         "--forever")
        self.port = self._wait_for(self._port, "serve")
        self._wait_for(
            lambda: len(self._request("GET", "/workers")[1]["live"])
            >= self.sizes["fleet"],
            "fleet",
        )
        # Warm-up submission: the service loads its table and a worker
        # builds its backend before timing starts.
        status, _, _, _ = self._request("POST", "/campaigns", self._spec(
            next(derived_seeds(self.seed, 99)), chunk_size=1))
        if status != 202:
            raise RuntimeError(f"warm-up submission answered {status}")

    def _spec(self, seed, chunk_size=None):
        return {"scenarios": {"sample": self.sizes["sample"]},
                "runs": self.sizes["runs"], "seed": seed,
                "chunk_size": chunk_size or self.sizes["chunk_size"],
                "wait": True, "timeout": 120}

    def _stream(self):
        """The seeded request stream: (kind, method, path, body)."""
        rng = np.random.default_rng([self.seed, 3])
        fresh_seeds = derived_seeds(self.seed, 4)
        used = set(self.pool_seeds)
        while True:
            for kind in rng.permutation(self.BLOCK):
                yield self._request_for(str(kind), rng, fresh_seeds, used)

    def _request_for(self, kind, rng, fresh_seeds, used):
        target = int(rng.integers(len(self.pool)))
        if kind == "fresh":
            seed = next(fresh_seeds)
            while seed in used:
                seed = next(fresh_seeds)
            used.add(seed)
            return kind, "POST", "/campaigns", self._spec(seed)
        if kind == "hit":
            return kind, "POST", "/campaigns", self._spec(
                self.pool_seeds[target])
        if kind == "get_campaign":
            return kind, "GET", f"/campaigns/{self.pool[target]}", None
        return kind, "GET", f"/campaigns/{self.pool[target]}/records", None

    def run(self, seconds, ops) -> dict:
        # The hit pool: completed campaigns that hits and reads target.
        pool_seeds = derived_seeds(self.seed, 5)
        self.pool_seeds = [next(pool_seeds)
                           for _ in range(self.sizes["hit_pool"])]
        self.pool = []
        for seed in self.pool_seeds:
            status, receipt, _, _ = self._request(
                "POST", "/campaigns", self._spec(seed))
            if status != 202:
                raise RuntimeError(f"hit-pool submission answered {status}")
            self.pool.append(receipt["campaign_id"])

        stream = self._stream()
        lock = threading.Lock()
        taken = [0]
        outcomes = []
        # Per block of the stream: the (status, start, end) of its requests.
        blocks = collections.defaultdict(list)
        start = time.monotonic()

        def client():
            while True:
                with lock:
                    if ops is not None and taken[0] >= ops:
                        return
                    if ops is None and time.monotonic() - start >= seconds:
                        return
                    index = taken[0]
                    request_id = f"r{index}"
                    taken[0] += 1
                    kind, method, path, body = next(stream)
                try:
                    status, payload, t0, t1 = self._request(
                        method, path, body, request_id)
                except (OSError, http.client.HTTPException, ValueError):
                    status, payload, t0, t1 = None, None, None, None
                if t0 is not None and self.trace_dir is not None:
                    tracing.record("client.request", t0, t1, ctx=request_id,
                                   kind=kind)
                with lock:
                    outcomes.append((kind, body, status, payload, t0, t1))
                    blocks[index // len(self.BLOCK)].append((status, t0, t1))

        threads = [threading.Thread(target=client)
                   for _ in range(self.sizes["connections"])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.monotonic()
        self.outcomes = outcomes

        samples = {"gen_s": [], "latency_s": [], "hit_latency_s": []}
        failed = 0
        fresh_ok = hits_ok = 0
        self.bad_receipts = 0
        self.server_errors = 0
        for kind, body, status, payload, t0, t1 in outcomes:
            if status is None or status >= 400:
                failed += 1
                self.server_errors += status is None or status >= 500
                continue
            seconds_taken = t1 - t0
            if kind == "fresh":
                good = (payload["simulated"] == self.sizes["sample"]
                        and payload["progress"]["complete"])
                fresh_ok += good
                samples["latency_s"].append(seconds_taken)
            elif kind == "hit":
                good = (payload["simulated"] == 0
                        and payload["campaign_id"]
                        == self.pool[self.pool_seeds.index(body["seed"])])
                hits_ok += good
                samples["hit_latency_s"].append(seconds_taken)
            else:
                good = payload is not None
            self.bad_receipts += not good
        # A step is one whole block of the mix, timed as the sum of its
        # requests' latencies: the two connections interleave blocks, so
        # first send → last response would depend on that interleaving.
        samples["gen_s"] = [
            sum(t1 - t0 for _, t0, t1 in block)
            for block in blocks.values()
            if len(block) == len(self.BLOCK)
            and all(status is not None and status < 400
                    for status, _, _ in block)
        ]
        busy = {kind: sum(o[5] - o[4] for o in outcomes
                          if o[0] == kind and o[4] is not None)
                for kind in sorted(set(self.BLOCK))}
        return {
            "t_start": start, "t_end": end, "wall": end - start,
            "fresh_wall": end - start,
            "ops": len(outcomes), "attempted": len(outcomes),
            "failed": failed,
            "runs": fresh_ok * self.sizes["sample"] * self.sizes["runs"],
            "steps": len(outcomes) - failed,
            "samples": samples,
            "outputs": {
                "requests": {kind: sum(1 for o in outcomes if o[0] == kind)
                             for kind in sorted(set(self.BLOCK))},
                "fresh_ok": fresh_ok, "hits_ok": hits_ok,
                "client_time_share": {
                    kind: t / (sum(busy.values()) or 1.0)
                    for kind, t in busy.items()},
            },
        }

    def check(self) -> dict:
        from repro.experiments.campaign import Campaign
        from repro.store import ResultStore, results_digest

        fresh = [(body, payload) for kind, body, status, payload, _, _
                 in self.outcomes if kind == "fresh" and status == 202]
        rng = np.random.default_rng([self.seed, 7])
        picks = rng.choice(len(fresh), size=min(3, len(fresh)),
                           replace=False) if fresh else []
        twins_ok = bool(fresh)
        with ResultStore(self.store_path) as store:
            for i in sorted(int(p) for p in picks):
                body, receipt = fresh[i]
                spec = {k: body[k] for k in ("scenarios", "runs")}
                twin = Campaign.from_spec(spec, table=self.table).run(
                    seed=body["seed"])
                stored = store.resultset(receipt["campaign_id"])
                twins_ok &= results_digest(twin) == results_digest(stored)
        return {
            "no_5xx": self.server_errors == 0,
            "receipts_valid": self.bad_receipts == 0,
            "twin_campaigns": bool(twins_ok),
        }

    def teardown(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self.logs:
            log.close()


WORKLOADS = {cls.name: cls for cls in (Falsify, Risk, Service)}
