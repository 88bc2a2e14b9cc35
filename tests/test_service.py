"""Tests for the campaign REST service (`repro.service`).

Every endpoint is exercised through the in-process WSGI test client —
no sockets, so the full submit → progress → records → diff → watchlist
→ alert surface runs at unit-test speed against the exact routing and
serialization code the live server uses.  One ``slow``-marked test
covers the real socket path (threaded ``wsgiref`` server + urllib).

The two load-bearing guarantees from the issue are asserted directly:
a campaign submitted over the API stores bitwise-identical records to
the same spec run through ``Campaign.run``, and a degraded logic table
compared against a pinned baseline fires a ``GET /alerts`` regression.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.acasx.logic_table import LogicTable
from repro.experiments import Campaign
from repro.service import (
    CampaignService,
    Watchlist,
    WatchlistThread,
    make_app,
    make_http_server,
)
from repro.service.app import MAX_BODY_BYTES
from repro.service.service import (
    MAX_CHUNK_LANE_DECISIONS,
    MAX_REQUEST_LANE_DECISIONS,
)
from repro.service.testing import ServiceClient
from repro.store import ResultStore
from repro.store.spec import results_digest

#: A small equipped campaign spec (resolves against the tiny table).
SPEC = {
    "scenarios": ["head_on", "tail_approach"],
    "runs": 3,
    "seed": 5,
    "wait": True,
}
#: Table-free spec: no solver involved at all.
UNEQUIPPED = {**SPEC, "equipage": "none"}


def degraded_table(table) -> LogicTable:
    """A deliberately broken twin: all-zero Q means no useful advice."""
    return LogicTable(
        table.config, np.zeros_like(table.q), metadata={"degraded": True}
    )


@pytest.fixture
def store():
    with ResultStore(":memory:") as result_store:
        yield result_store


@pytest.fixture
def service(store, tiny_table):
    svc = CampaignService(
        store,
        preset="tiny",
        tables={"tiny": tiny_table, "degraded": degraded_table(tiny_table)},
    )
    yield svc
    svc.close()


@pytest.fixture
def watchlist(store):
    return Watchlist(store, abs_tolerance=0.001)


@pytest.fixture
def client(service, watchlist):
    return ServiceClient(make_app(service, watchlist))


class TestSubmitFlow:
    def test_submit_progress_records_diff(self, client):
        receipt = client.post("/campaigns", json_body=SPEC).json()
        assert client.post("/campaigns", json_body=SPEC).status == 202
        cid = receipt["campaign_id"]
        assert receipt["num_scenarios"] == 2
        assert receipt["progress"]["complete"] is True

        progress = client.get(f"/campaigns/{cid}")
        assert progress.status == 200
        body = progress.json()
        assert body["completed"] == 2
        assert body["state"] == "done"
        assert body["error"] is None

        # Prefix resolution works over the API too.
        assert client.get(f"/campaigns/{cid[:10]}").status == 200

        rows = client.get(f"/campaigns/{cid}/records").json()
        assert rows["count"] == 2
        assert [r["scenario_index"] for r in rows["records"]] == [0, 1]
        page = client.get(
            f"/campaigns/{cid}/records?limit=1&offset=1"
        ).json()
        assert [r["scenario_index"] for r in page["records"]] == [1]
        filtered = client.get(
            f"/campaigns/{cid}/records?where=nmac_rate>=0"
        ).json()
        assert filtered["count"] == 2

        other = client.post(
            "/campaigns", json_body={**UNEQUIPPED, "label": "bare"}
        ).json()
        diff = client.get(
            f"/campaigns/{cid}/diff/{other['campaign_id']}"
        ).json()
        assert diff["a"]["campaign_id"] == cid
        assert diff["b"]["label"] == "bare"
        assert "nmac_rate" in diff["deltas"]
        # Same scenario list on both sides: records pair up.
        assert diff["paired_scenarios"] == 2

        listing = client.get("/campaigns").json()["campaigns"]
        assert {c["campaign_id"] for c in listing} == {
            cid, other["campaign_id"]
        }
        assert client.get("/campaigns?limit=1").json()["campaigns"][0][
            "campaign_id"
        ] in (cid, other["campaign_id"])

        health = client.get("/healthz").json()
        assert health["status"] == "ok"
        assert health["totals"] == {"campaigns": 2, "records": 4}

    def test_api_run_is_bitwise_identical_to_campaign_run(
        self, client, service, store, tiny_table
    ):
        receipt = client.post("/campaigns", json_body=SPEC).json()
        twin_store = ResultStore(":memory:")
        campaign = Campaign.from_spec(
            dict(SPEC), table=tiny_table, ignore=service.ENVELOPE_KEYS
        )
        twin = campaign.run(seed=SPEC["seed"], store=twin_store)
        assert twin.metadata["campaign_id"] == receipt["campaign_id"]
        assert results_digest(
            store.resultset(receipt["campaign_id"])
        ) == results_digest(twin)
        twin_store.close()

    def test_resubmission_of_complete_campaign_simulates_nothing(
        self, client
    ):
        first = client.post("/campaigns", json_body=UNEQUIPPED).json()
        again = client.post(
            "/campaigns",
            json_body={k: v for k, v in UNEQUIPPED.items() if k != "wait"},
        ).json()
        assert again["campaign_id"] == first["campaign_id"]
        assert again["mode"] == "complete"
        assert again["simulated"] == 0

    def test_async_submission_completes_in_background(self, client):
        receipt = client.post(
            "/campaigns",
            json_body={k: v for k, v in UNEQUIPPED.items() if k != "wait"},
        ).json()
        assert receipt["mode"] in ("inline", "complete")
        deadline = time.time() + 30
        while True:
            body = client.get(f"/campaigns/{receipt['campaign_id']}").json()
            if body["complete"]:
                break
            assert time.time() < deadline, "campaign never completed"
            time.sleep(0.02)
        assert body["state"] == "done"

    def test_label_round_trips(self, client):
        receipt = client.post(
            "/campaigns", json_body={**UNEQUIPPED, "label": "my-label"}
        ).json()
        body = client.get(f"/campaigns/{receipt['campaign_id']}").json()
        assert body["label"] == "my-label"


class TestErrorPaths:
    def test_unknown_campaign_is_404(self, client):
        for path in (
            "/campaigns/ffffffff",
            "/campaigns/ffffffff/records",
            "/campaigns/ffffffff/diff/eeeeeeee",
        ):
            response = client.get(path)
            assert response.status == 404
            assert "error" in response.json()

    def test_unknown_path_and_method(self, client):
        assert client.get("/nope").status == 404
        assert client.post("/healthz", json_body={}).status == 405
        assert client.request("DELETE", "/campaigns").status == 405

    def test_malformed_spec_is_400(self, client):
        for bad in (
            {"runs": 2},                             # no scenarios
            {**UNEQUIPPED, "runs": -1},              # bad runs
            {**UNEQUIPPED, "typo_key": 1},           # unknown key
            {**UNEQUIPPED, "scenarios": ["nope"]},   # unknown preset
            {**UNEQUIPPED, "scenarios": [[1, 2]]},   # genome too short
            {**UNEQUIPPED, "seed": -3},              # bad seed
            {**UNEQUIPPED, "backend": "distributed"},  # service owns dispatch
            {**SPEC, "preset": "nope"},              # unknown table preset
            [1, 2, 3],                               # not an object
        ):
            response = client.post("/campaigns", json_body=bad)
            assert response.status == 400, bad
            assert "error" in response.json()

    def test_non_finite_genome_is_400_and_stores_nothing(
        self, client, store
    ):
        genome = [30.0, 0.0, 30.0, 50.0, 1.0, -10.0, 25.0, 2.5, 1.5]
        genome[0] = float("nan")
        # json.dumps writes the NaN literal, which json.loads accepts.
        response = client.post(
            "/campaigns", json_body={**UNEQUIPPED, "scenarios": [genome]}
        )
        assert response.status == 400
        assert "own_ground_speed must be finite" in response.json()["error"]
        assert store.campaigns() == []

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999", "0"])
    def test_bad_timeout_is_400_and_stores_nothing(
        self, client, store, literal
    ):
        # A NaN or infinite timeout would hold the handler thread in
        # wait() forever; 1e999 overflows to inf when parsed.
        body = json.dumps(UNEQUIPPED)[:-1] + f', "timeout": {literal}}}'
        response = client.post("/campaigns", body=body.encode("utf-8"))
        assert response.status == 400, literal
        assert "error" in response.json()
        assert store.campaigns() == []

    def test_overflowing_genome_is_400_and_stores_nothing(
        self, client, store
    ):
        genome = "[1e999, 0.0, 30.0, 50.0, 1.0, -10.0, 25.0, 2.5, 1.5]"
        body = json.dumps({**UNEQUIPPED, "scenarios": []})
        body = body.replace('"scenarios": []', f'"scenarios": [{genome}]')
        response = client.post("/campaigns", body=body.encode("utf-8"))
        assert response.status == 400
        assert "out of range" in response.json()["error"]
        assert store.campaigns() == []

    def test_long_time_to_cpa_is_400_and_stores_nothing(
        self, client, store
    ):
        # ~1e7 decisions per run: one chunk's noise tape would need
        # gigabytes, so admission refuses it before registering.
        genome = [30.0, 0.0, 1e7, 50.0, 1.0, -10.0, 25.0, 2.5, 1.5]
        response = client.post(
            "/campaigns", json_body={**UNEQUIPPED, "scenarios": [genome]}
        )
        assert response.status == 400
        error = response.json()["error"]
        assert "chunk 0" in error and "lane-decisions" in error
        assert "time_to_cpa" in error
        assert store.campaigns() == []

    def test_unbounded_runs_is_400_and_stores_nothing(self, client, store):
        # Chunking never splits a scenario's runs, so 1e7 runs of one
        # scenario is one chunk of 1e7 lanes.
        response = client.post(
            "/campaigns", json_body={**UNEQUIPPED, "runs": 10**7}
        )
        assert response.status == 400
        error = response.json()["error"]
        assert "chunk 0" in error and '"runs"' in error
        assert store.campaigns() == []

    def test_request_over_total_budget_is_400_and_stores_nothing(
        self, client, store
    ):
        # Every chunk is one scenario of 2900 runs x 1020 decisions,
        # under the per-chunk budget; 400 of them together are over the
        # per-request budget.
        genome = [30.0, 0.0, 1000.0, 50.0, 1.0, -10.0, 25.0, 2.5, 1.5]
        runs = 2900
        assert runs * 1020 <= MAX_CHUNK_LANE_DECISIONS
        assert 400 * runs * 1020 > MAX_REQUEST_LANE_DECISIONS
        response = client.post(
            "/campaigns",
            json_body={
                **UNEQUIPPED, "scenarios": [genome] * 400, "runs": runs,
                "chunk_size": 1,
            },
        )
        assert response.status == 400
        error = response.json()["error"]
        assert "per-request budget" in error and "400 scenarios" in error
        assert store.campaigns() == []

    def test_oversized_body_is_413_unread_and_stores_nothing(
        self, client, store
    ):
        class UnreadableInput:
            reads = 0

            def read(self, *args):
                UnreadableInput.reads += 1
                return b"{}"

        start = {}
        body = b"".join(client.app(
            {
                "REQUEST_METHOD": "POST",
                "PATH_INFO": "/campaigns",
                "QUERY_STRING": "",
                "CONTENT_LENGTH": str(MAX_BODY_BYTES + 1),
                "wsgi.input": UnreadableInput(),
            },
            lambda status, headers, exc_info=None: start.update(
                status=status
            ),
        ))
        assert start["status"].startswith("413 ")
        assert "exceeds" in json.loads(body)["error"]
        assert UnreadableInput.reads == 0
        assert store.campaigns() == []

    def test_malformed_body_is_400(self, client):
        assert client.post("/campaigns", body=b"{not json").status == 400
        assert client.post("/campaigns").status == 400  # empty body

    def test_malformed_where_and_params_are_400(self, client):
        cid = client.post("/campaigns", json_body=UNEQUIPPED).json()[
            "campaign_id"
        ]
        bad = client.get(f"/campaigns/{cid}/records?where=1;DROP TABLE x")
        assert bad.status == 400
        assert client.get(
            f"/campaigns/{cid}/records?limit=banana"
        ).status == 400
        assert client.get(
            f"/campaigns/{cid}/records?offset=-1"
        ).status == 400

    def test_baseline_errors(self, client):
        assert client.post(
            "/watchlist/baseline", json_body={"campaign_id": "ffffffff"}
        ).status == 404
        assert client.post(
            "/watchlist/baseline", json_body={"wrong": "shape"}
        ).status == 400


class TestWatchlist:
    def test_degraded_table_fires_regression_alert(self, client):
        baseline = client.post(
            "/campaigns", json_body={**SPEC, "label": "baseline"}
        ).json()
        pinned = client.post(
            "/watchlist/baseline",
            json_body={"campaign_id": baseline["campaign_id"][:12]},
        ).json()
        assert pinned["baseline"] == baseline["campaign_id"]

        client.post(
            "/campaigns",
            json_body={**SPEC, "preset": "degraded", "label": "broken"},
        )
        body = client.get("/alerts?refresh=1").json()
        kinds = {alert["kind"] for alert in body["alerts"]}
        assert "nmac" in kinds
        nmac = next(a for a in body["alerts"] if a["kind"] == "nmac")
        assert nmac["campaign_label"] == "broken"
        assert nmac["value"] > nmac["threshold"] >= nmac["baseline_value"]
        assert "nmac regression" in nmac["message"]

        brief = client.get("/brief")
        assert brief.status == 200
        assert brief.headers["Content-Type"].startswith("text/plain")
        assert "alerts: 1 fired" in brief.text or "fired" in brief.text
        assert "baseline" in brief.text

    def test_incomparable_campaigns_do_not_alert(self, client):
        baseline = client.post(
            "/campaigns", json_body={**SPEC, "label": "baseline"}
        ).json()
        client.post(
            "/watchlist/baseline",
            json_body={"campaign_id": baseline["campaign_id"]},
        )
        # Different scenario list → different scenarios_digest → the
        # rates measure different encounters and must not be compared,
        # however much worse they are.
        client.post(
            "/campaigns",
            json_body={**SPEC, "preset": "degraded",
                       "scenarios": ["head_on"], "label": "other-scn"},
        )
        assert client.get("/alerts?refresh=1").json()["alerts"] == []

    def test_watchlist_ranks_by_risk_and_caches(self, client):
        client.post("/campaigns", json_body=SPEC)
        snap = client.get("/watchlist?refresh=1").json()
        risks = [entry["risk"] for entry in snap["entries"]]
        assert risks == sorted(risks, reverse=True)
        assert snap["records_scanned"] == 2
        cached = client.get("/watchlist").json()
        assert cached["generated_at"] == snap["generated_at"]
        fresh = client.get("/watchlist?refresh=1").json()
        assert fresh["generated_at"] >= snap["generated_at"]

    def test_watchlist_thread_scans_and_stops(self, store, watchlist):
        thread = WatchlistThread(watchlist, interval=0.01)
        thread.start()
        deadline = time.time() + 5
        while thread.scans < 2 and time.time() < deadline:
            time.sleep(0.01)
        thread.stop()
        assert thread.scans >= 2
        assert not thread.is_alive()
        scans_after_stop = thread.scans
        time.sleep(0.05)
        assert thread.scans == scans_after_stop

    def test_watchlist_cli_shape_without_service(self, store, tiny_table):
        # Watchlist is usable standalone (the `repro watchlist` path).
        campaign = Campaign(
            ["head_on"], table=tiny_table, runs_per_scenario=2
        )
        campaign.run(seed=0, store=store)
        watch = Watchlist(store, top=1)
        brief = watch.brief(refresh=True)
        assert "1 campaign(s)" in brief
        assert "none pinned" in brief


class TestQueueMode:
    def test_fallback_worker_drains_submission(self, tmp_path):
        service = CampaignService(
            str(tmp_path / "store.sqlite"),
            queue=str(tmp_path / "queue.sqlite"),
        )
        client = ServiceClient(make_app(service))
        try:
            receipt = client.post(
                "/campaigns", json_body={**UNEQUIPPED, "timeout": 60}
            ).json()
            assert receipt["mode"] == "fallback"
            assert receipt["chunks_enqueued"] >= 1
            progress = receipt["progress"]
            assert progress["complete"] is True
            assert progress["chunks"]["done"] == progress["chunks"]["total"]

            again = client.post(
                "/campaigns",
                json_body={k: v for k, v in UNEQUIPPED.items()
                           if k != "wait"},
            ).json()
            assert again["mode"] == "complete"
        finally:
            service.close()

    def test_workers_endpoint_reports_liveness(self, tmp_path):
        import sqlite3

        queue_path = tmp_path / "queue.sqlite"
        service = CampaignService(
            str(tmp_path / "store.sqlite"), queue=str(queue_path)
        )
        client = ServiceClient(make_app(service))
        try:
            body = client.get("/workers").json()
            assert body["workers"] == [] and body["live"] == []

            # Plant one fresh and one stale liveness row directly (a
            # real worker deregisters on clean exit, so its row would
            # be gone before the assertion).
            now = body["now"]
            with sqlite3.connect(queue_path) as conn:
                conn.execute(
                    "INSERT INTO workers (worker_id, campaign_id,"
                    " started_at, heartbeat) VALUES (?, NULL, ?, ?)",
                    ("fresh-worker", now, now),
                )
                conn.execute(
                    "INSERT INTO workers (worker_id, campaign_id,"
                    " started_at, heartbeat) VALUES (?, NULL, ?, ?)",
                    ("stale-worker", now - 9999, now - 9999),
                )
            body = client.get("/workers").json()
            assert [w["worker_id"] for w in body["workers"]] == [
                "fresh-worker", "stale-worker"
            ]
            assert body["live"] == ["fresh-worker"]
            fresh, stale = body["workers"]
            assert fresh["live"] and not stale["live"]
            assert stale["heartbeat_age"] > fresh["heartbeat_age"]
        finally:
            service.close()

    def test_no_queue_means_no_fleet(self, client):
        body = client.get("/workers").json()
        assert body == {"queue": None, "workers": [], "live": []}


@pytest.mark.slow
class TestLiveSocket:
    def test_submit_and_watch_over_real_http(self, store, tmp_path):
        from urllib.error import HTTPError
        from urllib.request import Request, urlopen

        service = CampaignService(store)
        watchlist = Watchlist(store)
        server = make_http_server(
            make_app(service, watchlist), host="127.0.0.1", port=0
        )
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        base = f"http://{host}:{port}"
        try:
            body = json.dumps(UNEQUIPPED).encode()
            with urlopen(Request(f"{base}/campaigns", data=body,
                                 method="POST"), timeout=30) as response:
                assert response.status == 202
                receipt = json.loads(response.read())
            assert receipt["progress"]["complete"] is True
            cid = receipt["campaign_id"]
            with urlopen(f"{base}/campaigns/{cid}/records?limit=1",
                         timeout=30) as response:
                assert json.loads(response.read())["count"] == 1
            with urlopen(f"{base}/brief?refresh=1", timeout=30) as response:
                assert b"watchlist brief" in response.read()
            with pytest.raises(HTTPError) as excinfo:
                urlopen(f"{base}/campaigns/ffffffff", timeout=30)
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()
