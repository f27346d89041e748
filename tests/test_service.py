"""Tests for repro.service: jobs, leases, HTTP front door, worker fleet.

The acceptance spine: a cold width-4 job submitted over HTTP is claimed
by a worker under a lease and finishes with an artifact byte-identical
to an in-process ``BoolEPipeline.run``; an immediate re-submit is served
warm inline with zero planned saturations; two processes racing for one
lease elect exactly one winner, so a ``final_key`` is never executed
twice; and a hard-killed worker's successor takes over its stale lease
and resumes from its checkpoint bit-identically.
"""

import io
import json
import os
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchItemResult, BatchJob, BatchPipeline, \
    BatchReport, BoolEOptions, BoolEPipeline
from repro.generators import csa_multiplier, ripple_carry_adder
from repro.opt import post_mapping_flow
from repro.service import (
    STATE_DONE,
    STATE_DUPLICATE,
    STATE_QUEUED,
    STATE_RUNNING,
    SWEEP_DONE,
    SWEEP_RUNNING,
    JobRecord,
    JobService,
    JobSpec,
    LeaseManager,
    ServiceClient,
    ServiceError,
    ServiceServer,
    ServiceWorker,
    SweepRecord,
    job_key,
    sweep_key,
)
from repro.service.jobs import _expand_generator
from repro.store import KIND_JOB, KIND_SWEEP, ArtifactStore

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

#: Fast pipeline options used throughout (seconds, not minutes).
FAST = {"r1_iterations": 2, "r2_iterations": 2, "count_npn": False}
FAST_OPTIONS = BoolEOptions(**FAST)


def fast_request(width=3, **extra):
    request = {"arch": "csa", "width": width, "options": dict(FAST)}
    request.update(extra)
    return request


def subprocess_env():
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def payload_bytes(store, key):
    """Canonical bytes of a stored artifact's payload.

    The payload is the deterministic contract (the store's own
    round-trip tests pin it); the snapshot header's ``meta`` carries
    wall-clock timings like ``saturation_seconds`` by design, so raw
    file bytes differ across runs while payloads may not.
    """
    return json.dumps(store.get(key), sort_keys=True).encode("utf-8")


# ----------------------------------------------------------------------
# Job model
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_arch_request_materialises_wire(self):
        spec = JobSpec.from_request(fast_request())
        assert spec.name == "csa-3"
        assert spec.origin == {"arch": "csa", "width": 3, "mapped": True}
        aig = spec.build_aig()
        assert aig.num_gates == post_mapping_flow(
            csa_multiplier(3).aig).num_gates

    def test_explicit_aig_round_trips(self):
        from repro.store import aig_to_wire
        source = ripple_carry_adder(3)[0]
        spec = JobSpec.from_request({"aig": aig_to_wire(source),
                                     "name": "mine"})
        assert spec.name == "mine"
        assert spec.build_aig().num_gates == source.num_gates

    def test_payload_round_trip(self):
        spec = JobSpec.from_request(fast_request(width=2, mapped=False))
        clone = JobSpec.from_payload(spec.to_payload())
        assert clone == spec

    @pytest.mark.parametrize("bad", [
        {"arch": "nope", "width": 3},
        {"arch": "csa"},
        {"arch": "csa", "width": 0},
        {"arch": "csa", "width": 999},
        {"arch": "csa", "width": True},
        {"arch": "csa", "width": 3, "mapped": "yes"},
        {"arch": "csa", "width": 3, "options": {"bogus_field": 1}},
        {"arch": "csa", "width": 3, "options": []},
        {"aig": "not-a-wire"},
        [],
    ])
    def test_rejects_malformed_requests(self, bad):
        with pytest.raises(ValueError):
            JobSpec.from_request(bad)

    @pytest.mark.parametrize("options", [
        {"refine_rounds": [1]},
        {"r1_iterations": "abc"},
        {"r1_iterations": None},
        {"r1_iterations": True},
        {"count_npn": 1},
        {"time_limit": "60"},
        {"engine": 3},
        {"refine_rounds": -1},
        {"checkpoint_every": 0},
        {"engine": "gpu"},
        {"match_limit": 0},
        {"ban_length": 0},
        {"time_limit": float("nan")},
        {"time_limit": float("inf")},
        {"time_limit": -1},
        {"time_limit": 0},
        {"r1_iterations": -3},
        {"r2_iterations": -1},
        {"max_nodes": 0},
    ])
    def test_rejects_invalid_option_values(self, options):
        """Option values are type- and range-checked at the front door,
        so a bad value is a ValueError (HTTP 400), never a TypeError or a
        queued job that can only fail in a worker."""
        with pytest.raises(ValueError):
            JobSpec.from_request(fast_request(options=options))

    def test_accepts_well_typed_option_values(self):
        options = {"time_limit": 30, "match_limit": None,
                   "checkpoint_every": None, "refine_rounds": 2,
                   "r1_iterations": 0}
        spec = JobSpec.from_request(fast_request(options=options))
        assert spec.build_options().time_limit == 30
        assert spec.build_options().r1_iterations == 0

    def test_malformed_aig_wire_is_a_value_error(self):
        with pytest.raises(ValueError, match="malformed aig wire"):
            JobSpec.from_request({"aig": {"name": "x"}})
        with pytest.raises(ValueError, match="malformed aig wire"):
            JobSpec.from_request({"aig": {"name": "x", "inputs": [[[1], "a"]],
                                          "gates": [], "outputs": []}})

    def test_options_merge_over_defaults(self):
        spec = JobSpec.from_request(fast_request())
        options = spec.build_options(BoolEOptions(max_nodes=123))
        assert options.r1_iterations == 2
        assert options.max_nodes == 123


class TestJobKey:
    def test_stable_and_distinct_from_final_key(self):
        final = "ab" * 32
        assert job_key(final) == job_key(final)
        assert job_key(final) != final
        assert len(job_key(final)) == 64
        assert job_key(final) != job_key("cd" * 32)


class TestJobService:
    def test_submit_enqueues_and_dedups(self, tmp_path):
        service = JobService(tmp_path / "store")
        first = service.submit(fast_request())
        assert first["state"] == STATE_QUEUED
        assert first["duplicate"] is False
        assert first["plan"]["saturations"] > 0
        second = service.submit(fast_request())
        assert second["state"] == STATE_DUPLICATE
        assert second["duplicate"] is True
        assert second["job_id"] == first["job_id"]
        # Only one job record exists for the pair.
        assert len(service.records()) == 1

    def test_record_persists_as_job_kind(self, tmp_path):
        service = JobService(tmp_path / "store")
        response = service.submit(fast_request())
        job_id = response["job_id"]
        assert service.store.kinds()[job_id] == KIND_JOB
        record = service.load(job_id)
        assert record is not None
        assert record.state == STATE_QUEUED
        assert record.job_id == job_key(record.final_key)
        # The wire view hides the netlist but keeps provenance.
        view = record.public_view()
        assert "aig" not in view["spec"]
        assert view["spec"]["origin"]["arch"] == "csa"

    def test_worker_completes_and_resubmit_is_warm(self, tmp_path):
        service = JobService(tmp_path / "store")
        queued = service.submit(fast_request())
        worker = ServiceWorker(service.store, poll_interval=0.01)
        assert worker.run_once() == queued["job_id"]
        record = service.load(queued["job_id"])
        assert record.state == STATE_DONE
        assert record.result["exact_fas"] > 0
        assert record.worker == worker.owner
        # Same spec again: served inline, zero saturation bodies planned.
        warm = service.submit(fast_request())
        assert warm["state"] == STATE_DONE
        assert warm["warm"] is True
        assert warm["duplicate"] is True
        assert warm["plan"]["saturations"] == 0
        assert warm["plan"]["fully_warm"] is True

    def test_progress_surfaces_phases(self, tmp_path):
        service = JobService(tmp_path / "store")
        queued = service.submit(fast_request())
        record = service.load(queued["job_id"])
        progress = service.progress(record)
        names = [phase["name"] for phase in progress["phases"]]
        assert "saturate-r1" in names and "extract" in names
        assert progress["fully_warm"] is False
        ServiceWorker(service.store).run_once()
        progress = service.progress(service.load(queued["job_id"]))
        assert progress["fully_warm"] is True
        assert progress["cold_phases"] == []

    def test_stats_counts_states(self, tmp_path):
        service = JobService(tmp_path / "store")
        service.submit(fast_request())
        stats = service.stats()
        assert stats["queue_depth"] == 1
        assert stats["jobs"][STATE_QUEUED] == 1
        assert stats["store"]["kinds"][KIND_JOB] == 1

    def test_failed_job_records_error_and_requeues(self, tmp_path):
        service = JobService(tmp_path / "store")
        response = service.submit(fast_request())
        # Poison the queued record so the worker's run raises.
        record = service.load(response["job_id"])
        record.spec.aig_wire = {"broken": True}
        service.save(record)
        worker = ServiceWorker(service.store, poll_interval=0.01)
        worker.run_once()
        record = service.load(response["job_id"])
        assert record.state == "failed"
        assert record.error
        # Resubmitting the spec requeues a failed job instead of deduping.
        again = service.submit(fast_request())
        assert again["state"] == STATE_QUEUED


    def test_deposed_worker_failure_leaves_new_owner_record(
            self, tmp_path, monkeypatch):
        """A run that raises after another worker took the lease over must
        not save its stale copy of the record as failed."""
        service = JobService(tmp_path / "store")
        job_id = service.submit(fast_request())["job_id"]
        worker = ServiceWorker(service.store, ttl=0.2)
        lost = threading.Event()

        def heartbeat(lease):
            lost.set()
            return False

        def run(pipeline, aig, store=None):
            assert lost.wait(10)
            # The heir's claim lands while the deposed run is still going.
            heir = service.load(job_id)
            heir.worker = "heir"
            heir.add_event("claimed", time.time(), worker="heir")
            service.save(heir)
            raise RuntimeError("deposed run fails")

        monkeypatch.setattr(worker.leases, "heartbeat", heartbeat)
        monkeypatch.setattr(BoolEPipeline, "run", run)
        assert worker.run_once() is None
        record = service.load(job_id)
        assert record.state == STATE_RUNNING and record.error is None
        assert record.worker == "heir"
        assert record.events[-1]["event"] == "claimed"
        assert record.events[-1]["worker"] == "heir"

# ----------------------------------------------------------------------
# Leases
# ----------------------------------------------------------------------
class TestLeases:
    KEY = "ef" * 32

    def test_claim_release_cycle(self, tmp_path):
        manager = LeaseManager(tmp_path / "store", owner="a")
        lease = manager.claim(self.KEY)
        assert lease is not None
        assert lease.taken_over_from is None
        assert manager.store.read_lease(self.KEY)["owner"] == "a"
        manager.release(lease)
        assert manager.store.read_lease(self.KEY) is None
        assert manager.claim(self.KEY) is not None

    def test_second_claimant_loses(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = LeaseManager(store, owner="a")
        second = LeaseManager(store, owner="b")
        assert first.claim(self.KEY) is not None
        assert second.claim(self.KEY) is None

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        manager = LeaseManager(tmp_path / "store", owner="a", ttl=0.4)
        lease = manager.claim(self.KEY)
        for _ in range(3):
            time.sleep(0.2)
            assert manager.heartbeat(lease) is True
        assert not manager.store.lease_is_stale(
            manager.store.read_lease(self.KEY))

    def test_expiry_enables_takeover_and_deposes_owner(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        dead = LeaseManager(store, owner="dead", ttl=0.2)
        lease = dead.claim(self.KEY)
        time.sleep(0.3)  # heartbeat missed: lease is now stale
        assert store.lease_is_stale(store.read_lease(self.KEY))
        heir = LeaseManager(store, owner="heir", ttl=30.0)
        taken = heir.claim(self.KEY)
        assert taken is not None
        assert taken.taken_over_from == "dead"
        # The deposed owner notices on its next heartbeat and backs off.
        assert dead.heartbeat(lease) is False
        assert heir.heartbeat(taken) is True

    def test_release_does_not_steal_from_new_owner(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        dead = LeaseManager(store, owner="dead", ttl=0.1)
        stale = dead.claim(self.KEY)
        time.sleep(0.2)
        heir = LeaseManager(store, owner="heir", ttl=30.0)
        assert heir.claim(self.KEY) is not None
        dead.release(stale)  # must be a no-op: the lease is heir's now
        assert store.read_lease(self.KEY)["owner"] == "heir"

    def test_sidecar_bytes_match_json_dump(self, tmp_path):
        # The sidecar is written with json.dumps (the C encoder; json.dump
        # leaves a closure cycle per call) and keeps json.dump's bytes.
        manager = LeaseManager(tmp_path / "store", owner="host:1", ttl=30.0)
        lease = manager.claim(self.KEY)
        for write in (lambda: None, lambda: manager.heartbeat(lease)):
            write()
            text = lease.path.read_text(encoding="utf-8")
            dumped = io.StringIO()
            json.dump(json.loads(text), dumped, sort_keys=True)
            assert text == dumped.getvalue()
        manager._overwrite(lease.path, manager._payload(1.5, 2.25))
        assert lease.path.read_bytes() == (
            b'{"acquired": 1.5, "heartbeat": 2.25, "owner": "host:1", '
            b'"ttl": 30.0}')


_CONTENTION_SCRIPT = """
import sys, time
from repro.service import LeaseManager
root, owner, go_file, key = sys.argv[1:5]
manager = LeaseManager(root, owner=owner, ttl=30.0)
import os
while not os.path.exists(go_file):
    time.sleep(0.005)
lease = manager.claim(key)
print("WON" if lease is not None else "LOST")
"""


class TestLeaseContentionTwoProcesses:
    def test_exactly_one_winner(self, tmp_path):
        """Two processes race the O_EXCL claim; the filesystem picks one."""
        key = "ab" * 32
        go_file = tmp_path / "go"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _CONTENTION_SCRIPT,
                 str(tmp_path / "store"), f"racer-{index}",
                 str(go_file), key],
                env=subprocess_env(), stdout=subprocess.PIPE, text=True)
            for index in range(2)
        ]
        time.sleep(0.3)  # both racers are now spinning on the go file
        go_file.touch()
        outcomes = sorted(proc.communicate()[0].strip() for proc in procs)
        assert all(proc.returncode == 0 for proc in procs)
        assert outcomes == ["LOST", "WON"]

    def test_two_workers_never_double_execute(self, tmp_path):
        """Two worker processes drain a one-job queue: the job runs once."""
        store_root = tmp_path / "store"
        service = JobService(store_root)
        response = service.submit(fast_request())
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--root",
                 str(store_root), "work", "--max-jobs", "1",
                 "--idle-timeout", "3"],
                env=subprocess_env(), stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True)
            for _ in range(2)
        ]
        for proc in workers:
            proc.communicate(timeout=180)
            assert proc.returncode == 0
        record = service.load(response["job_id"])
        assert record.state == STATE_DONE
        # Exactly one claim, one attempt — the losing racer backed off.
        assert record.attempts == 1
        claims = [event for event in record.events
                  if event["event"] == "claimed"]
        assert len(claims) == 1


# ----------------------------------------------------------------------
# HTTP front door, end to end
# ----------------------------------------------------------------------
@pytest.fixture()
def running_server(tmp_path):
    server = ServiceServer(tmp_path / "store", port=0)
    server.start_background()
    try:
        yield server
    finally:
        server.stop_background()


class TestServiceHTTP:
    def test_healthz_and_stats(self, running_server):
        client = ServiceClient(running_server.host, running_server.port)
        assert client.healthz() == {"ok": True}
        stats = client.stats()
        assert stats["queue_depth"] == 0
        assert stats["store"]["artifacts"] == 0

    def test_unknown_routes_and_jobs_404(self, running_server):
        client = ServiceClient(running_server.host, running_server.port)
        with pytest.raises(ServiceError) as excinfo:
            client.status("ab" * 32)
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_malformed_submissions_400(self, running_server):
        client = ServiceClient(running_server.host, running_server.port)
        # ``incremental`` selected a test oracle and is no longer an
        # option: the pipeline always matches incrementally.
        for bad in [{"arch": "nope", "width": 3},
                    {"arch": "csa", "width": 3,
                     "options": {"bogus": True}},
                    {"arch": "csa", "width": 3,
                     "options": {"incremental": False}}]:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(bad)
            assert excinfo.value.status == 400

    def test_invalid_option_values_400_on_jobs_and_sweeps(
            self, running_server):
        client = ServiceClient(running_server.host, running_server.port)
        # The client sends nan as a bare ``NaN``, which json.loads accepts.
        for options in ({"refine_rounds": [1]}, {"r1_iterations": "abc"},
                        {"r1_iterations": None},
                        {"time_limit": float("nan")}):
            request = fast_request(options=options)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(request)
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                client.submit_sweep({"jobs": [request]})
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                client.submit_sweep({"generator": {
                    "archs": ["csa"], "widths": [3], "options": options}})
            assert excinfo.value.status == 400
        assert client.stats()["queue_depth"] == 0

    @staticmethod
    def _raw_exchange(server, request: bytes) -> bytes:
        """Send raw request bytes, return the full raw reply."""
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as connection:
            connection.sendall(request)
            chunks = []
            while True:
                chunk = connection.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    def test_overlong_header_line_is_400(self, running_server):
        request = (b"GET /healthz HTTP/1.1\r\nX-Big: "
                   + b"a" * 70_000 + b"\r\n\r\n")
        reply = self._raw_exchange(running_server, request)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"header line too long" in reply
        # The server survived: the next request is served normally.
        client = ServiceClient(running_server.host, running_server.port)
        assert client.healthz() == {"ok": True}

    def test_overlong_request_line_is_400(self, running_server):
        request = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
        reply = self._raw_exchange(running_server, request)
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_stalled_request_is_408(self, running_server, monkeypatch):
        """A client that sends part of a request and stalls is answered
        408 and disconnected once the read timeout passes."""
        monkeypatch.setattr("repro.service.server._READ_TIMEOUT", 0.3)
        with socket.create_connection((running_server.host,
                                       running_server.port),
                                      timeout=10) as connection:
            connection.sendall(b"GET /healthz HTTP/1.1\r\n")
            started = time.monotonic()
            chunks = []
            while True:
                chunk = connection.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        reply = b"".join(chunks)
        assert reply.startswith(b"HTTP/1.1 408 "), reply
        assert time.monotonic() - started < 5.0
        # A stalled body is bounded by the same timeout.
        stalled_body = (b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n"
                        b"\r\n{")
        assert self._raw_exchange(running_server, stalled_body).startswith(
            b"HTTP/1.1 408 ")
        client = ServiceClient(running_server.host, running_server.port)
        assert client.healthz() == {"ok": True}

    def test_too_many_headers_is_400(self, running_server):
        request = (b"GET /healthz HTTP/1.1\r\n"
                   + b"X-Same: 1\r\n" * 101 + b"\r\n")
        reply = self._raw_exchange(running_server, request)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"too many headers" in reply
        at_cap = (b"GET /healthz HTTP/1.1\r\n"
                  + b"X-Same: 1\r\n" * 100 + b"\r\n")
        assert self._raw_exchange(running_server, at_cap).startswith(
            b"HTTP/1.1 200 ")

    def test_cold_submit_worker_done_then_warm_resubmit(
            self, running_server, tmp_path):
        """The acceptance spine, over real HTTP with a width-4 job."""
        client = ServiceClient(running_server.host, running_server.port)
        response = client.submit(fast_request(width=4))
        assert response["state"] == STATE_QUEUED
        assert response["plan"]["saturations"] > 0
        final_key = response["plan"]["final_key"]

        # While queued, an identical submission collapses onto the job.
        dup = client.submit(fast_request(width=4))
        assert dup["state"] == STATE_DUPLICATE
        assert dup["job_id"] == response["job_id"]

        worker = ServiceWorker(running_server.service.store,
                               poll_interval=0.01)
        assert worker.run_forever(max_jobs=1, idle_timeout=10) == 1
        final = client.wait(response["job_id"], timeout=30)
        assert final["state"] == STATE_DONE
        assert final["progress"]["fully_warm"] is True

        # Byte-identity: the service-produced artifact equals a plain
        # in-process run's artifact in a fresh store, byte for byte.
        reference_store = ArtifactStore(tmp_path / "reference")
        aig = post_mapping_flow(csa_multiplier(4).aig)
        result = BoolEPipeline(FAST_OPTIONS).run(aig, store=reference_store)
        reference_summary = {key: value
                             for key, value in result.summary().items()
                             if key != "runtime"}
        service_summary = {key: value
                           for key, value in final["result"].items()
                           if key != "runtime"}
        assert service_summary == reference_summary
        service_store = running_server.service.store
        assert (payload_bytes(service_store, final_key)
                == payload_bytes(reference_store, final_key))

        # Warm resubmission: served inline, zero new saturations.
        warm = client.submit(fast_request(width=4))
        assert warm["state"] == STATE_DONE
        assert warm["warm"] is True
        assert warm["plan"]["saturations"] == 0
        assert warm["plan"]["cold_phases"] == []
        assert warm["result"]["exact_fas"] == final["result"]["exact_fas"]

    def test_events_stream_to_terminal_state(self, running_server):
        client = ServiceClient(running_server.host, running_server.port)
        response = client.submit(fast_request(width=2))
        worker = ServiceWorker(running_server.service.store,
                               poll_interval=0.01)
        worker.run_forever(max_jobs=1, idle_timeout=10)
        events = list(client.events(response["job_id"]))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert "claimed" in kinds and "running" in kinds
        assert kinds[-1] == "done"
        assert [event["seq"] for event in events] == list(range(len(events)))
        phase_events = [event for event in events
                        if event["event"] == "phase"]
        assert {event["name"] for event in phase_events} >= {
            "construct", "saturate-r1", "saturate-r2"}


# ----------------------------------------------------------------------
# Kill-mid-job: successor takes over the lease and resumes
# ----------------------------------------------------------------------
_KILLED_WORKER_SCRIPT = """
import sys
from repro.service import ServiceWorker
worker = ServiceWorker(sys.argv[1], ttl=0.5, poll_interval=0.05)
worker.run_forever(max_jobs=1, idle_timeout=5)
print("SURVIVED")  # only reached if the kill never fired
"""


class TestKillMidJobTakeover:
    def test_successor_resumes_from_checkpoint_bit_identically(
            self, tmp_path):
        store_root = tmp_path / "store"
        service = JobService(store_root)
        options = {**FAST, "r1_iterations": 3, "checkpoint_every": 1}
        response = service.submit(fast_request(options=options))

        marker = tmp_path / "killed.marker"
        env = subprocess_env()
        env["_REPRO_SERVICE_KILL_WORKER_ONCE"] = str(marker)
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_WORKER_SCRIPT, str(store_root)],
            env=env, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 17, proc.stdout + proc.stderr
        assert marker.exists()

        # The dead worker left a live-state record behind a dying lease.
        record = service.load(response["job_id"])
        assert record.state == STATE_RUNNING
        time.sleep(0.6)  # let the orphaned lease pass its 0.5s TTL
        store = service.store
        assert store.lease_is_stale(store.read_lease(record.final_key))

        successor = ServiceWorker(store_root, ttl=30.0, poll_interval=0.01)
        assert successor.run_forever(max_jobs=1, idle_timeout=10) == 1
        record = service.load(response["job_id"])
        assert record.state == STATE_DONE
        assert record.attempts == 2
        # The takeover resumed the dead worker's checkpoint mid-phase.
        assert record.resumed_phase in ("saturate-r1", "saturate-r2")
        takeover = [event for event in record.events
                    if event["event"] == "claimed"][-1]
        assert takeover["taken_over_from"] is not None

        # Bit-identical to an uninterrupted in-process run.
        reference_store = ArtifactStore(tmp_path / "reference")
        aig = post_mapping_flow(csa_multiplier(3).aig)
        BoolEPipeline(BoolEOptions(
            **{**FAST, "r1_iterations": 3})).run(aig, store=reference_store)
        final_key = record.final_key
        assert (payload_bytes(store, final_key)
                == payload_bytes(reference_store, final_key))


# ----------------------------------------------------------------------
# Store self-healing (verify/gc over leases + job records)
# ----------------------------------------------------------------------
class TestStoreHealing:
    KEY = "ab" * 32

    def test_verify_collects_stale_leases_only(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        dead = LeaseManager(store, owner="dead", ttl=0.1)
        dead.claim(self.KEY)
        live_key = "cd" * 32
        LeaseManager(store, owner="live", ttl=300.0).claim(live_key)
        time.sleep(0.2)
        report = store.verify()
        assert report["stale_leases"] == [self.KEY]
        assert store.read_lease(self.KEY) is None
        assert store.read_lease(live_key)["owner"] == "live"

    def test_verify_requeues_orphaned_running_jobs(self, tmp_path):
        service = JobService(tmp_path / "store")
        response = service.submit(fast_request())
        record = service.load(response["job_id"])
        record.state = STATE_RUNNING
        record.worker = "vanished:1"
        service.save(record)  # no lease on final_key: the worker is gone
        report = service.store.verify()
        assert report["requeued_jobs"] == [record.job_id]
        healed = service.load(record.job_id)
        assert healed.state == STATE_QUEUED
        assert healed.worker is None
        # And the healed job is claimable again.
        assert [job.job_id for job in service.claimable()] == [record.job_id]

    def test_verify_leaves_leased_running_jobs_alone(self, tmp_path):
        service = JobService(tmp_path / "store")
        response = service.submit(fast_request())
        record = service.load(response["job_id"])
        record.state = STATE_RUNNING
        service.save(record)
        LeaseManager(service.store, owner="busy",
                     ttl=300.0).claim(record.final_key)
        report = service.store.verify()
        assert report["requeued_jobs"] == []
        assert service.load(record.job_id).state == STATE_RUNNING

    def test_gc_sweeps_stale_leases_and_keeps_live_ones(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        LeaseManager(store, owner="dead", ttl=0.1).claim(self.KEY)
        live_key = "cd" * 32
        LeaseManager(store, owner="live", ttl=300.0).claim(live_key)
        time.sleep(0.2)
        store.gc()
        assert store.read_lease(self.KEY) is None
        assert store.read_lease(live_key)["owner"] == "live"

    def test_gc_dry_run_touches_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        LeaseManager(store, owner="dead", ttl=0.1).claim(self.KEY)
        time.sleep(0.2)
        store.gc(dry_run=True)
        assert store.read_lease(self.KEY) is not None


# ----------------------------------------------------------------------
# CLI argument plumbing
# ----------------------------------------------------------------------
class TestCliParser:
    def test_common_flags_accepted_before_and_after_subcommand(self):
        from repro.service.__main__ import _build_parser
        parser = _build_parser()
        before = parser.parse_args(["--port", "9001", "serve"])
        after = parser.parse_args(["serve", "--port", "9001"])
        assert before.port == after.port == 9001
        assert before.root == after.root == ".repro-store"
        defaulted = parser.parse_args(["--root", "/tmp/x", "work"])
        assert defaulted.root == "/tmp/x" and defaulted.port == 8765


# ----------------------------------------------------------------------
# Sweeps: server-side planning, DAG scheduling, fleet sharding
# ----------------------------------------------------------------------
def sweep_generator_request(widths=(3,), rounds=(0, 1, 2), **extra):
    """A generator-style sweep request over ``refine_rounds`` values.

    Same saturated prefix per width, so the planner schedules one cold
    leader and ``len(rounds) - 1`` dependents per width.
    """
    request = {"generator": {"archs": ["csa"], "widths": list(widths),
                             "options": dict(FAST),
                             "option_sets": [{"refine_rounds": value}
                                             for value in rounds]}}
    request.update(extra)
    return request


class TestSweepExpansion:
    def test_generator_cross_product_and_unique_names(self, tmp_path):
        service = JobService(tmp_path / "store")
        members, priority, requires = service.expand_sweep_request(
            sweep_generator_request(widths=(2, 3), rounds=(0, 1)))
        assert priority == 0 and requires == []
        names = [spec.name for spec, _, _ in members]
        # Same arch/width twice (two option sets) → uniquified suffixes.
        assert names == ["csa-2", "csa-2#2", "csa-3", "csa-3#2"]
        rounds = [spec.options["refine_rounds"] for spec, _, _ in members]
        assert rounds == [0, 1, 0, 1]

    def test_jobs_list_with_per_job_overrides(self, tmp_path):
        service = JobService(tmp_path / "store")
        members, priority, requires = service.expand_sweep_request({
            "priority": 2, "requires": ["fast-host"],
            "jobs": [fast_request(width=2),
                     fast_request(width=3, priority=7, requires=["gpu"])]})
        assert priority == 2 and requires == ["fast-host"]
        assert [(p, r) for _, p, r in members] == [
            (2, ["fast-host"]), (7, ["gpu"])]

    @pytest.mark.parametrize("bad", [
        "not-an-object",
        {},  # neither jobs nor generator
        {"jobs": [], "generator": {}},  # both
        {"jobs": "nope"},
        {"jobs": []},
        {"jobs": [fast_request()], "priority": True},
        {"jobs": [fast_request()], "priority": "high"},
        {"jobs": [fast_request()], "requires": "gpu"},
        {"jobs": [fast_request()], "requires": [""]},
        {"generator": {"widths": [3]}},  # no archs
        {"generator": {"archs": ["csa"]}},  # no widths
        {"generator": {"archs": ["csa"], "widths": [3], "bogus": 1}},
        {"generator": {"archs": ["csa"], "widths": [3],
                       "option_sets": []}},
        {"generator": {"archs": ["csa"], "widths": [3],
                       "option_sets": ["nope"]}},
    ])
    def test_rejects_malformed_sweeps(self, tmp_path, bad):
        service = JobService(tmp_path / "store")
        with pytest.raises(ValueError):
            service.expand_sweep_request(bad)

    def test_expansion_cap(self, tmp_path):
        service = JobService(tmp_path / "store")
        with pytest.raises(ValueError, match="cap"):
            service.expand_sweep_request(
                {"jobs": [fast_request()] * 257})
        # A generator is refused from its list lengths alone: the
        # 10**6-job cross product is never materialised.
        request = {"generator": {"archs": ["csa"] * 1000,
                                 "widths": [4] * 1000}}
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="1000000 jobs"):
                service.expand_sweep_request(request)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 70)
                 | st.floats(allow_nan=True) | st.text(max_size=4))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6)
_OPTION_NAMES = sorted(
    name for name in BoolEOptions.__dataclass_fields__)
_FUZZ_OPTIONS = st.dictionaries(
    st.sampled_from(_OPTION_NAMES) | st.text(max_size=4), _JSON_VALUES,
    max_size=3)
_FUZZ_ARCH = st.sampled_from(["rca", "csa", "booth", "wallace"]) \
    | _JSON_VALUES
#: Valid widths stay tiny: a fuzz example that parses builds the netlist.
_FUZZ_WIDTH = st.integers(-1, 3) | _JSON_VALUES.filter(
    lambda value: not isinstance(value, int) or isinstance(value, bool))
_FUZZ_WIRE = st.fixed_dictionaries(
    {}, optional={"name": _JSON_VALUES,
                  "inputs": st.lists(_JSON_VALUES, max_size=3),
                  "gates": st.lists(_JSON_VALUES, max_size=3),
                  "outputs": st.lists(_JSON_VALUES, max_size=3)})
_FUZZ_REQUEST = st.fixed_dictionaries(
    {}, optional={"arch": _FUZZ_ARCH, "width": _FUZZ_WIDTH,
                  "mapped": st.booleans() | _JSON_SCALARS,
                  "name": _JSON_SCALARS, "options": _FUZZ_OPTIONS
                  | _JSON_VALUES, "aig": _FUZZ_WIRE | _JSON_VALUES}
) | _JSON_VALUES
_FUZZ_GENERATOR = st.fixed_dictionaries(
    {}, optional={"arch": _FUZZ_ARCH,
                  "archs": st.lists(_FUZZ_ARCH, max_size=2) | _JSON_VALUES,
                  "widths": st.lists(_FUZZ_WIDTH, max_size=2)
                  | _JSON_VALUES,
                  "mapped": st.booleans() | _JSON_SCALARS,
                  "options": _FUZZ_OPTIONS | _JSON_VALUES,
                  "option_sets": st.lists(_FUZZ_OPTIONS, max_size=2)
                  | _JSON_VALUES,
                  "bogus": _JSON_SCALARS}) | _JSON_VALUES


class TestFrontDoorFuzz:
    """Arbitrary JSON through the request parsers: every input either
    parses or raises ``ValueError`` (the server's 400), nothing else."""

    @settings(max_examples=120, deadline=None)
    @given(_FUZZ_REQUEST)
    def test_job_request_parses_or_value_error(self, request):
        try:
            spec = JobSpec.from_request(request)
        except ValueError:
            return
        spec.build_options()

    @settings(max_examples=80, deadline=None)
    @given(_FUZZ_GENERATOR)
    def test_generator_parses_or_value_error(self, generator):
        try:
            entries = _expand_generator(generator)
            for entry in entries:
                JobSpec.from_request(entry)
        except ValueError:
            return


class TestSweepKey:
    def test_order_insensitive_and_distinct(self):
        finals = ["ab" * 32, "cd" * 32]
        assert sweep_key(finals) == sweep_key(list(reversed(finals)))
        assert len(sweep_key(finals)) == 64
        assert sweep_key(finals) != sweep_key(finals[:1])


class TestSchedulingWire:
    def test_job_record_scheduling_fields_round_trip(self):
        spec = JobSpec.from_request(fast_request(width=2))
        record = JobRecord(
            job_id="j" * 64, spec=spec, state=STATE_QUEUED,
            base_key="b" * 64, final_key="f" * 64, extraction_key=None,
            created=1.0, updated=2.0, depends_on=["d" * 64], priority=3,
            requires=["gpu"], sweep_id="s" * 64)
        clone = JobRecord.from_payload(record.to_payload())
        assert clone == record

    def test_legacy_job_payload_gets_neutral_defaults(self):
        spec = JobSpec.from_request(fast_request(width=2))
        payload = JobRecord(
            job_id="j" * 64, spec=spec, state=STATE_QUEUED,
            base_key="b" * 64, final_key="f" * 64, extraction_key=None,
            created=1.0, updated=2.0).to_payload()
        for legacy_absent in ("depends_on", "priority", "requires",
                              "sweep_id"):
            payload.pop(legacy_absent)
        record = JobRecord.from_payload(payload)
        assert record.depends_on == [] and record.priority == 0
        assert record.requires == [] and record.sweep_id is None

    def test_sweep_record_round_trip(self):
        record = SweepRecord(
            sweep_id="s" * 64, state=SWEEP_RUNNING, created=1.0,
            updated=2.0, priority=1, requires=["gpu"],
            counts={"pool": 1, "dependent": 2},
            plan={"jobs": 3},
            items=[{"name": "a", "job_id": "j" * 64,
                    "final_key": "f" * 64, "schedule": "pool",
                    "depends_on": []}])
        assert SweepRecord.from_payload(record.to_payload()) == record


class TestSweepSubmission:
    def test_shared_prefix_plans_one_leader(self, tmp_path):
        service = JobService(tmp_path / "store")
        response = service.submit_sweep(sweep_generator_request())
        assert response["state"] == SWEEP_RUNNING
        assert response["duplicate"] is False
        assert response["counts"] == {"inline": 0, "pool": 1,
                                      "dependent": 2, "duplicate": 0}
        # The plan ran the same overlay brain BatchPipeline uses.
        assert response["plan"]["saturations"] == 1
        jobs = response["jobs"]
        leader = jobs[0]
        assert leader["schedule"] == "pool" and leader["depends_on"] == []
        for dependent in jobs[1:]:
            assert dependent["schedule"] == "dependent"
            assert dependent["depends_on"] == [leader["final_key"]]
        # Durable: a kind="sweep" artifact plus one record per member.
        assert service.store.kinds()[response["sweep_id"]] == KIND_SWEEP
        assert len(service.records()) == 3
        for record in service.records():
            assert record.sweep_id == response["sweep_id"]

    def test_overlay_warm_twin_is_dependent_not_inline(self, tmp_path):
        """A saturation-only twin of an extracting leader is warm only
        through the planner's overlay: it must queue behind the leader,
        not be served on the front door before the prefix exists."""
        service = JobService(tmp_path / "store")
        twin = fast_request(width=2)
        twin["options"] = dict(twin["options"], extract=False)
        response = service.submit_sweep(
            {"jobs": [fast_request(width=2), twin]})
        assert response["counts"] == {"inline": 0, "pool": 1,
                                      "dependent": 1, "duplicate": 0}
        leader, dependent = response["jobs"]
        assert dependent["schedule"] == "dependent"
        assert dependent["depends_on"] == [leader["final_key"]]
        assert service.stats()["saturation"]["runs"] == 0
        ServiceWorker(service.store,
                      poll_interval=0.01).run_forever(idle_timeout=1.0)
        assert service.stats()["saturation"]["runs"] == 1

    def test_duplicate_members_collapse(self, tmp_path):
        service = JobService(tmp_path / "store")
        response = service.submit_sweep(
            {"jobs": [fast_request(width=2), fast_request(width=2)]})
        assert response["counts"]["duplicate"] == 1
        assert len(service.records()) == 1
        first, second = response["jobs"]
        assert first["job_id"] == second["job_id"]
        assert second["schedule"] == "duplicate"

    def test_drained_sweep_resubmits_all_inline(self, tmp_path):
        service = JobService(tmp_path / "store")
        response = service.submit_sweep(sweep_generator_request())
        worker = ServiceWorker(service.store, poll_interval=0.01)
        assert worker.run_forever(idle_timeout=1.0) == 3
        status = service.sweep_status(response["sweep_id"])
        assert status["state"] == SWEEP_DONE
        assert status["result"]["states"] == {STATE_DONE: 3}
        # The identical sweep again: same sweep id, everything inline.
        again = service.submit_sweep(sweep_generator_request())
        assert again["sweep_id"] == response["sweep_id"]
        assert again["duplicate"] is True
        assert again["state"] == SWEEP_DONE
        assert again["counts"] == {"inline": 3, "pool": 0,
                                   "dependent": 0, "duplicate": 0}
        # Inline serves executed no saturation bodies at all.
        assert service.stats()["saturation"]["runs"] == 1

    def test_stats_sweeps_section(self, tmp_path):
        service = JobService(tmp_path / "store")
        service.submit_sweep(sweep_generator_request())
        stats = service.stats()
        assert stats["sweeps"]["total"] == 1
        assert stats["sweeps"]["live"] == 1
        assert stats["sweeps"]["states"] == {SWEEP_RUNNING: 1}
        assert stats["sweeps"]["schedules"]["pool"] == 1
        assert stats["sweeps"]["schedules"]["dependent"] == 2
        # Both dependents are queued behind the un-landed leader key.
        assert stats["sweeps"]["blocked_on_dependency"] == 2
        ServiceWorker(service.store,
                      poll_interval=0.01).run_forever(idle_timeout=1.0)
        stats = service.stats()
        assert stats["sweeps"]["live"] == 0
        assert stats["sweeps"]["states"] == {SWEEP_DONE: 1}
        assert stats["sweeps"]["blocked_on_dependency"] == 0


class TestDependencyGating:
    def test_dependents_invisible_until_leader_lands(self, tmp_path):
        service = JobService(tmp_path / "store")
        response = service.submit_sweep(sweep_generator_request())
        leader_final = response["jobs"][0]["final_key"]
        claimable = service.claimable()
        assert [record.job_id for record in claimable] == [
            response["jobs"][0]["job_id"]]
        assert service.store.missing_keys([leader_final]) == [leader_final]
        # The leader's artifact landing is the *only* unblock signal.
        worker = ServiceWorker(service.store, poll_interval=0.01)
        assert worker.run_once() == response["jobs"][0]["job_id"]
        assert service.store.probe_all([leader_final])
        unblocked = {record.job_id for record in service.claimable()}
        assert unblocked == {job["job_id"]
                             for job in response["jobs"][1:]}

    def test_stale_leader_lease_takeover_unblocks_dependents(
            self, tmp_path):
        service = JobService(tmp_path / "store")
        response = service.submit_sweep(sweep_generator_request())
        leader = service.load(response["jobs"][0]["job_id"])
        # Simulate a worker dying mid-leader: live state, dying lease.
        leader.state = STATE_RUNNING
        leader.worker = "dead:1"
        service.save(leader)
        LeaseManager(service.store, owner="dead",
                     ttl=0.1).claim(leader.final_key)
        time.sleep(0.2)
        # Dependents stay blocked; the stale leader is claimable again.
        assert [record.job_id for record in service.claimable()] == [
            leader.job_id]
        successor = ServiceWorker(service.store, ttl=30.0,
                                  poll_interval=0.01)
        assert successor.run_forever(idle_timeout=1.0) == 3
        status = service.sweep_status(response["sweep_id"])
        assert status["state"] == SWEEP_DONE


class TestPriorityAndCapabilities:
    def test_priority_orders_claimable(self, tmp_path):
        service = JobService(tmp_path / "store")
        response = service.submit_sweep({"jobs": [
            fast_request(width=2),
            fast_request(width=3, priority=5)]})
        ordered = [record.job_id for record in service.claimable()]
        assert ordered == [response["jobs"][1]["job_id"],
                           response["jobs"][0]["job_id"]]

    def test_sweep_claimed_in_submission_order(self, tmp_path):
        """Members of one sweep share ``created``; their claim order is
        the submission order even when their job ids sort the other way
        (a key roll must not reshuffle which job a fleet starts first)."""
        requests = [fast_request(width=width) for width in (2, 3, 4)]
        probe = JobService(tmp_path / "probe").submit_sweep(
            {"jobs": requests})
        ids = [job["job_id"] for job in probe["jobs"]]
        # Submit in descending job-id order: job_id alone would claim
        # them in exactly the reverse order.
        order = sorted(range(len(requests)), key=ids.__getitem__,
                       reverse=True)
        service = JobService(tmp_path / "store")
        response = service.submit_sweep(
            {"jobs": [requests[index] for index in order]})
        submitted = [job["job_id"] for job in response["jobs"]]
        assert submitted == sorted(submitted, reverse=True)
        assert [record.job_id for record in service.claimable()] == submitted
        assert [service.load(job_id).position
                for job_id in submitted] == [0, 1, 2]

    def test_position_defaults_to_zero(self, tmp_path):
        """Single jobs and records written before ``position`` existed
        sort as position 0."""
        service = JobService(tmp_path / "store")
        job_id = service.submit(fast_request(width=2))["job_id"]
        record = service.load(job_id)
        assert record.position == 0
        payload = record.to_payload()
        del payload["position"]
        assert JobRecord.from_payload(payload).position == 0

    def test_capability_gate_filters_claimable(self, tmp_path):
        service = JobService(tmp_path / "store")
        service.submit_sweep({"jobs": [fast_request(width=2)],
                              "requires": ["gpu"]})
        assert service.claimable(()) == []
        assert service.claimable(("cpu",)) == []
        assert len(service.claimable(("gpu", "cpu"))) == 1
        # None disables the filter: the admin's whole-queue view.
        assert len(service.claimable(None)) == 1

    def test_worker_without_capability_never_claims(self, tmp_path):
        service = JobService(tmp_path / "store")
        response = service.submit_sweep({"jobs": [fast_request(width=2)],
                                         "requires": ["gpu"]})
        plain = ServiceWorker(service.store, poll_interval=0.01)
        assert plain.run_once() is None
        tagged = ServiceWorker(service.store, poll_interval=0.01,
                               capabilities=["gpu", "cpu"])
        assert tagged.run_once() == response["jobs"][0]["job_id"]


class TestWorkerIdleBackoff:
    def test_delay_doubles_with_jitter_and_caps(self, tmp_path):
        worker = ServiceWorker(tmp_path / "store", poll_interval=0.1)
        for streak, factor in [(0, 1), (1, 2), (2, 4), (3, 8), (9, 8)]:
            ceiling = 0.1 * factor
            samples = [worker._idle_delay(streak) for _ in range(50)]
            assert all(0.5 * ceiling <= delay < ceiling
                       for delay in samples)
        # Jitter is actually random, not a constant factor.
        assert len({worker._idle_delay(3) for _ in range(10)}) > 1

    def test_idle_timeout_not_overslept_by_backoff(self, tmp_path):
        worker = ServiceWorker(tmp_path / "store", poll_interval=0.2)
        started = time.monotonic()
        assert worker.run_forever(idle_timeout=0.5) == 0
        # The clamp keeps the exit near the deadline even though the
        # raw back-off (up to 1.6s) exceeds the whole budget.
        assert time.monotonic() - started < 1.2


# ----------------------------------------------------------------------
# Sweeps over HTTP + client deadline semantics
# ----------------------------------------------------------------------
class TestSweepHTTP:
    def test_submit_sweep_roundtrip_and_rollup(self, running_server):
        client = ServiceClient(running_server.host, running_server.port)
        response = client.submit_sweep(
            sweep_generator_request(rounds=(0, 1)))
        assert response["state"] == SWEEP_RUNNING
        assert response["counts"]["pool"] == 1
        assert response["counts"]["dependent"] == 1
        worker = ServiceWorker(running_server.service.store,
                               poll_interval=0.01)
        assert worker.run_forever(idle_timeout=2.0) == 2
        final = client.wait_sweep(response["sweep_id"], timeout=30)
        assert final["state"] == SWEEP_DONE
        assert final["progress"]["states"] == {STATE_DONE: 2}
        assert final["progress"]["blocked_on_dependency"] == 0
        stats = client.stats()
        assert stats["sweeps"]["states"] == {SWEEP_DONE: 1}

    def test_sweep_http_errors(self, running_server):
        client = ServiceClient(running_server.host, running_server.port)
        with pytest.raises(ServiceError) as excinfo:
            client.submit_sweep({"jobs": []})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.sweep_status("ab" * 32)
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/sweeps/" + "ab" * 32)
        assert excinfo.value.status == 405
        # The in-process server refuses an oversized generator before it
        # materialises the 10**6-job cross product.
        tracemalloc.start()
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.submit_sweep({"generator": {"archs": ["csa"] * 1000,
                                                   "widths": [4] * 1000}})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert excinfo.value.status == 400
        assert peak < 1 << 20


class TestClientSharedDeadline:
    def test_sweep_timeout_is_one_wall_clock_budget(self, running_server):
        """N live jobs share one deadline — the wait can never stretch
        to N × timeout (the bug this guards against)."""
        client = ServiceClient(running_server.host, running_server.port)
        requests = [fast_request(width=2), fast_request(width=3)]
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            client.sweep(requests, timeout=1.0)  # no workers running
        elapsed = time.monotonic() - started
        assert elapsed < 1.9  # per-job budgets would take >= 2s

    def test_wait_accepts_explicit_deadline(self, running_server):
        client = ServiceClient(running_server.host, running_server.port)
        response = client.submit(fast_request(width=2))
        with pytest.raises(TimeoutError):
            client.wait(response["job_id"],
                        deadline=time.monotonic() + 0.2)


# ----------------------------------------------------------------------
# Two-subprocess-worker fleet drains a shared-prefix sweep
# ----------------------------------------------------------------------
class TestTwoWorkerFleetSweep:
    def test_one_saturation_fleet_wide_and_byte_identical(
            self, running_server, tmp_path):
        """The tentpole acceptance: a cold ``refine_rounds`` ∈ {0, 1, 2}
        sweep POSTed to a two-worker fleet saturates exactly once, and
        every artifact is byte-identical to an in-process
        ``BatchPipeline`` run — across different ``PYTHONHASHSEED``
        values per worker."""
        client = ServiceClient(running_server.host, running_server.port)
        response = client.submit_sweep(sweep_generator_request())
        assert response["counts"] == {"inline": 0, "pool": 1,
                                      "dependent": 2, "duplicate": 0}

        workers = []
        for hash_seed in ("0", "31337"):
            env = subprocess_env()
            env["PYTHONHASHSEED"] = hash_seed
            workers.append(subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--root",
                 str(running_server.service.store.root), "work",
                 "--idle-timeout", "10"],
                env=env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True))
        final = client.wait_sweep(response["sweep_id"], timeout=240)
        for proc in workers:
            proc.communicate(timeout=240)
            assert proc.returncode == 0
        assert final["state"] == SWEEP_DONE
        assert final["progress"]["states"] == {STATE_DONE: 3}

        # Exactly one saturation across the whole fleet: the dependents
        # restored the leader's saturated prefix instead of re-matching.
        stats = client.stats()
        assert stats["saturation"]["runs"] == 1

        # Byte-identity against the in-process batch engine, fresh store.
        reference_store = ArtifactStore(tmp_path / "reference")
        aig = post_mapping_flow(csa_multiplier(3).aig)
        reference_jobs = [
            BatchJob(name=f"r{value}", aig=aig,
                     options=BoolEOptions(
                         **{**FAST, "refine_rounds": value}))
            for value in (0, 1, 2)]
        report = BatchPipeline(FAST_OPTIONS, executor="serial",
                               store=reference_store).run(reference_jobs)
        assert all(item.ok for item in report.items)
        service_store = running_server.service.store
        for job in response["jobs"]:
            assert (payload_bytes(service_store, job["final_key"])
                    == payload_bytes(reference_store, job["final_key"]))


class TestSweepCli:
    def test_submit_sweep_flags_parse(self):
        from repro.service.__main__ import _build_parser
        args = _build_parser().parse_args(
            ["submit", "--sweep", "--archs", "csa,rca",
             "--widths", "4,8", "--refine-rounds", "0,1,2",
             "--priority", "2", "--require", "gpu", "--wait"])
        assert args.sweep and args.archs == "csa,rca"
        assert args.widths == "4,8" and args.refine_rounds == "0,1,2"
        assert args.priority == 2 and args.require == ["gpu"]

    def test_sweep_flags_require_sweep_mode(self):
        from repro.service.__main__ import _build_parser, _cmd_submit
        args = _build_parser().parse_args(
            ["submit", "--widths", "4,8"])
        with pytest.raises(SystemExit):
            _cmd_submit(args)

    def test_work_capability_and_sweep_subcommand_parse(self):
        from repro.service.__main__ import _build_parser
        parser = _build_parser()
        work = parser.parse_args(["work", "--capability", "gpu",
                                  "--capability", "fast-host"])
        assert work.capability == ["gpu", "fast-host"]
        sweep = parser.parse_args(["sweep", "ab" * 32, "--wait"])
        assert sweep.sweep_id == "ab" * 32 and sweep.wait is True

    def test_csv_helper(self):
        from repro.service.__main__ import _csv
        assert _csv("a, b,,c") == ["a", "b", "c"]


# ----------------------------------------------------------------------
# BatchReport.merge
# ----------------------------------------------------------------------
def _report(names_runtimes, wall_time):
    items = [BatchItemResult(name=name, ok=True, runtime=runtime,
                             summary={"exact_fas": 1.0, "runtime": runtime})
             for name, runtime in names_runtimes]
    return BatchReport(items=items, wall_time=wall_time)


class TestBatchReportMerge:
    def test_merge_sorts_items_and_takes_max_wall_time(self):
        left = _report([("b", 1.0), ("a", 2.0)], wall_time=3.0)
        right = _report([("c", 4.0)], wall_time=5.0)
        merged = BatchReport.merge(left, right)
        assert [item.name for item in merged.items] == ["a", "b", "c"]
        assert merged.wall_time == 5.0
        assert merged.plan is None
        assert merged.total_runtime == pytest.approx(7.0)

    def test_merge_is_deterministic_and_aggregate_additive(self):
        left = _report([("a", 1.0)], wall_time=1.0)
        right = _report([("b", 2.0)], wall_time=2.0)
        once = BatchReport.merge(left, right)
        again = BatchReport.merge(left, right)
        assert ([item.name for item in once.items]
                == [item.name for item in again.items])
        assert once.deterministic_aggregate() == again.deterministic_aggregate()
        expected = {}
        for shard in (left, right):
            for key, value in shard.deterministic_aggregate().items():
                expected[key] = expected.get(key, 0.0) + value
        assert once.deterministic_aggregate() == expected

    def test_empty_merge_and_zero_guards(self):
        merged = BatchReport.merge()
        assert merged.items == []
        assert merged.wall_time == 0.0
        assert merged.throughput == 0.0
        assert merged.speedup == 0.0
        # All-warm merged shard: real wall clock, zero summed runtime.
        warm = BatchReport.merge(_report([("a", 0.0)], wall_time=2.0))
        assert warm.total_runtime == 0.0
        assert warm.speedup == 0.0
        assert warm.throughput == pytest.approx(0.5)

    def test_merge_of_real_shards_matches_single_batch(self, tmp_path):
        jobs = [ripple_carry_adder(3)[0], ripple_carry_adder(4)[0]]
        whole = BatchPipeline(FAST_OPTIONS, executor="serial").run(jobs)
        shard_a = BatchPipeline(FAST_OPTIONS, executor="serial").run(
            [ripple_carry_adder(3)[0]])
        shard_b = BatchPipeline(FAST_OPTIONS, executor="serial").run(
            [ripple_carry_adder(4)[0]])
        merged = BatchReport.merge(shard_a, shard_b)
        assert (merged.deterministic_aggregate()
                == whole.deterministic_aggregate())
        assert merged.num_ok == 2
