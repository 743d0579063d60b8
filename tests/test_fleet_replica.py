"""Replica lifecycle tests: subprocess launch/drain, fleet health monitoring,
restart detection via replica identity.

Subprocess replicas are real ``repro-serve --http`` workers, so these tests
exercise the exact process-supervision path the ``repro-fleet`` CLI and the
CI fleet-smoke job run — ephemeral-port parsing, SIGTERM drain, SIGKILL
crash recovery.  In-process replicas cover the fast path tests and
benchmarks compose fleets from.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.fleet.replica import (
    FleetError,
    InProcessReplica,
    ReplicaFleet,
    SubprocessReplica,
)
from repro.obs.metrics import MetricsRegistry


def _wait_until(predicate, timeout: float = 30.0, interval: float = 0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestInProcessReplica:
    def test_lifecycle_and_health(self):
        replica = InProcessReplica("r0")
        assert not replica.alive_process()
        url = replica.start()
        try:
            assert url.startswith("http://")
            assert replica.alive_process()
            payload = replica.health()
            assert payload["status"] == "ok"
            assert payload["replica_id"]
            assert payload["started_at"] > 0
        finally:
            replica.signal_stop()
            assert replica.wait_stopped() == 0
        assert not replica.alive_process()

    def test_restart_changes_identity(self):
        replica = InProcessReplica("r0")
        replica.start()
        first = replica.health()["replica_id"]
        replica.kill()
        replica.start()
        try:
            assert replica.health()["replica_id"] != first
        finally:
            replica.kill()

    def test_double_start_is_rejected(self):
        replica = InProcessReplica("r0")
        replica.start()
        try:
            with pytest.raises(FleetError):
                replica.start()
        finally:
            replica.kill()

    def test_health_before_start_is_an_error(self):
        with pytest.raises(FleetError):
            InProcessReplica("r0").health()


class TestSubprocessReplica:
    def test_launch_health_and_graceful_drain(self):
        replica = SubprocessReplica("worker-0")
        url = replica.start()
        try:
            assert url.startswith("http://127.0.0.1:")
            assert replica.alive_process()
            payload = replica.health(timeout=10.0)
            assert payload["status"] == "ok"
            assert payload["pid"] == replica.process.pid
        finally:
            replica.signal_stop()
            code = replica.wait_stopped(timeout=30.0)
        # SIGTERM takes the CLI's graceful path: drain, then exit 0.
        assert code == 0
        assert not replica.alive_process()
        assert any("drained and shut down cleanly" in line
                   for line in replica.output)

    def test_kill_is_reaped_with_nonzero_code(self):
        replica = SubprocessReplica("worker-0")
        replica.start()
        replica.kill()
        assert not replica.alive_process()
        assert replica.returncode != 0


class _ParkedProbeReplica:
    """Replica stub whose health probe parks on an event while holding the
    answer it read beforehand: a probe in flight across a kill."""

    name = "r0"
    url = "http://stub.invalid"

    def __init__(self) -> None:
        self.alive = True
        self.probing = threading.Event()
        self.release = threading.Event()

    def alive_process(self) -> bool:
        return self.alive

    def health(self, timeout: float) -> dict:
        answer = {"replica_id": "stub-0", "started_at": 0.0}
        self.probing.set()
        assert self.release.wait(timeout=30.0)
        return answer


class _AnnouncingLock:
    """Lock that sets ``progress`` when a caller finds it held."""

    def __init__(self, progress: threading.Event) -> None:
        self._lock = threading.Lock()
        self._progress = progress

    def __enter__(self) -> None:
        if not self._lock.acquire(blocking=False):
            self._progress.set()
            self._lock.acquire()

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class TestReplicaFleet:
    def test_stale_sweep_cannot_resurrect_a_dead_replica(self):
        """A sweep holding a pre-kill health answer must not leave the
        replica live once a sweep started after the kill has returned."""
        replica = _ParkedProbeReplica()
        # Never started: no monitor thread, every sweep is driven from here.
        fleet = ReplicaFleet([replica], restart=False)
        # The fresh sweep below either returns (nothing orders it against
        # the stale one) or queues behind it; both count as progress.
        fresh_progress = threading.Event()
        fleet._sweep_lock = _AnnouncingLock(fresh_progress)

        def fresh_sweep() -> None:
            fleet.probe_now()
            fresh_progress.set()

        stale = threading.Thread(target=fleet.probe_now)
        stale.start()
        assert replica.probing.wait(timeout=30.0)
        replica.alive = False  # the kill: the parked answer is now stale
        fresh = threading.Thread(target=fresh_sweep)
        fresh.start()
        assert fresh_progress.wait(timeout=30.0)
        replica.release.set()
        for sweep in (stale, fresh):
            sweep.join(timeout=30.0)
            assert not sweep.is_alive()
        assert fleet.live_ids() == frozenset()
        assert fleet.url_of("r0") is None

    def test_requires_unique_nonempty_replicas(self):
        with pytest.raises(FleetError):
            ReplicaFleet([])
        with pytest.raises(FleetError):
            ReplicaFleet([InProcessReplica("a"), InProcessReplica("a")])

    def test_start_probe_and_drain(self):
        fleet = ReplicaFleet([InProcessReplica(f"r{i}") for i in range(2)],
                             health_interval=10.0)
        fleet.start()
        try:
            assert fleet.ids() == ("r0", "r1")
            assert fleet.live_ids() == frozenset({"r0", "r1"})
            assert fleet.url_of("r0").startswith("http://")
            states = fleet.states()
            assert states["r0"]["alive"] and states["r0"]["replica_id"]
            assert fleet.telemetry.gauge("fleet.replicas_live").value == 2
        finally:
            codes = fleet.drain()
        assert codes == {"r0": 0, "r1": 0}
        assert fleet.live_ids() == frozenset()

    def test_mark_dead_heals_on_next_probe(self):
        fleet = ReplicaFleet([InProcessReplica("r0")], health_interval=10.0)
        with fleet:
            fleet.mark_dead("r0")
            assert fleet.live_ids() == frozenset()
            assert fleet.url_of("r0") is None
            # The replica is actually fine: one probe revives it.
            fleet.probe_now()
            assert fleet.live_ids() == frozenset({"r0"})
            assert fleet.telemetry.counter(
                "fleet.replica_marked_dead", replica="r0").value == 1

    def test_dead_replica_is_restarted_with_new_identity(self):
        telemetry = MetricsRegistry()
        fleet = ReplicaFleet(
            [SubprocessReplica("worker-0")], telemetry=telemetry,
            health_interval=0.2, backoff_initial=0.1, probe_timeout=10.0)
        fleet.start()
        try:
            assert _wait_until(lambda: fleet.live_ids(), timeout=30.0)
            first_id = fleet.states()["worker-0"]["replica_id"]
            assert first_id
            # Crash the worker: the monitor must notice, relaunch it, and
            # flag the identity change (the shard cache went cold).
            fleet._replicas[0].kill()
            assert _wait_until(
                lambda: (fleet.states()["worker-0"]["replica_id"]
                         not in (None, first_id)
                         and fleet.live_ids()),
                timeout=60.0)
            assert telemetry.counter("fleet.replica_died",
                                     replica="worker-0").value >= 1
            assert telemetry.counter("fleet.replica_restarted",
                                     replica="worker-0").value >= 1
            assert fleet.states()["worker-0"]["restarts"] >= 1
        finally:
            fleet.drain()

    def test_no_restart_mode_leaves_replica_dead(self):
        fleet = ReplicaFleet([InProcessReplica("r0"), InProcessReplica("r1")],
                             health_interval=10.0, restart=False)
        with fleet:
            fleet._replicas[0].kill()
            fleet.probe_now()
            assert fleet.live_ids() == frozenset({"r1"})
            fleet.probe_now()
            assert fleet.live_ids() == frozenset({"r1"})
