"""Replica lifecycle: launch, health-probe, restart, drain.

Two replica flavours behind one small lifecycle surface (``start`` /
``alive_process`` / ``health`` / ``signal_stop`` / ``wait_stopped`` /
``kill``):

* :class:`SubprocessReplica` — the production shape: a ``repro-serve
  --http`` worker launched as a subprocess on an ephemeral port (the bound
  URL is parsed from its announcement line).  Killing the *process* is the
  failure mode the fleet is built to survive, so tests can SIGKILL one
  mid-request and watch the router fail over.
* :class:`InProcessReplica` — a :class:`~repro.server.http.SolveHTTPServer`
  in this process, each with its own artifact cache and telemetry registry.
  Same wire surface, none of the subprocess startup cost: tests and
  benchmarks compose fleets of these where process isolation is not the
  point.

:class:`ReplicaFleet` owns an ordered set of replicas and keeps them alive:
a monitor thread probes ``GET /v1/healthz`` on an interval, marks replicas
dead when their process exits (or health probing fails repeatedly), restarts
them with exponential backoff, and — via the ``replica_id`` / ``started_at``
fields the health answer carries — detects *silent* restarts, emitting
``fleet.replica_restarted`` so operators know that replica's
fingerprint-shard cache is cold again.  The router consumes only
:meth:`ReplicaFleet.live_ids` / :meth:`ReplicaFleet.url_of` /
:meth:`ReplicaFleet.mark_dead`; everything else is the fleet healing itself.
"""

from __future__ import annotations

import collections
import os
import subprocess
import sys
import threading
import time

from repro.client.http import HTTPClient
from repro.exceptions import ReproError
from repro.logging_utils import get_logger
from repro.obs.metrics import MetricsRegistry

__all__ = ["FleetError", "SubprocessReplica", "InProcessReplica",
           "ReplicaFleet"]

_LOG = get_logger("fleet.replica")

#: Announcement line prefix ``repro-serve --http`` prints once bound (the
#: ephemeral port is parsed out of it).
_LISTENING_PREFIX = "repro-serve listening on "


class FleetError(ReproError):
    """A replica could not be launched, probed or stopped as requested."""


def _repro_pythonpath() -> str:
    """PYTHONPATH that makes :mod:`repro` importable in a child process."""
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    if not existing:
        return package_root
    if package_root in existing.split(os.pathsep):
        return existing
    return package_root + os.pathsep + existing


class SubprocessReplica:
    """One ``repro-serve --http`` worker as a managed subprocess.

    Parameters
    ----------
    name:
        Stable fleet-side name (``"replica-0"``); this is what the hash
        ring places — it never changes across restarts, while the port (and
        the server's ``replica_id``) do.
    host:
        Bind address of the worker.
    extra_args:
        Additional ``repro-serve`` flags (``--store``, ``--trace-dir``,
        ``--batch-mode``, ...).
    startup_timeout:
        Seconds to wait for the announcement line before declaring the
        launch failed.
    """

    def __init__(self, name: str, *, host: str = "127.0.0.1",
                 extra_args: tuple[str, ...] = (),
                 startup_timeout: float = 60.0) -> None:
        self.name = str(name)
        self.host = host
        self.extra_args = tuple(extra_args)
        self.startup_timeout = float(startup_timeout)
        self.process: subprocess.Popen | None = None
        self.url: str | None = None
        #: Tail of the worker's combined stdout/stderr (diagnostics).
        self.output: collections.deque[str] = collections.deque(maxlen=200)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> str:
        """Launch the worker and return its base URL (ephemeral port)."""
        if self.process is not None and self.process.poll() is None:
            raise FleetError(f"replica {self.name} is already running")
        env = dict(os.environ)
        env["PYTHONPATH"] = _repro_pythonpath()
        command = [sys.executable, "-u", "-m", "repro.server.cli", "--http",
                   "--host", self.host, "--port", "0", *self.extra_args]
        self.url = None
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        deadline = time.monotonic() + self.startup_timeout
        assert self.process.stdout is not None
        while True:
            line = self.process.stdout.readline()
            if line:
                self.output.append(line.rstrip("\n"))
                if line.startswith(_LISTENING_PREFIX):
                    self.url = line[len(_LISTENING_PREFIX):].strip()
                    break
            if self.process.poll() is not None:
                raise FleetError(
                    f"replica {self.name} exited with code "
                    f"{self.process.returncode} before binding; output: "
                    f"{' | '.join(self.output)}")
            if time.monotonic() > deadline:
                self.kill()
                raise FleetError(
                    f"replica {self.name} did not announce its port within "
                    f"{self.startup_timeout} s")
        # Keep draining the pipe so the worker can never block on a full
        # stdout buffer; the tail stays available for diagnostics.
        threading.Thread(target=self._drain_output,
                         name=f"replica-output-{self.name}",
                         daemon=True).start()
        _LOG.info("replica %s serving on %s (pid %d)",
                  self.name, self.url, self.process.pid)
        return self.url

    def _drain_output(self) -> None:
        process = self.process
        if process is None or process.stdout is None:
            return
        for line in process.stdout:
            self.output.append(line.rstrip("\n"))

    def alive_process(self) -> bool:
        """Whether the worker process is still running."""
        return self.process is not None and self.process.poll() is None

    @property
    def returncode(self) -> int | None:
        """Exit code once the process has been reaped (``None`` before)."""
        return None if self.process is None else self.process.poll()

    def health(self, timeout: float = 2.0) -> dict:
        """``GET /v1/healthz`` against the worker (raises when unreachable)."""
        if self.url is None:
            raise FleetError(f"replica {self.name} has no URL (not started)")
        client = HTTPClient(self.url, timeout=timeout,
                            connect_timeout=timeout, connect_retries=0)
        return client.health()

    def signal_stop(self) -> None:
        """Ask for a graceful drain (SIGTERM → the CLI's clean-exit path)."""
        if self.alive_process():
            assert self.process is not None
            self.process.terminate()

    def wait_stopped(self, timeout: float = 30.0) -> int | None:
        """Reap the process; SIGKILL when the drain overruns ``timeout``."""
        if self.process is None:
            return None
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            _LOG.warning("replica %s did not drain within %.1f s; killing",
                         self.name, timeout)
            self.process.kill()
            return self.process.wait(timeout=10.0)

    def kill(self) -> None:
        """Hard-stop the worker (SIGKILL), reaping it."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10.0)


class InProcessReplica:
    """A :class:`~repro.server.http.SolveHTTPServer` posing as a replica.

    Each ``start`` builds a *fresh* server — and, unless the caller pinned
    one, a fresh :class:`~repro.service.cache.ArtifactCache` — so restarts
    have honest cold-cache semantics.  ``server_kwargs`` are forwarded to
    :class:`~repro.server.server.SolveServer`.
    """

    def __init__(self, name: str, **server_kwargs) -> None:
        self.name = str(name)
        self._server_kwargs = dict(server_kwargs)
        self.http_server = None
        self.url: str | None = None
        self._stopper: threading.Thread | None = None

    def start(self) -> str:
        """Start a fresh HTTP server on an ephemeral port."""
        from repro.server.http import SolveHTTPServer
        from repro.service.cache import ArtifactCache

        if self.http_server is not None:
            raise FleetError(f"replica {self.name} is already running")
        kwargs = dict(self._server_kwargs)
        kwargs.setdefault("cache", ArtifactCache(max_entries=64))
        kwargs.setdefault("telemetry", MetricsRegistry())
        self.http_server = SolveHTTPServer(port=0, **kwargs).start()
        self.url = self.http_server.url
        return self.url

    def alive_process(self) -> bool:
        """Whether the in-process server is up (mirrors the subprocess API)."""
        return self.http_server is not None

    @property
    def returncode(self) -> int | None:
        """Always 0 once stopped (thread servers have no exit code)."""
        return None if self.http_server is not None else 0

    def health(self, timeout: float = 2.0) -> dict:
        """``GET /v1/healthz`` over HTTP, same as a subprocess replica."""
        if self.url is None:
            raise FleetError(f"replica {self.name} has no URL (not started)")
        client = HTTPClient(self.url, timeout=timeout,
                            connect_timeout=timeout, connect_retries=0)
        return client.health()

    def signal_stop(self) -> None:
        """Start a graceful shutdown (drain) without blocking the caller."""
        server = self.http_server
        if server is None or self._stopper is not None:
            return
        self._stopper = threading.Thread(
            target=server.shutdown, name=f"replica-stop-{self.name}",
            daemon=True)
        self._stopper.start()

    def wait_stopped(self, timeout: float = 30.0) -> int | None:
        """Wait for the graceful shutdown started by :meth:`signal_stop`."""
        if self.http_server is None:
            return 0
        if self._stopper is None:
            self.signal_stop()
        assert self._stopper is not None
        self._stopper.join(timeout=timeout)
        stopped = not self._stopper.is_alive()
        self.http_server = None
        self._stopper = None
        self.url = None
        return 0 if stopped else None

    def kill(self) -> None:
        """In-process servers cannot be SIGKILLed; drain instead."""
        self.signal_stop()
        self.wait_stopped()


class _ReplicaState:
    """Mutable per-replica bookkeeping owned by :class:`ReplicaFleet`."""

    __slots__ = ("live", "url", "replica_id", "started_at", "restarts",
                 "consecutive_failures", "backoff", "next_restart_at")

    def __init__(self, backoff: float) -> None:
        self.live = False
        self.url: str | None = None
        self.replica_id: str | None = None
        self.started_at: float | None = None
        self.restarts = 0
        self.consecutive_failures = 0
        self.backoff = backoff
        self.next_restart_at = 0.0


class ReplicaFleet:
    """Keep an ordered set of replicas alive; expose liveness to the router.

    Parameters
    ----------
    replicas:
        Constructed (not yet started) replica objects with unique names.
        Their order defines :meth:`ids`.
    telemetry:
        Fleet-level registry (``fleet.replica_restarted`` and friends land
        here); the router passes its own so one scrape covers both.
    health_interval:
        Seconds between monitor sweeps.
    restart:
        Whether dead replicas are relaunched (exponential backoff between
        attempts).  Tests needing a permanently-dead replica disable it.
    backoff_initial / backoff_max:
        Restart backoff window.  The backoff doubles on every failed
        relaunch and resets once the replica probes healthy again.
    probe_timeout:
        Connect+read bound of one health probe.
    unhealthy_threshold:
        Consecutive failed probes of a *running* process before it is
        declared dead (hung replicas get terminated and relaunched).
    """

    def __init__(self, replicas, *, telemetry: MetricsRegistry | None = None,
                 health_interval: float = 0.5, restart: bool = True,
                 backoff_initial: float = 0.5, backoff_max: float = 30.0,
                 probe_timeout: float = 5.0,
                 unhealthy_threshold: int = 3) -> None:
        self._replicas = list(replicas)
        names = [replica.name for replica in self._replicas]
        if len(set(names)) != len(names):
            raise FleetError(f"replica names must be unique, got {names}")
        if not names:
            raise FleetError("a fleet needs at least one replica")
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        self.health_interval = float(health_interval)
        self.restart_enabled = bool(restart)
        self.backoff_initial = float(backoff_initial)
        self.backoff_max = float(backoff_max)
        self.probe_timeout = float(probe_timeout)
        self.unhealthy_threshold = int(unhealthy_threshold)
        self._lock = threading.Lock()
        # One sweep at a time: a sweep acts on health answers it fetched
        # earlier, so two interleaved sweeps could let the older answer
        # overwrite the newer verdict (and relaunch one replica twice).
        self._sweep_lock = threading.Lock()
        self._state = {replica.name: _ReplicaState(self.backoff_initial)
                       for replica in self._replicas}
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ReplicaFleet":
        """Launch every replica, probe once, start the monitor thread."""
        for replica in self._replicas:
            try:
                replica.start()
            except FleetError:
                _LOG.exception("replica %s failed to launch; the monitor "
                               "will keep retrying", replica.name)
        self.probe_now()
        if self._monitor is None or not self._monitor.is_alive():
            self._stop.clear()
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="fleet-monitor", daemon=True)
            self._monitor.start()
        return self

    def drain(self, timeout: float = 60.0) -> dict[str, int | None]:
        """Gracefully stop the fleet: signal every replica, then reap.

        Stops the monitor first (so nothing restarts a draining replica),
        signals all replicas concurrently, and waits for each.  Returns the
        exit code per replica (``0`` means a clean drain).
        """
        self._stop_monitor()
        for replica in self._replicas:
            replica.signal_stop()
        deadline = time.monotonic() + timeout
        codes: dict[str, int | None] = {}
        for replica in self._replicas:
            remaining = max(deadline - time.monotonic(), 1.0)
            codes[replica.name] = replica.wait_stopped(timeout=remaining)
            with self._lock:
                self._state[replica.name].live = False
        self._observe_live()
        return codes

    def _stop_monitor(self) -> None:
        self._stop.set()
        monitor = self._monitor
        if monitor is not None and monitor.is_alive():
            monitor.join(timeout=10.0)
        self._monitor = None

    # -- router-facing surface ----------------------------------------------
    def ids(self) -> tuple[str, ...]:
        """Replica names in fleet order (the ring's member set)."""
        return tuple(replica.name for replica in self._replicas)

    def live_ids(self) -> frozenset[str]:
        """Names currently believed healthy."""
        with self._lock:
            return frozenset(name for name, state in self._state.items()
                             if state.live)

    def url_of(self, name: str) -> str | None:
        """Current base URL of a live replica (``None`` when dead/unknown)."""
        with self._lock:
            state = self._state.get(name)
            return state.url if state is not None and state.live else None

    def mark_dead(self, name: str) -> None:
        """Router feedback: a connection to ``name`` just failed.

        Takes the replica out of routing immediately; the monitor's next
        sweep re-probes it, so a spuriously-marked replica heals itself and
        a genuinely dead one gets restarted.
        """
        with self._lock:
            state = self._state.get(name)
            if state is None or not state.live:
                return
            state.live = False
        self.telemetry.counter("fleet.replica_marked_dead", replica=name).add(1)
        self._observe_live()
        _LOG.warning("replica %s marked dead by the router", name)

    def states(self) -> dict[str, dict]:
        """Per-replica liveness snapshot (the router's health answer)."""
        with self._lock:
            return {
                name: {
                    "alive": state.live,
                    "url": state.url,
                    "replica_id": state.replica_id,
                    "started_at": state.started_at,
                    "restarts": state.restarts,
                }
                for name, state in self._state.items()
            }

    # -- monitoring ----------------------------------------------------------
    def probe_now(self) -> None:
        """One synchronous health sweep (also used by tests).

        Sweeps are serialised, so the verdict standing when this returns is
        from a sweep that started no earlier than the call.  Only
        :meth:`mark_dead` acts without waiting for a sweep in flight.
        """
        with self._sweep_lock:
            for replica in self._replicas:
                self._check(replica)
        self._observe_live()

    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.probe_now()
            except Exception:  # noqa: BLE001 - the monitor must survive
                _LOG.exception("fleet monitor sweep failed")
            self._stop.wait(self.health_interval)

    def _observe_live(self) -> None:
        self.telemetry.gauge("fleet.replicas_live").set(len(self.live_ids()))

    def _check(self, replica) -> None:
        state = self._state[replica.name]
        if not replica.alive_process():
            self._note_dead(replica, state, "process exited")
            self._maybe_restart(replica, state)
            return
        try:
            payload = replica.health(timeout=self.probe_timeout)
        except Exception as error:  # noqa: BLE001 - any probe failure counts
            state.consecutive_failures += 1
            if state.consecutive_failures >= self.unhealthy_threshold:
                self._note_dead(
                    replica, state,
                    f"{state.consecutive_failures} failed probes ({error})")
                if self.restart_enabled and hasattr(replica, "kill"):
                    # A running-but-unresponsive worker is as dead as a
                    # crashed one; reap it so the restart path applies.
                    replica.kill()
                    self._maybe_restart(replica, state)
            return
        state.consecutive_failures = 0
        previous_id = state.replica_id
        state.replica_id = payload.get("replica_id")
        state.started_at = payload.get("started_at")
        if previous_id is not None and state.replica_id != previous_id:
            # Same slot, new server instance: its shard cache is cold.
            self.telemetry.counter("fleet.replica_restarted",
                                   replica=replica.name).add(1)
            _LOG.warning("replica %s restarted (id %s -> %s); its shard "
                         "cache is cold", replica.name, previous_id,
                         state.replica_id)
        if not state.live:
            with self._lock:
                state.live = True
                state.url = replica.url
            state.backoff = self.backoff_initial
            _LOG.info("replica %s healthy on %s", replica.name, replica.url)

    def _note_dead(self, replica, state: _ReplicaState, why: str) -> None:
        if state.live:
            with self._lock:
                state.live = False
            self.telemetry.counter("fleet.replica_died",
                                   replica=replica.name).add(1)
            _LOG.warning("replica %s dead: %s", replica.name, why)

    def _maybe_restart(self, replica, state: _ReplicaState) -> None:
        if not self.restart_enabled or self._stop.is_set():
            return
        now = time.monotonic()
        if now < state.next_restart_at:
            return
        state.restarts += 1
        self.telemetry.counter("fleet.restart_attempts",
                               replica=replica.name).add(1)
        try:
            replica.start()
        except Exception as error:  # noqa: BLE001 - keep backing off
            state.next_restart_at = now + state.backoff
            _LOG.warning("replica %s relaunch failed (%s); next attempt in "
                         "%.1f s", replica.name, error, state.backoff)
            state.backoff = min(state.backoff * 2.0, self.backoff_max)
            return
        # Launched; the next sweep's health probe flips it live (and the
        # replica_id change emits fleet.replica_restarted).
        state.next_restart_at = now + state.backoff
        state.backoff = min(state.backoff * 2.0, self.backoff_max)

    # -- context manager -----------------------------------------------------
    def __enter__(self) -> "ReplicaFleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.drain()
