"""The transport-agnostic :class:`Client` contract.

Callers program against this ABC and stay *transport-blind*: the same code
runs against :class:`~repro.client.inprocess.InProcessClient` (a wrapped
:class:`~repro.server.server.SolveServer`) and
:class:`~repro.client.http.HTTPClient` (the wire protocol over urllib).
Both speak the frozen schemas of :mod:`repro.api`, raise the same
:class:`~repro.api.errors.AdmissionError` taxonomy on rejection, and — for a
fixed seed — return bit-identical responses.

Collecting a queued job is one loop for every transport:
:meth:`Client.result` asks a transport's :meth:`Client._await_job` hook for
the job's status, waiting up to the rest of its timeout.  The in-process
client blocks on the job; the HTTP client sends ``GET /v1/jobs/<id>?wait=``,
which the server holds until the job finishes.  Only a transport that
answers at once with the job unfinished (a server that ignores ``wait``) is
asked again, at most once per ``poll_interval``.
"""

from __future__ import annotations

import abc
import time

from repro.api.schemas import (
    JobStatusV1,
    SolveRequestV1,
    SolveResponseV1,
    TelemetrySnapshot,
)

__all__ = ["Client"]


class Client(abc.ABC):
    """A solve-service client: solve / submit / poll / observe, any transport."""

    @abc.abstractmethod
    def solve(self, request: SolveRequestV1) -> SolveResponseV1:
        """Serve one request synchronously and return its response.

        Raises :class:`~repro.api.errors.AdmissionError` on rejection, with
        the same structured reason regardless of transport.
        """

    @abc.abstractmethod
    def submit(self, request: SolveRequestV1) -> int:
        """Admit a request into the server's queue; returns the job id."""

    def job(self, job_id: int) -> JobStatusV1:
        """Current status of a submitted job (response/error once finished)."""
        return self._await_job(job_id, 0.0)

    @abc.abstractmethod
    def _await_job(self, job_id: int, wait: float) -> JobStatusV1:
        """The job's status, once it finishes or ``wait`` seconds pass.

        The one hook :meth:`job` and :meth:`result` go through.  A transport
        may answer earlier than ``wait`` with the job unfinished: a server
        that ignores the wait always does.
        """

    @abc.abstractmethod
    def metrics(self) -> TelemetrySnapshot:
        """The server's telemetry snapshot."""

    @abc.abstractmethod
    def metrics_prometheus(self) -> str:
        """The server's metrics in Prometheus text exposition format."""

    @abc.abstractmethod
    def health(self) -> dict:
        """Liveness information (status, schema version, queue state)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release the client (and any owned server)."""

    # -- conveniences shared by every transport ------------------------------
    def result(self, job_id: int, *, timeout: float = 60.0,
               poll_interval: float = 0.02) -> SolveResponseV1:
        """Wait for the job to finish; return its response.

        Each ask waits for the rest of ``timeout`` through
        :meth:`_await_job`, so a job is usually collected in one ask.  Asks
        are at least ``poll_interval`` apart: a transport or server that
        answers at once with the job unfinished (one that ignores the wait)
        is polled at that pace.

        Raises the job's mapped failure when it failed and
        :class:`TimeoutError` when ``timeout`` elapses first.
        """
        deadline = time.monotonic() + timeout
        while True:
            asked_at = time.monotonic()
            status = self._await_job(job_id, max(deadline - asked_at, 0.0))
            if status.error is not None:
                status.error.raise_()
            if status.response is not None:
                return status.response
            if status.state in ("done", "failed"):
                raise RuntimeError(
                    f"job {job_id} finished ({status.state}) without a "
                    f"response or error envelope")
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"job {job_id} did not finish within {timeout} s")
            pause = poll_interval - (now - asked_at)
            if pause > 0:
                time.sleep(min(pause, deadline - now))

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
