"""Tests for the admission queue and the telemetry registry."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import SolveRequestV1
from repro.exceptions import ParameterError
from repro.matrices import laplacian_2d
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.server.queue import (
    MAX_TRACKED_JOBS,
    AdmissionError,
    Job,
    JobQueue,
    JobRegistry,
    REJECT_CLOSED,
    REJECT_DRAINING,
    REJECT_INVALID,
    REJECT_QUEUE_FULL,
)


def _request(**kwargs) -> SolveRequestV1:
    kwargs.setdefault("matrix", laplacian_2d(4))
    return SolveRequestV1(**kwargs)


class TestAdmission:
    def test_submit_returns_pending_job(self):
        queue = JobQueue(max_depth=4)
        job = queue.submit(_request(tag="x"))
        assert job.state == Job.PENDING
        assert not job.done()
        assert queue.depth == 1
        assert queue.admitted == 1

    def test_queue_full_rejection(self):
        queue = JobQueue(max_depth=2)
        queue.submit(_request())
        queue.submit(_request())
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(_request())
        assert excinfo.value.reason == REJECT_QUEUE_FULL
        # popping frees depth, admission resumes
        queue.pop_batch(1)
        queue.submit(_request())

    def test_closed_rejection(self):
        queue = JobQueue(max_depth=2)
        queue.close()
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(_request())
        assert excinfo.value.reason == REJECT_CLOSED

    def test_unknown_registry_name_rejected(self):
        queue = JobQueue()
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(SolveRequestV1(matrix="no_such_matrix"))
        assert excinfo.value.reason == REJECT_INVALID

    def test_rectangular_matrix_rejected(self):
        queue = JobQueue()
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(SolveRequestV1(matrix=sp.random(3, 4, density=0.5)))
        assert excinfo.value.reason == REJECT_INVALID

    def test_rhs_length_mismatch_rejected(self):
        queue = JobQueue()
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(_request(rhs=np.ones(7)))
        assert excinfo.value.reason == REJECT_INVALID

    def test_registry_rhs_checked_against_published_dimension(self):
        queue = JobQueue()
        with pytest.raises(AdmissionError):
            queue.submit(SolveRequestV1(matrix="2DFDLaplace_16", rhs=np.ones(7)))
        queue.submit(SolveRequestV1(matrix="2DFDLaplace_16", rhs=np.ones(225)))

    def test_invalid_limits_rejected(self):
        queue = JobQueue()
        with pytest.raises(AdmissionError):
            queue.submit(_request(rtol=2.0))
        with pytest.raises(AdmissionError):
            queue.submit(_request(maxiter=0))


class TestPriorities:
    def test_priority_order_then_fifo(self):
        queue = JobQueue()
        low = queue.submit(_request(priority=0, tag="low"))
        high = queue.submit(_request(priority=5, tag="high"))
        mid_a = queue.submit(_request(priority=3, tag="mid_a"))
        mid_b = queue.submit(_request(priority=3, tag="mid_b"))
        batch = queue.pop_batch()
        assert [job.request.tag for job in batch] == \
            ["high", "mid_a", "mid_b", "low"]
        assert all(job.state == Job.RUNNING for job in batch)
        assert low is batch[-1] and high is batch[0]

    def test_pop_batch_respects_max_jobs(self):
        queue = JobQueue()
        for index in range(5):
            queue.submit(_request(tag=str(index)))
        batch = queue.pop_batch(2)
        assert len(batch) == 2
        assert queue.depth == 3
        assert queue.inflight == 2


class TestDrainAndFinish:
    def test_finish_completes_job_and_wakes_drain(self):
        queue = JobQueue()
        job = queue.submit(_request())
        [popped] = queue.pop_batch()

        def worker():
            queue.finish(popped, result="answer")

        thread = threading.Thread(target=worker)
        thread.start()
        assert queue.drain(timeout=5.0)
        thread.join()
        assert job.result(timeout=1.0) == "answer"
        assert job.state == Job.DONE
        assert queue.idle()

    def test_drain_rejects_submissions_while_waiting(self):
        queue = JobQueue()
        queue.submit(_request())
        [popped] = queue.pop_batch()
        rejected: list[str] = []
        started = threading.Event()

        def drainer():
            started.set()
            queue.drain(timeout=5.0)

        def late_submitter():
            started.wait()
            # Wait until drain() is actually blocking on the condition.
            for _ in range(100):
                try:
                    queue.submit(_request())
                    return
                except AdmissionError as error:
                    rejected.append(error.reason)
                    break

        drain_thread = threading.Thread(target=drainer)
        drain_thread.start()
        started.wait()
        submit_thread = threading.Thread(target=late_submitter)
        submit_thread.start()
        submit_thread.join()
        queue.finish(popped)
        drain_thread.join()
        if rejected:  # timing-dependent, but when rejected the reason is right
            assert rejected == [REJECT_DRAINING]
        # admission re-opens after drain
        queue.submit(_request())

    def test_failed_job_raises_from_result(self):
        queue = JobQueue()
        job = queue.submit(_request())
        [popped] = queue.pop_batch()
        queue.finish(popped, error=RuntimeError("boom"))
        assert job.state == Job.FAILED
        assert isinstance(job.exception(), RuntimeError)
        with pytest.raises(RuntimeError):
            job.result(timeout=1.0)

    def test_result_timeout(self):
        queue = JobQueue()
        job = queue.submit(_request())
        with pytest.raises(TimeoutError):
            job.result(timeout=0.01)


class TestRetention:
    @pytest.mark.parametrize("error", [None, RuntimeError("boom")])
    def test_a_finished_job_keeps_its_answer_not_its_request(self, error):
        """A job registry keeps finished jobs for their status; the
        request's decoded matrix must not stay alive with them."""
        import gc
        import weakref

        queue = JobQueue()
        request = _request(tag="held")
        job = queue.submit(request)
        alive = weakref.ref(request)
        del request
        [popped] = queue.pop_batch()
        assert popped.request.tag == "held"
        queue.finish(popped, result="answer", error=error)
        gc.collect()
        assert job.request is None and alive() is None
        assert job.exception() is error
        if error is None:
            assert job.result(timeout=0) == "answer"


class _CountedJob(Job):
    """A job that counts the :meth:`done` calls made on it."""

    __slots__ = ("done_calls",)

    def __init__(self, job_id: int, finished: bool) -> None:
        super().__init__(job_id, None)
        self.done_calls = 0
        if finished:
            self._finish(result="answer")

    def done(self) -> bool:
        self.done_calls += 1
        return super().done()


class TestJobRegistryEviction:
    def test_a_track_past_the_bound_checks_only_the_oldest_finished(self):
        registry = JobRegistry()
        jobs = [_CountedJob(job_id, finished=True)
                for job_id in range(MAX_TRACKED_JOBS)]
        for job in jobs:
            registry.track(job)
        assert sum(job.done_calls for job in jobs) == 0  # below the bound
        registry.track(_CountedJob(MAX_TRACKED_JOBS, finished=False))
        # overflow is 1 and the oldest job is finished: one check, not 4096
        assert sum(job.done_calls for job in jobs) == 1
        assert registry.find(0) is None and registry.find(1) is jobs[1]

    def test_registry_never_exceeds_the_bound_plus_unfinished_jobs(
            self, monkeypatch):
        monkeypatch.setattr("repro.server.queue.MAX_TRACKED_JOBS", 8)
        registry = JobRegistry()
        tracked: list[Job] = []
        for job_id in range(60):
            # every third job stays unfinished; finish some older ones late
            job = _CountedJob(job_id, finished=job_id % 3 != 0)
            tracked.append(job)
            registry.track(job)
            if job_id % 7 == 6 and not tracked[job_id - 6].done():
                tracked[job_id - 6]._finish(result="late")
            unfinished = sum(not job.done() for job in tracked)
            assert len(registry._jobs) <= 8 + unfinished
            assert all(registry.find(job.id) is job
                       for job in tracked if not job.done())

    def test_an_unfinished_old_job_is_kept(self, monkeypatch):
        monkeypatch.setattr("repro.server.queue.MAX_TRACKED_JOBS", 4)
        registry = JobRegistry()
        oldest = _CountedJob(0, finished=False)
        registry.track(oldest)
        finished = [_CountedJob(job_id, finished=True)
                    for job_id in range(1, 11)]
        for job in finished:
            registry.track(job)
        assert registry.find(0) is oldest
        assert [registry.find(job.id) for job in finished] == \
            [None] * 7 + finished[7:]


class _FinishesWhileChecked(Job):
    """A job that finishes right after :meth:`done` says it has not: the
    worst interleaving of a status read with the worker's ``_finish``."""

    __slots__ = ("outcome",)

    def done(self) -> bool:
        finished = super().done()
        if not finished:
            self._finish(**self.outcome)
        return finished


class TestJobStatus:
    @pytest.mark.parametrize("failed", [False, True])
    def test_a_job_finishing_during_the_read_is_reported_whole(self, failed):
        """A status reads the job once: it is either unfinished, or
        finished together with its response or error — never ``done``
        without an answer."""
        from repro.server import SolveServer
        from repro.server.queue import job_status
        from repro.service.cache import ArtifactCache

        with SolveServer(cache=ArtifactCache(max_entries=4),
                         background=False) as server:
            response = server.solve(_request())
        job = _FinishesWhileChecked(7, _request())
        job.outcome = ({"error": RuntimeError("boom")} if failed
                       else {"result": response})
        status = job_status(job)
        if status.state in (Job.PENDING, Job.RUNNING):
            assert status.response is None and status.error is None
        elif failed:
            assert status.state == Job.FAILED and status.error is not None
        else:
            assert status.state == Job.DONE
            assert np.array_equal(status.response.solution,
                                  response.solution)
        job.done()  # finishes it, if the read above did not
        finished = job_status(job)
        assert finished.state == (Job.FAILED if failed else Job.DONE)
        assert (finished.error if failed else finished.response) is not None

    def test_statuses_read_while_jobs_finish_are_never_torn(self):
        """Readers racing the finishing thread (more threads than cores,
        a short switch interval) never see a job ``done`` without its
        response."""
        import sys

        from repro.server import SolveServer
        from repro.server.queue import job_status
        from repro.service.cache import ArtifactCache

        with SolveServer(cache=ArtifactCache(max_entries=4),
                         background=False) as server:
            response = server.solve(_request())
        queue = JobQueue(max_depth=512)
        jobs = [queue.submit(_request()) for _ in range(400)]
        popped = queue.pop_batch()
        torn: list = []
        stop = threading.Event()

        def read() -> None:
            while not stop.is_set():
                for job in jobs:
                    status = job_status(job)
                    if status.state == Job.DONE and status.response is None:
                        torn.append(job.id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=read) for _ in range(4)]
        try:
            for reader in readers:
                reader.start()
            for job in popped:
                queue.finish(job, result=response)
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert all(job.done() for job in jobs)
        assert torn == []

    def test_wait_returns_once_the_job_finishes(self):
        queue = JobQueue()
        job = queue.submit(_request())
        assert job.wait(0.01) is False
        [popped] = queue.pop_batch()
        finisher = threading.Timer(0.1, queue.finish, args=(popped,),
                                   kwargs={"result": "answer"})
        finisher.start()
        assert job.wait(10.0) is True
        finisher.join()
        assert job.snapshot() == (Job.DONE, "answer", None)


class TestTelemetry:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        counter.add()
        counter.add(4)
        assert counter.value == 5
        with pytest.raises(ParameterError):
            counter.add(-1)

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.add(-1)
        assert gauge.value == 2.0

    def test_histogram_summary_and_quantiles(self):
        histogram = Histogram("latency")
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0 and summary["max"] == 100.0
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert histogram.quantile(0.0) == 1.0
        with pytest.raises(ParameterError):
            histogram.quantile(1.5)

    def test_histogram_caps_samples_but_keeps_exact_count(self):
        histogram = Histogram("capped", max_samples=10)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.summary()["max"] == 99.0

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("a").add(2)
        registry.gauge("b").set(1.5)
        registry.histogram("c")  # empty -> NaNs must map to null
        blob = registry.to_json()
        parsed = json.loads(blob)
        assert parsed["counters"]["a"] == 2
        assert parsed["histograms"]["c"]["mean"] is None

    def test_instruments_created_once(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")
