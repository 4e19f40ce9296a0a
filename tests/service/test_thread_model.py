"""The session's thread model and the limits it promises.

A request starts no thread: the session orders on the calling thread
and executes plans on the service's pool (or, standalone, on a private
pool joined before ``stream()`` returns).  Per request, at most
``executor_workers`` plans execute at once and the orderer runs at
most ``queue_depth`` plans ahead of the folded batches.
"""

import sys
import threading
import time

import pytest

from repro.execution.mediator import Mediator
from repro.observability.tracing import NOOP_TRACER
from repro.ordering.bruteforce import PIOrderer
from repro.service.backends import ExecutionBackend, InMemoryBackend
from repro.service.policy import RequestPolicy
from repro.service.server import QueryRequest, QueryService, ServiceConfig
from repro.service.session import _TICK_S, PipelinedSession
from repro.utility.cost import LinearCost


class SlowBackend(ExecutionBackend):
    """The in-memory backend, slowed down and instrumented: counts calls
    and records the peak number of executions running at once."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s
        self.calls = 0
        self.running = 0
        self.peak = 0
        self._lock = threading.Lock()
        self._inner = InMemoryBackend()

    def execute(self, executable, database):
        with self._lock:
            self.calls += 1
            self.running += 1
            self.peak = max(self.peak, self.running)
        try:
            time.sleep(self.delay_s)
            return self._inner.execute(executable, database)
        finally:
            with self._lock:
                self.running -= 1


class EmitCountingOrderer:
    """Wraps an orderer and counts its ``on_emit`` calls — one per plan
    the orderer has moved past."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.tracer = NOOP_TRACER
        self.emits = 0

    def order(self, space, k, on_emit=None):
        def counted(plan):
            self.emits += 1
            return on_emit(plan)

        return self.inner.order(space, k, on_emit=counted)


def service_threads(prefix="repro-service-"):
    return [t for t in threading.enumerate() if t.name.startswith(prefix)]


@pytest.fixture
def counted_thread_starts(monkeypatch):
    """A list that grows by one name per ``Thread.start`` call."""
    started = []
    original = threading.Thread.start

    def start(thread, *args, **kwargs):
        started.append(thread.name)
        return original(thread, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


class TestThreadLifecycle:
    def test_warmed_service_starts_no_thread_per_request(
        self, movies, counted_thread_starts
    ):
        # One request at a time over a pool of two threads; the slow
        # backend makes the warm-up request run two plans at once, so
        # both pool threads exist before counting starts.
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            config=ServiceConfig(max_concurrent=1, executor_workers=2),
            backend=SlowBackend(0.002),
        )
        try:
            assert service.execute(QueryRequest(movies.query)).ok
            counted_thread_starts.clear()
            for _ in range(50):
                assert service.execute(QueryRequest(movies.query)).ok
            assert counted_thread_starts == []
        finally:
            service.shutdown()

    def test_no_executor_thread_survives_service_shutdown(self, movies):
        service = QueryService(
            movies.catalog,
            movies.source_facts,
            config=ServiceConfig(max_concurrent=2, executor_workers=2),
        ).start()
        pending = [service.submit(QueryRequest(movies.query)) for _ in range(6)]
        assert all(p.wait(timeout=30.0).ok for p in pending)
        assert service_threads("repro-service-exec")
        service.shutdown()
        assert service_threads() == []

    def test_no_service_thread_survives_a_standalone_run(self, movies):
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts),
            executor_workers=3,
            backend=SlowBackend(0.001),
        )
        _, report = session.run(movies.query, LinearCost())
        assert report.exhausted
        assert service_threads() == []


class TestLimits:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_peak_executions_per_request_within_workers(self, movies, workers):
        backend = SlowBackend(0.005)
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts),
            executor_workers=workers,
            queue_depth=8,
            backend=backend,
        )
        _, report = session.run(movies.query, LinearCost())
        assert report.exhausted
        assert backend.calls == report.sound_plans
        assert 1 <= backend.peak <= workers

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_orderer_stays_within_queue_depth_of_folded_batches(
        self, movies, depth
    ):
        utility = LinearCost()
        orderer = EmitCountingOrderer(PIOrderer(utility))
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts),
            executor_workers=2,
            queue_depth=depth,
            backend=SlowBackend(0.003),
        )
        folded = 0
        lead = []
        for _ in session.stream(movies.query, utility, orderer=orderer):
            folded += 1
            lead.append(orderer.emits - folded)
        assert folded == 9
        assert max(lead) <= depth

    def test_deadline_binds_and_cancels_unstarted_jobs(self, movies):
        backend = SlowBackend(0.030)
        session = PipelinedSession(
            Mediator(movies.catalog, movies.source_facts),
            executor_workers=2,
            backend=backend,
        )
        deadline_s = 0.05
        began = time.monotonic()
        _, report = session.run(
            movies.query, LinearCost(), policy=RequestPolicy(deadline_s=deadline_s)
        )
        took = time.monotonic() - began
        assert report.deadline_exceeded
        assert took <= deadline_s + 2 * _TICK_S
        # Nine sound plans at 30 ms over two workers need ~135 ms; the
        # ones not started by the deadline never reach the backend.
        calls = backend.calls
        assert calls < 9
        time.sleep(0.1)
        assert backend.calls == calls
        assert backend.running == 0


def test_concurrent_requests_share_the_pool_under_stress(movies):
    """Many requests over one pool with more threads than cores and a
    short switch interval: a lost completion would hang a request past
    its wait timeout or break its stream."""
    utility = LinearCost()
    expected = Mediator(movies.catalog, movies.source_facts).answer_all(
        movies.query, utility
    )
    backend = SlowBackend(0.0005)
    service = QueryService(
        movies.catalog,
        movies.source_facts,
        config=ServiceConfig(max_concurrent=4, executor_workers=3, backlog=64),
        backend=backend,
    ).start()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pending = [service.submit(QueryRequest(movies.query)) for _ in range(24)]
        results = [p.wait(timeout=60.0) for p in pending]
    finally:
        sys.setswitchinterval(interval)
        service.shutdown()
    assert all(r.ok and r.report.exhausted for r in results)
    assert all(r.answers == expected for r in results)
    assert all([b.rank for b in r.batches] == list(range(1, 10)) for r in results)
    assert backend.calls == 24 * 9
    assert backend.peak <= 4 * 3
    assert service_threads() == []
