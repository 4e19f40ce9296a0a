"""The pipelined anytime session: ordering overlapped with execution.

``Mediator.answer`` is strictly sequential: the orderer cannot start
computing plan ``i+1`` until plan ``i`` has finished executing.  The
paper's Section 2 motivation is the opposite — *"the mediator should
begin executing the best plan while the ordering algorithm computes
the next ones"*.  :class:`PipelinedSession` realizes that by running
the steps of the per-plan kernel
(:class:`~repro.execution.kernel.PlanKernel`) on different threads:

* a **producer thread** drives the plan orderer and the kernel's
  ``decide`` step (soundness), feeding a bounded queue of outcomes
  (backpressure keeps the orderer at most ``queue_depth`` plans ahead
  of execution);
* a pool of **executor workers** runs the kernel's ``run`` step
  (breaker admission, execution with retries) over a read-only view
  of the source instances;
* the **consumer** (the thread iterating :meth:`stream`) reassembles
  outcomes into emission order and runs the kernel's ``fold`` step —
  so the batch stream is *identical*, plan for plan and byte for
  byte, to the sequential mediator's, which calls the same three
  steps inline.

Why the ordering survives the concurrency: ``decide`` for plan ``i``
runs in the producer thread immediately after the orderer yields it,
*before* the generator is resumed — exactly when the sequential
mediator runs it.  The orderers' ``on_emit`` callback (asked on
resumption) therefore sees the same answers in the same order, and
the emitted plan sequence cannot diverge.  Execution results never
influence the ordering, only their soundness bits do, so running
executions out of order is unobservable after the consumer's
reordering.

This module owns only the scheduling: threads, the queue, reordering
by rank, the deadline and cancellation.  Deadlines and cancellation
are cooperative and clean: on expiry the session stops pulling plans,
drains in-flight work, and finishes the batch stream early;
:attr:`SessionReport.deadline_exceeded` is set instead of raising, so
partial results always reach the caller.
"""

from __future__ import annotations

import threading
from queue import Empty, Full, Queue
from typing import Iterator, Optional

from repro.errors import ExecutionError, InternalError
from repro.datalog.query import ConjunctiveQuery
from repro.execution.kernel import PlanKernel, SessionReport
from repro.execution.mediator import AnswerBatch, Mediator
from repro.observability.journal import EventJournal
from repro.observability.metrics import MetricRegistry
from repro.observability.tracing import Tracer
from repro.ordering.base import PlanOrderer
# Not called here any more (soundness goes through the mediator), but
# kept importable: the e2ebench server probe patches this name.
from repro.reformulation.soundness import plan_query  # noqa: F401
from repro.resilience.manager import ResilienceManager
from repro.service.backends import ExecutionBackend, InMemoryBackend
from repro.service.policy import RequestPolicy
from repro.utility.base import UtilityMeasure

__all__ = ["PipelinedSession", "SessionReport"]

#: Poll granularity for queue hand-offs and condition waits.  Only a
#: liveness bound (threads notice stop/deadline at least this often);
#: normal hand-offs are notification-driven and never wait this long.
_TICK_S = 0.05

_DONE = object()
#: Published in place of an outcome whose plan hit the deadline or a
#: cancellation before it could run.
_DROPPED = object()


class _SessionRun:
    """Shared state of one in-flight pipelined request."""

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.results: dict[int, object] = {}
        self.stop = threading.Event()
        self.produced: Optional[int] = None  # total plans, once known
        self.producer_complete = False  # budget drained (not aborted)
        self.producer_error: Optional[BaseException] = None

    def publish(self, rank: int, result: object) -> None:
        with self.cond:
            self.results[rank] = result
            self.cond.notify_all()

    def finish_producing(self, produced: int, complete: bool,
                         error: Optional[BaseException]) -> None:
        with self.cond:
            self.produced = produced
            self.producer_complete = complete
            self.producer_error = error
            self.cond.notify_all()


class PipelinedSession:
    """Runs queries through a mediator with ordering/execution overlap.

    One session instance serves one request at a time (the service
    layer creates a session per admitted request); the mediator,
    registry, and backend it wraps may be shared freely.
    """

    def __init__(
        self,
        mediator: Mediator,
        *,
        executor_workers: int = 2,
        queue_depth: int = 8,
        backend: Optional[ExecutionBackend] = None,
        policy: Optional[RequestPolicy] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricRegistry] = None,
        resilience: Optional[ResilienceManager] = None,
        journal: Optional[EventJournal] = None,
    ) -> None:
        if executor_workers < 1:
            raise ExecutionError("executor_workers must be at least 1")
        if queue_depth < 1:
            raise ExecutionError("queue_depth must be at least 1")
        self.mediator = mediator
        self.executor_workers = executor_workers
        self.queue_depth = queue_depth
        self.backend = backend if backend is not None else InMemoryBackend()
        self.policy = policy if policy is not None else RequestPolicy()
        self.tracer = tracer if tracer is not None else mediator.tracer
        self.registry = registry if registry is not None else mediator.registry
        self.journal = journal if journal is not None else mediator.journal
        self.resilience = (
            resilience if resilience is not None else mediator.resilience
        )
        self.last_report: Optional[SessionReport] = None
        self._plans_pipelined = self.registry.counter("service.plans_pipelined")
        self._retries = self.registry.counter("service.retries")
        self._execute_hist = self.registry.histogram("service.execute_s")

    # -- the pipeline ------------------------------------------------------------

    def stream(
        self,
        query: ConjunctiveQuery,
        utility: UtilityMeasure,
        *,
        orderer: Optional[PlanOrderer] = None,
        policy: Optional[RequestPolicy] = None,
        request_id: str = "",
        adaptive: bool = False,
    ) -> Iterator[AnswerBatch]:
        """Yield answer batches in emission order, pipelined.

        Semantically equivalent to ``Mediator.answer`` (same plans,
        same order, same batches) with ordering, soundness, and
        execution overlapped across threads.  After the generator
        finishes (or is closed early), :attr:`last_report` describes
        the run.  ``request_id`` correlates this run's journal events
        (emitted from the producer, executor, and consumer threads —
        the journal serializes them with one global ``seq``).

        ``adaptive`` (ignored when *orderer* is supplied) wraps the
        mediator's orderer factory in the health-epoch-watching
        :class:`~repro.ordering.adaptive.AdaptiveOrderer`.  The epoch
        is bumped by executor workers (and any concurrent session)
        recording outcomes into the shared resilience manager; the
        producer thread notices at its next resumption — between two
        ``on_emit`` exchanges, which is exactly where the lazy-orderer
        contract allows re-planning.
        """
        mediator = self.mediator
        policy = policy if policy is not None else self.policy
        deadline = policy.start_deadline()
        token = policy.token()
        run = _SessionRun()

        def aborted() -> bool:
            return run.stop.is_set() or token.cancelled or deadline.expired

        def backoff(delay: float) -> None:
            # Sleep on the stop event so shutdown and cancellation cut
            # the backoff short.
            run.stop.wait(deadline.clamp(delay))

        kernel = PlanKernel(
            mediator, query, self.journal, self.resilience,
            request_id=request_id, retry=policy.retry,
            aborted=aborted, sleep=backoff,
        )
        report = self.last_report = kernel.report

        with self.tracer.span("service.reformulate"):
            space = mediator.reformulate(query)
        if orderer is None:
            orderer = mediator.make_orderer(utility, adaptive=adaptive)
        budget = mediator.resolve_budget(space, policy.max_plans)
        work_q: Queue = Queue(maxsize=self.queue_depth)
        database = mediator.execution_database()

        def put_abortable(item) -> bool:
            """Enqueue unless the session is shutting down."""
            while not run.stop.is_set():
                try:
                    work_q.put(item, timeout=_TICK_S)
                    return True
                except Full:
                    continue
            return False

        def produce() -> None:
            produced = 0
            complete = False
            error: Optional[BaseException] = None
            try:
                plans = orderer.order(space, budget, on_emit=kernel.on_emit)
                for ordered in plans:
                    if aborted():
                        break
                    produced += 1
                    if not put_abortable(kernel.decide(ordered)):
                        produced -= 1
                        break
                else:
                    complete = True
            except BaseException as exc:  # surfaced on the consumer
                error = exc
            finally:
                run.finish_producing(produced, complete, error)
                for _ in range(self.executor_workers):
                    if not put_abortable(_DONE):
                        break

        def work(tracer: Tracer) -> None:
            def execute(executable: ConjunctiveQuery) -> frozenset:
                with tracer.span("service.worker.execute"):
                    return self.backend.execute(executable, database)

            while True:
                try:
                    outcome = work_q.get(timeout=_TICK_S)
                except Empty:
                    if run.stop.is_set():
                        return
                    continue
                if outcome is _DONE:
                    return
                rank = outcome.ordered.rank
                if token.cancelled or deadline.expired:
                    run.publish(rank, _DROPPED)
                    continue
                kernel.run(outcome, execute)
                run.publish(rank, outcome)

        producer = threading.Thread(
            target=produce, name="repro-service-producer", daemon=True
        )
        # Tracers are single-threaded recorders, so every worker gets a
        # private one; the consumer folds them into the session tracer
        # after the workers have quiesced (see the ``finally`` below).
        worker_tracers = [
            Tracer(enabled=self.tracer.enabled)
            for _ in range(self.executor_workers)
        ]
        workers = [
            threading.Thread(
                target=work,
                args=(worker_tracers[i],),
                name=f"repro-service-exec-{i}",
                daemon=True,
            )
            for i in range(self.executor_workers)
        ]

        next_rank = 1
        with kernel.adopt(orderer, self.tracer):
            # The producer thread owns the orderer for the whole run,
            # so its spans nest under this request's trace safely.
            try:
                producer.start()
                for worker in workers:
                    worker.start()
                while True:
                    with run.cond:
                        while True:
                            if next_rank in run.results:
                                item = run.results.pop(next_rank)
                                break
                            if run.produced is not None and next_rank > run.produced:
                                item = None
                                break
                            if token.cancelled or deadline.expired:
                                item = None
                                break
                            run.cond.wait(timeout=_TICK_S)
                    if item is None or item is _DROPPED:
                        if item is None and run.producer_error is not None:
                            raise run.producer_error
                        drained = run.producer_complete and next_rank > run.produced
                        if item is None and drained:
                            report.exhausted = True
                        elif token.cancelled:
                            report.cancelled = True
                        else:
                            # The deadline, possibly observed only by
                            # the producer or a worker.
                            report.deadline_exceeded = True
                        return
                    batch = kernel.fold(item)
                    with self.registry.lock:
                        self._plans_pipelined.inc()
                        self._retries.inc(item.retries)
                        if item.execute_s:
                            self._execute_hist.observe(item.execute_s)
                    yield batch
                    next_rank += 1
                    if (
                        policy.first_k_answers is not None
                        and report.answers >= policy.first_k_answers
                    ):
                        report.satisfied = True
                        return
            finally:
                run.stop.set()
                # Unblock a producer stuck on a full queue, then collect
                # the threads; daemon flags are only a last resort.
                while producer.is_alive():
                    try:
                        while True:
                            work_q.get_nowait()
                    except Empty:
                        pass
                    producer.join(timeout=_TICK_S)
                for worker in workers:
                    worker.join(timeout=5 * _TICK_S)
                if self.tracer.enabled:
                    # Workers have quiesced; their private spans fold into
                    # the session tracer so ``--trace`` reports see them.
                    for worker_tracer in worker_tracers:
                        if len(worker_tracer):
                            self.tracer.merge(worker_tracer)
                if self.resilience is not None:
                    report.breaker_states = self.resilience.breaker_states()
                report.elapsed_s = kernel.watch.stop()

    def run(
        self,
        query: ConjunctiveQuery,
        utility: UtilityMeasure,
        *,
        orderer: Optional[PlanOrderer] = None,
        policy: Optional[RequestPolicy] = None,
        request_id: str = "",
        adaptive: bool = False,
    ) -> tuple[list[AnswerBatch], SessionReport]:
        """Collect the whole stream; returns (batches, report)."""
        batches = list(
            self.stream(
                query, utility,
                orderer=orderer, policy=policy, request_id=request_id,
                adaptive=adaptive,
            )
        )
        report = self.last_report
        if report is None:
            raise InternalError("stream() finished without leaving a report")
        return batches, report
