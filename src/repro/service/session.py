"""The pipelined anytime session: ordering overlapped with execution.

``Mediator.answer`` is strictly sequential: the orderer cannot start
computing plan ``i+1`` until plan ``i`` has finished executing.  The
paper's Section 2 motivation is the opposite — *"the mediator should
begin executing the best plan while the ordering algorithm computes
the next ones"*.  :class:`PipelinedSession` realizes that by running
the steps of the per-plan kernel
(:class:`~repro.execution.kernel.PlanKernel`) on two sides of an
executor, and starts no thread of its own:

* the **calling thread** (the one iterating :meth:`stream`) drives the
  plan orderer and the kernel's ``decide`` step (soundness), keeping
  at most ``queue_depth`` plans decided but not yet folded;
* an **executor** — the pool its :class:`~repro.service.server.QueryService`
  owns, or a private one — runs the kernel's ``run`` step (breaker
  admission, execution with retries) over a read-only view of the
  source instances, at most ``executor_workers`` plans of one request
  at a time;
* back on the calling thread, finished plans are folded (the kernel's
  ``fold`` step) in rank order — so the batch stream is *identical*,
  plan for plan and byte for byte, to the sequential mediator's,
  which calls the same three steps inline.

Why the ordering survives the concurrency: ``decide`` for plan ``i``
runs immediately after the orderer yields it, *before* the generator
is resumed — exactly when the sequential mediator runs it.  The
orderers' ``on_emit`` callback (asked on resumption) therefore sees
the same answers in the same order, and the emitted plan sequence
cannot diverge.  Execution results never influence the ordering, only
their soundness bits do, so running executions out of order is
unobservable after folding in rank order.

This module owns only the scheduling: submission, reordering by rank,
the deadline and cancellation.  Deadlines and cancellation are
cooperative and clean: on expiry the session stops pulling plans,
cancels the executions that have not started, waits for the ones that
have, and finishes the batch stream early;
:attr:`SessionReport.deadline_exceeded` is set instead of raising, so
partial results always reach the caller.  When :meth:`stream` returns,
no work of the request is left running.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Executor, Future, ThreadPoolExecutor, wait
from typing import Iterator, Optional

from repro.errors import ExecutionError, InternalError
from repro.datalog.query import ConjunctiveQuery
from repro.execution.kernel import PlanKernel, PlanOutcome, SessionReport
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

__all__ = ["EXECUTOR_THREAD_PREFIX", "PipelinedSession", "SessionReport"]

#: Poll granularity of the wait for executions.  Only a liveness bound
#: (cancellation is noticed at least this often); completions and the
#: deadline wake the waiting thread directly.
_TICK_S = 0.05

#: Name prefix of executor threads, the service's and private ones.
EXECUTOR_THREAD_PREFIX = "repro-service-exec"


class PipelinedSession:
    """Runs queries through a mediator with ordering/execution overlap.

    One session instance serves one request at a time (the service
    layer creates a session per admitted request); the mediator,
    registry, backend and *executor* it wraps may be shared freely.
    Without an *executor*, each :meth:`stream` runs its plans on a
    private pool of ``executor_workers`` threads and joins it before
    returning.
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
        executor: Optional[Executor] = None,
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
        self.executor = executor
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
        same order, same batches) with execution overlapped with
        ordering and soundness.  After the generator finishes (or is
        closed early), :attr:`last_report` describes the run.
        ``request_id`` correlates this run's journal events (emitted
        from the calling thread and the executor threads — the journal
        serializes them with one global ``seq``).

        ``adaptive`` (ignored when *orderer* is supplied) wraps the
        mediator's orderer factory in the health-epoch-watching
        :class:`~repro.ordering.adaptive.AdaptiveOrderer`.  The epoch
        is bumped by executions (of this and any concurrent session)
        recording outcomes into the shared resilience manager; the
        orderer notices at its next resumption — between two
        ``on_emit`` exchanges, which is exactly where the lazy-orderer
        contract allows re-planning.
        """
        mediator = self.mediator
        policy = policy if policy is not None else self.policy
        deadline = policy.start_deadline()
        token = policy.token()
        stop = threading.Event()

        def aborted() -> bool:
            return stop.is_set() or token.cancelled or deadline.expired

        def backoff(delay: float) -> None:
            # Sleep on the stop event so the end of the stream cuts the
            # backoff short.
            stop.wait(deadline.clamp(delay))

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
        database = mediator.execution_database()
        backend = self.backend

        def execute(executable: ConjunctiveQuery) -> frozenset:
            return backend.execute(executable, database)

        def job(outcome: PlanOutcome) -> bool:
            """Run one plan; False if the request ended before it started."""
            if aborted():
                return False
            kernel.run(outcome, execute)
            return True

        done = threading.Condition()
        finished = 0  # submitted jobs that have completed

        def on_done(_future: Future) -> None:
            nonlocal finished
            with done:
                finished += 1
                done.notify()

        executor = self.executor
        private = executor is None
        if private:
            executor = ThreadPoolExecutor(
                self.executor_workers, thread_name_prefix=EXECUTOR_THREAD_PREFIX
            )
        plans = orderer.order(space, budget, on_emit=kernel.on_emit)
        pending: deque[PlanOutcome] = deque()  # decided, not folded; by rank
        waiting: deque[PlanOutcome] = deque()  # sound, not yet submitted
        futures: dict[int, Future] = {}  # submitted, not folded; by rank
        submitted = 0
        more = True  # the orderer may yield further plans
        order_error: Optional[Exception] = None
        with kernel.adopt(orderer, self.tracer):
            try:
                while True:
                    # Read before the readiness checks: a completion
                    # missed by them has bumped ``finished`` already.
                    seen = finished
                    head = pending[0] if pending else None
                    future = None if head is None else futures.get(head.ordered.rank)
                    # A job that found the token cancelled or the deadline
                    # passed ran nothing (result False); the checks below
                    # then end the stream.
                    if head is not None and (
                        head.executable is None
                        or (future is not None and future.done() and future.result())
                    ):
                        pending.popleft()
                        futures.pop(head.ordered.rank, None)
                        batch = kernel.fold(head)
                        with self.registry.lock:
                            self._plans_pipelined.inc()
                            self._retries.inc(head.retries)
                            if head.execute_s:
                                self._execute_hist.observe(head.execute_s)
                        yield batch
                        if (
                            policy.first_k_answers is not None
                            and report.answers >= policy.first_k_answers
                        ):
                            report.satisfied = True
                            return
                        continue
                    if token.cancelled:
                        report.cancelled = True
                        return
                    if deadline.expired:
                        report.deadline_exceeded = True
                        return
                    while waiting and submitted - finished < self.executor_workers:
                        outcome = waiting.popleft()
                        future = executor.submit(job, outcome)
                        future.add_done_callback(on_done)
                        futures[outcome.ordered.rank] = future
                        submitted += 1
                    if more and len(pending) < self.queue_depth:
                        try:
                            ordered = next(plans, None)
                            if ordered is None:
                                more = False
                            else:
                                outcome = kernel.decide(ordered)
                                pending.append(outcome)
                                if outcome.executable is not None:
                                    waiting.append(outcome)
                        except Exception as exc:
                            # Raised once the plans before it are folded,
                            # as the sequential mediator would.
                            order_error = exc
                            more = False
                        continue
                    if not pending:
                        if order_error is not None:
                            raise order_error
                        report.exhausted = True
                        return
                    with done:
                        if finished == seen:
                            done.wait(deadline.clamp(_TICK_S))
            finally:
                stop.set()
                # A cancelled job never starts; the others have started
                # (and see ``stop``) or finished.
                wait([f for f in futures.values() if not f.cancel()])
                if private:
                    executor.shutdown(wait=True)
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
