"""The per-plan kernel: the body of the anytime loop, written once.

:class:`PlanKernel` does the paper's per-plan work (Section 2) in
three steps, and both mediator drivers call them:

* ``decide(ordered)`` — soundness, decided *before* the orderer is
  resumed, so ``on_emit`` always finds its answer;
* ``run(outcome, execute)`` — breaker admission, execution with a
  retry schedule, health recording;
* ``fold(outcome)`` — new answers against the running union, the
  :class:`AnswerBatch`, counters, the :class:`SessionReport`, and the
  plan and answer journal events.

``Mediator.answer`` calls the steps inline, one plan at a time;
``PipelinedSession`` calls ``decide`` and ``fold`` (in rank order) on
the thread iterating its stream and ``run`` on an executor pool.  Only
an :class:`~repro.errors.ExecutionError` under a graceful resilience
manager degrades into a failed batch; every other error propagates
from ``fold``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.errors import ExecutionError, TransientExecutionError
from repro.datalog.query import ConjunctiveQuery
from repro.observability.journal import EventJournal
from repro.observability.tracing import NOOP_TRACER, Stopwatch, Tracer
from repro.ordering.base import OrderedPlan, PlanOrderer
from repro.reformulation.plans import QueryPlan
from repro.resilience.manager import ResilienceManager

if TYPE_CHECKING:
    from repro.execution.mediator import Mediator
    from repro.service.policy import RetryPolicy

__all__ = ["AnswerBatch", "PlanKernel", "PlanOutcome", "SessionReport"]

@dataclass(frozen=True)
class AnswerBatch:
    """The outcome of processing one plan from the ordering.

    The trailing defaulted flags are degradation accounting (see
    :mod:`repro.resilience`): a *skipped* plan was never executed
    because a circuit breaker blocked one of its sources; a *failed*
    plan exhausted its retries and was gracefully dropped.  Both carry
    empty answer sets.
    """

    rank: int
    plan: QueryPlan
    utility: float
    sound: bool
    answers: frozenset[tuple[object, ...]]
    new_answers: frozenset[tuple[object, ...]]
    skipped: bool = False
    failed: bool = False

    @property
    def new_count(self) -> int:
        return len(self.new_answers)


@dataclass
class SessionReport:
    """What happened to one request.

    The degradation fields (``plans_skipped`` through
    ``breaker_states``) are always present — callers can rely on every
    summary record carrying them, zeroed when nothing degraded.  See
    ``docs/resilience.md``.
    """

    plans_processed: int = 0
    sound_plans: int = 0
    unsound_plans: int = 0
    answers: int = 0
    retries: int = 0
    deadline_exceeded: bool = False
    cancelled: bool = False
    satisfied: bool = False  # first_k_answers reached
    exhausted: bool = False  # plan budget fully drained
    first_answer_s: Optional[float] = None
    elapsed_s: float = 0.0
    plans_skipped: int = 0  # breaker blocked a source, never executed
    plans_failed: int = 0  # retries exhausted, gracefully dropped
    sources_skipped: list[str] = field(default_factory=list)
    answers_partial: bool = False
    breaker_states: dict[str, str] = field(default_factory=dict)

    @property
    def status(self) -> str:
        if self.cancelled:
            return "cancelled"
        if self.deadline_exceeded:
            return "deadline_exceeded"
        return "ok"

    def as_dict(self) -> dict[str, object]:
        # vars() keeps the field order; the containers are copied.
        data = {"status": self.status, **vars(self)}
        data["sources_skipped"] = list(self.sources_skipped)
        data["breaker_states"] = dict(self.breaker_states)
        return data


@dataclass(slots=True)
class PlanOutcome:
    """One emitted plan on its way from ``decide`` through ``fold``."""

    ordered: OrderedPlan
    #: The plan's source-level query; None means unsound.
    executable: Optional[ConjunctiveQuery]
    answers: frozenset = frozenset()
    retries: int = 0
    error: Optional[BaseException] = None
    execute_s: float = 0.0
    #: Breaker-blocked source names; non-empty means never executed.
    skipped_sources: tuple[str, ...] = ()


class PlanKernel:
    """Per-request state and the three per-plan steps of one request.

    *retry* is the backoff schedule for transient failures (any object
    with ``max_attempts`` and ``delay(attempts, salt=...)``, normally a
    :class:`~repro.service.policy.RetryPolicy`); None means one
    attempt.  *aborted* and *sleep* let a driver cut retries short on
    shutdown, deadline or cancellation.
    """

    def __init__(
        self,
        mediator: "Mediator",
        query: ConjunctiveQuery,
        journal: EventJournal,
        resilience: Optional[ResilienceManager],
        *,
        request_id: str = "",
        retry: Optional["RetryPolicy"] = None,
        aborted: Callable[[], bool] = lambda: False,
        sleep: Callable[[float], object] = time.sleep,
    ) -> None:
        self.mediator = mediator
        self.query = query
        self.journal = journal.bind(request_id)
        # Hoisted once: the flag cannot change mid-run, and every step
        # consults it (BoundJournal.enabled is a property — a local
        # bool keeps the disabled path near-free; ``repro profile``
        # gates this in CI).
        self.journaling = self.journal.enabled
        self.resilience = resilience
        self.request_id = request_id
        self.max_attempts = 1 if retry is None else retry.max_attempts
        self.retry = retry
        self.aborted = aborted
        self.sleep = sleep
        self.report = SessionReport()
        self.watch = Stopwatch().start()
        self.soundness: dict[tuple[str, ...], bool] = {}
        self.seen: set[tuple[object, ...]] = set()

    @contextmanager
    def adopt(self, orderer: PlanOrderer, tracer: Tracer) -> Iterator[None]:
        """Bind *orderer* to this request's journal and tracer.

        Adaptive orderers journal their re-sorts (duck-typed, so any
        orderer with the hook benefits).  An untraced orderer borrows
        *tracer* so its spans nest under the request's trace, and gives
        it back on exit, so the orderer can be reused elsewhere.
        """
        bind = getattr(orderer, "bind_journal", None)
        if bind is not None:
            bind(self.journal)
        adopted = orderer.tracer is NOOP_TRACER and tracer.enabled
        if adopted:
            orderer.tracer = tracer
        try:
            yield
        finally:
            if adopted:
                orderer.tracer = NOOP_TRACER

    def on_emit(self, plan: QueryPlan) -> bool:
        # ``decide`` has always run for this plan before the orderer
        # is resumed and asks.
        try:
            return self.soundness[plan.key]
        except KeyError:
            raise ExecutionError(
                f"orderer asked about unprocessed plan {plan}"
            ) from None

    # -- the three steps ---------------------------------------------------------

    def decide(self, ordered: OrderedPlan) -> PlanOutcome:
        """Soundness for *ordered*, before the orderer is resumed."""
        executable = self.mediator.check_soundness(self.query, ordered.plan)
        sound = executable is not None
        self.soundness[ordered.plan.key] = sound
        if self.journaling:
            self.journal.emit(
                "plan.emitted",
                rank=ordered.rank,
                plan=list(ordered.plan.key),
                utility=ordered.utility,
                sound=sound,
            )
        return PlanOutcome(ordered, executable)

    def run(
        self,
        outcome: PlanOutcome,
        execute: Callable[[ConjunctiveQuery], frozenset],
    ) -> None:
        """Admit and run a sound plan through *execute* (which may raise
        :class:`~repro.errors.ExecutionError`); errors land on *outcome*."""
        if outcome.executable is None:
            return
        resilience = self.resilience
        plan = outcome.ordered.plan
        sources: tuple[str, ...] = ()
        if resilience is not None:
            # A breaker blocking one of the plan's sources skips it
            # without executing, so the retry budget survives for
            # plans with a chance of answering.
            outcome.skipped_sources = resilience.admit(
                plan, request_id=self.request_id
            )
            if outcome.skipped_sources:
                return
            sources = ResilienceManager.sources_of(plan)
        attempts = 0
        while True:
            attempts += 1
            try:
                with Stopwatch() as watch:
                    outcome.answers = execute(outcome.executable)
            except ExecutionError as exc:
                # Source-attributed or not, a failed attempt feeds the
                # health tracker and breakers.
                if resilience is not None:
                    resilience.record_failure(
                        sources, exc, request_id=self.request_id
                    )
                if (
                    not isinstance(exc, TransientExecutionError)
                    or attempts >= self.max_attempts
                    or self.aborted()
                ):
                    outcome.error = exc
                    return
            except BaseException as exc:
                # Not degradable; kept for ``fold`` to re-raise, since
                # on an executor worker an escaping error would strand
                # the consumer.
                outcome.error = exc
                return
            else:
                outcome.execute_s += watch.elapsed
                if resilience is not None:
                    resilience.record_success(
                        sources, watch.elapsed, request_id=self.request_id
                    )
                return
            outcome.retries += 1
            delay = self.retry.delay(attempts, salt=self.request_id)
            if self.journaling:
                self.journal.emit(
                    "plan.retry",
                    rank=outcome.ordered.rank,
                    attempt=attempts,
                    delay_s=delay,
                )
            if delay > 0.0:
                self.sleep(delay)

    def fold(self, outcome: PlanOutcome) -> AnswerBatch:
        """The plan's batch, folded into the request's running state."""
        report = self.report
        report.retries += outcome.retries
        error = outcome.error
        if error is not None and not (
            isinstance(error, ExecutionError)
            and self.resilience is not None
            and self.resilience.graceful
        ):
            raise error
        ordered = outcome.ordered
        answers = outcome.answers
        new = frozenset(answers - self.seen)
        self.seen.update(answers)
        skipped = bool(outcome.skipped_sources)
        failed = error is not None
        batch = AnswerBatch(
            ordered.rank,
            ordered.plan,
            ordered.utility,
            outcome.executable is not None,
            answers,
            new,
            skipped=skipped,
            failed=failed,
        )
        mediator = self.mediator
        # Several requests may fold into one shared registry at once.
        with mediator.registry.lock:
            mediator.record_batch(batch)
        report.plans_processed += 1
        journaling = self.journaling
        journal = self.journal
        rank = ordered.rank
        if skipped:
            report.plans_skipped += 1
            for source in outcome.skipped_sources:
                if source not in report.sources_skipped:
                    report.sources_skipped.append(source)
            report.answers_partial = True
            if journaling:
                journal.emit(
                    "plan.skipped", rank=rank, sources=list(outcome.skipped_sources)
                )
        elif failed:
            report.plans_failed += 1
            report.answers_partial = True
            if journaling:
                journal.emit("plan.failed", rank=rank, error=type(error).__name__)
        elif not batch.sound:
            report.unsound_plans += 1
            if journaling:
                journal.emit("plan.unsound", rank=rank)
        else:
            report.sound_plans += 1
            if journaling:
                journal.emit(
                    "plan.executed",
                    rank=rank,
                    answers=len(answers),
                    new_answers=len(new),
                    execute_s=outcome.execute_s,
                )
        report.answers = len(self.seen)
        if new:
            # stop() leaves the start instant in place, so every
            # elapsed time measures from the start of the request.
            elapsed = self.watch.stop()
            first_answer = report.first_answer_s is None
            if first_answer:
                report.first_answer_s = elapsed
            if journaling:
                if first_answer:
                    journal.emit("answer.first", rank=rank, elapsed_s=elapsed)
                journal.emit(
                    "answer.progress",
                    rank=rank,
                    answers=len(self.seen),
                    elapsed_s=elapsed,
                )
        return batch
