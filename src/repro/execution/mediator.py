"""The anytime mediator: ordering + soundness + execution (Section 2).

Given a user query, the mediator

1. builds the buckets (reformulation),
2. streams plans out of a plan-ordering algorithm in decreasing
   utility,
3. tests each plan for soundness; unsound plans are thrown away and do
   *not* count as executed (the ordering algorithm is told via its
   ``on_emit`` callback),
4. executes sound plans against the source instances and yields the
   *new* answer tuples each contributes.

Consumers can stop iterating as soon as they are satisfied — the
"first answers fast" behaviour the paper optimizes for.

:meth:`Mediator.answer` is the strictly sequential driver: one thread
runs the per-plan kernel (:class:`~repro.execution.kernel.PlanKernel`:
decide soundness, run the plan, fold its answers) in lockstep with the
orderer.  :class:`~repro.service.session.PipelinedSession` is the
pipelined driver of the same kernel: it runs ``decide`` and ``fold``
on the consuming thread and ``run`` on an executor pool.  Both
drivers call the stage methods exposed here (:meth:`reformulate`,
:meth:`check_soundness`, :meth:`record_batch`; the sequential driver
also :meth:`execute_query`) through the instance, so a per-instance
wrapper around one of them (a timing probe, a fault injector) sees
every call.
"""

from __future__ import annotations

import types
from typing import Callable, Iterator, Mapping, Optional

from repro.datalog.query import ConjunctiveQuery
from repro.execution.engine import evaluate_conjunctive_query
from repro.execution.kernel import AnswerBatch, PlanKernel
from repro.observability.journal import EventJournal, NOOP_JOURNAL
from repro.observability.metrics import MetricRegistry
from repro.observability.tracing import NOOP_TRACER, Tracer
from repro.ordering.adaptive import AdaptiveOrderer
from repro.ordering.base import PlanOrderer
from repro.ordering.bruteforce import PIOrderer
from repro.reformulation.buckets import build_buckets
from repro.reformulation.inverse_rules import answer_with_inverse_rules
from repro.reformulation.plans import PlanSpace, QueryPlan
from repro.reformulation.soundness import plan_query
from repro.resilience.manager import ResilienceManager
from repro.sources.catalog import Catalog
from repro.utility.base import UtilityMeasure

#: Builds an orderer for a utility measure.
OrdererFactory = Callable[[UtilityMeasure], PlanOrderer]


class Mediator:
    """A data-integration system facade over a catalog and instances."""

    def __init__(
        self,
        catalog: Catalog,
        source_facts: Mapping[str, set[tuple[object, ...]]],
        orderer_factory: Optional[OrdererFactory] = None,
        *,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
        journal: Optional[EventJournal] = None,
        resilience: Optional[ResilienceManager] = None,
    ) -> None:
        self.catalog = catalog
        self.source_facts = {
            name: set(facts) for name, facts in source_facts.items()
        }
        self.orderer_factory = orderer_factory or PIOrderer
        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: Lifecycle event stream (see repro.observability.journal);
        #: disabled by default, shared with sessions built on this
        #: mediator.  Correlation ids come from the ``request_id``
        #: parameter of :meth:`answer` (the service layer supplies its
        #: own ids).
        self.journal = journal if journal is not None else NOOP_JOURNAL
        #: When set, ``answer`` (and any PipelinedSession built on this
        #: mediator) consults breakers before executing a plan and feeds
        #: execution outcomes back into the health tracker.
        self.resilience = resilience
        self._plans_processed = self.registry.counter("mediator.plans_processed")
        self._sound_plans = self.registry.counter("mediator.sound_plans")
        self._unsound_plans = self.registry.counter("mediator.unsound_plans")
        self._answers_emitted = self.registry.counter("mediator.answers_emitted")
        self._new_answers = self.registry.counter("mediator.new_answers")
        self._plans_skipped = self.registry.counter("mediator.plans_skipped")
        self._plans_failed = self.registry.counter("mediator.plans_failed")

    def execution_database(self) -> Mapping[str, set[tuple[object, ...]]]:
        """A read-only view of the source instances for plan execution.

        Execution engines (and, in the service layer, concurrent
        executor workers) must not be able to add or drop whole source
        relations; handing out a mapping proxy instead of the live
        dict makes that structurally impossible.
        """
        return types.MappingProxyType(self.source_facts)

    # -- pipeline stages ---------------------------------------------------------
    #
    # The per-plan kernel calls these through the instance, from
    # whichever thread its driver runs a step on.  Each stage is safe
    # to call on its own.

    def reformulate(self, query: ConjunctiveQuery) -> PlanSpace:
        """Build the bucket plan space for *query* (traced)."""
        with self.tracer.span("mediator.reformulate"):
            return build_buckets(query, self.catalog)

    def check_soundness(
        self, query: ConjunctiveQuery, plan: QueryPlan
    ) -> Optional[ConjunctiveQuery]:
        """The plan's executable source-level query, or None if unsound."""
        with self.tracer.span("mediator.soundness"):
            return plan_query(query, plan)

    def execute_query(
        self, executable: ConjunctiveQuery
    ) -> frozenset[tuple[object, ...]]:
        """Evaluate a (sound) plan's query over the source instances."""
        with self.tracer.span("mediator.execute"):
            return frozenset(
                evaluate_conjunctive_query(executable, self.execution_database())
            )

    def record_batch(self, batch: AnswerBatch) -> None:
        """Fold one processed plan into the ``mediator.*`` counters."""
        self._plans_processed.inc()
        if batch.skipped:
            self._plans_skipped.inc()
            return
        if batch.failed:
            self._plans_failed.inc()
            return
        if batch.sound:
            self._sound_plans.inc()
            self._answers_emitted.inc(len(batch.answers))
            self._new_answers.inc(batch.new_count)
        else:
            self._unsound_plans.inc()

    def resolve_budget(self, space: PlanSpace, max_plans: Optional[int]) -> int:
        return space.size if max_plans is None else min(max_plans, space.size)

    def make_orderer(
        self,
        utility: UtilityMeasure,
        *,
        adaptive: bool = False,
        factory: Optional[OrdererFactory] = None,
    ) -> PlanOrderer:
        """An orderer from *factory* (default: the configured one),
        optionally adaptive.

        With ``adaptive`` (and a resilience manager to supply the
        health epoch), the factory's orderer is wrapped in an
        :class:`~repro.ordering.adaptive.AdaptiveOrderer` watching
        ``resilience.epoch`` — the mediator-level entry point to
        mid-stream re-ordering.  Without resilience there is no health
        signal to adapt to, so the flag degrades to the plain factory.
        """
        if factory is None:
            factory = self.orderer_factory
        if not adaptive or self.resilience is None:
            return factory(utility)
        return AdaptiveOrderer(
            utility,
            inner_factory=factory,
            epoch=self.resilience.epoch,
            registry=self.registry,
        )

    # -- the sequential anytime loop ---------------------------------------------

    def answer(
        self,
        query: ConjunctiveQuery,
        utility: UtilityMeasure,
        max_plans: Optional[int] = None,
        orderer: Optional[PlanOrderer] = None,
        *,
        request_id: str = "",
        adaptive: bool = False,
    ) -> Iterator[AnswerBatch]:
        """Stream answer batches, best plans first.

        ``max_plans`` bounds how many plans (sound or not) are pulled
        from the ordering; by default the whole plan space is drained.
        ``request_id`` is the correlation id stamped on the journal
        events this run emits (when the mediator's journal is on).
        ``adaptive`` (ignored when *orderer* is supplied) asks
        :meth:`make_orderer` for a health-epoch-watching wrapper.
        """
        kernel = PlanKernel(
            self, query, self.journal, self.resilience, request_id=request_id
        )
        space = self.reformulate(query)
        if orderer is None:
            orderer = self.make_orderer(utility, adaptive=adaptive)
        budget = self.resolve_budget(space, max_plans)
        with kernel.adopt(orderer, self.tracer):
            for ordered in orderer.order(space, budget, on_emit=kernel.on_emit):
                outcome = kernel.decide(ordered)
                kernel.run(outcome, self.execute_query)
                yield kernel.fold(outcome)

    def answer_all(
        self,
        query: ConjunctiveQuery,
        utility: UtilityMeasure,
    ) -> set[tuple[object, ...]]:
        """All answers: the union over every sound plan."""
        answers: set[tuple[object, ...]] = set()
        for batch in self.answer(query, utility):
            answers.update(batch.answers)
        return answers

    def certain_answers(self, query: ConjunctiveQuery) -> set[tuple[object, ...]]:
        """Ground truth via inverse rules (independent code path)."""
        return answer_with_inverse_rules(self.catalog, query, self.source_facts)
