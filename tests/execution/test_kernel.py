"""The per-plan kernel shared by ``Mediator.answer`` and the session."""

import ast
from pathlib import Path

import pytest

import repro
from repro.errors import ExecutionError, PermanentSourceError
from repro.execution.kernel import PlanKernel
from repro.execution.mediator import Mediator
from repro.observability.journal import EventJournal
from repro.resilience.manager import ResilienceManager
from repro.service.backends import ExecutionBackend
from repro.service.session import PipelinedSession
from repro.utility.cost import LinearCost

#: The plan and answer events; only the kernel may emit them.
KERNEL_EVENTS = {
    "plan.emitted", "plan.unsound", "plan.skipped", "plan.failed",
    "plan.executed", "plan.retry", "answer.first", "answer.progress",
}


class BuggyBackend(ExecutionBackend):
    """An engine bug: every execution raises a non-library error."""

    def execute(self, executable, database):
        raise KeyError("engine bug")


class DeadBackend(ExecutionBackend):
    """A source outage: every execution raises an ExecutionError."""

    def execute(self, executable, database):
        raise PermanentSourceError("v1", "down")


def sequential(movies, backend, resilience):
    """A mediator whose inline execution goes through *backend*."""
    mediator = Mediator(
        movies.catalog, movies.source_facts, resilience=resilience
    )
    mediator.execute_query = lambda executable: backend.execute(
        executable, mediator.execution_database()
    )
    return mediator


def pipelined(movies, backend, resilience):
    mediator = Mediator(
        movies.catalog, movies.source_facts, resilience=resilience
    )
    return PipelinedSession(mediator, backend=backend)


class TestOnlyExecutionErrorDegrades:
    def test_engine_bug_raises_from_the_mediator(self, movies):
        mediator = sequential(movies, BuggyBackend(), ResilienceManager())
        with pytest.raises(KeyError, match="engine bug"):
            list(mediator.answer(movies.query, LinearCost()))

    def test_engine_bug_raises_from_the_session(self, movies):
        session = pipelined(movies, BuggyBackend(), ResilienceManager())
        with pytest.raises(KeyError, match="engine bug"):
            session.run(movies.query, LinearCost())

    def test_execution_error_degrades_in_both_drivers(self, movies):
        mediator = sequential(movies, DeadBackend(), ResilienceManager())
        batches = list(mediator.answer(movies.query, LinearCost()))
        session = pipelined(movies, DeadBackend(), ResilienceManager())
        streamed, report = session.run(movies.query, LinearCost())
        flags = lambda stream: [(b.rank, b.skipped, b.failed) for b in stream]  # noqa: E731
        assert flags(batches) == flags(streamed)
        assert any(b.failed for b in batches)
        assert report.plans_failed == sum(b.failed for b in streamed)

    def test_without_degradation_the_original_error_propagates(self, movies):
        session = pipelined(
            movies, BuggyBackend(), ResilienceManager(graceful=False)
        )
        with pytest.raises(KeyError):
            session.run(movies.query, LinearCost())

    def test_unprocessed_plan_is_an_execution_error(self, movies):
        mediator = Mediator(movies.catalog, movies.source_facts)
        kernel = PlanKernel(mediator, movies.query, mediator.journal, None)
        plan = next(mediator.reformulate(movies.query).plans())
        with pytest.raises(ExecutionError, match="unprocessed"):
            kernel.on_emit(plan)


class TestOneKernelTwoDrivers:
    def test_identical_journals_modulo_threads(self, movies):
        """Both drivers emit the same plan/answer events, per rank."""

        def events(journal):
            return sorted(
                (record["event"], record.get("rank"))
                for record in journal.events()
                if record["event"] in KERNEL_EVENTS
            )

        inline = EventJournal()
        list(
            Mediator(movies.catalog, movies.source_facts, journal=inline)
            .answer(movies.query, LinearCost(), request_id="r")
        )
        threaded = EventJournal()
        PipelinedSession(
            Mediator(movies.catalog, movies.source_facts, journal=threaded)
        ).run(movies.query, LinearCost(), request_id="r")
        assert events(inline) == events(threaded)
        assert events(inline)

    def test_plan_and_answer_events_come_from_one_module(self):
        root = Path(repro.__file__).resolve().parent
        emitters = set()
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Constant)
                    and node.value in KERNEL_EVENTS
                    and path.name != "journal.py"  # the schema table
                ):
                    emitters.add(path.relative_to(root).as_posix())
        assert emitters == {"execution/kernel.py"}
