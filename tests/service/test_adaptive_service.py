"""The service-level adaptivity knob and the closed feedback loop.

``ServiceConfig.adaptivity`` picks the server default ("auto" = on for
requests that did not name an orderer), ``RequestPolicy.adaptivity``
(the wire protocol's ``adaptive`` field) overrides per request, and a
service without a resilience manager never adapts — there is no health
signal to react to.
"""

import time

import pytest

from repro.errors import ProtocolError, ServiceError
from repro.observability.journal import EventJournal
from repro.resilience.breaker import BreakerBoard
from repro.resilience.chaos import ChaosBackend, bundled_profile
from repro.resilience.manager import ResilienceManager
from repro.service import protocol
from repro.service.policy import RequestPolicy, RetryPolicy
from repro.service.server import (
    AUTO_ORDERER,
    QueryRequest,
    QueryService,
    ServiceConfig,
)
from repro.utility.cost import BindJoinCost, LinearCost
from repro.workloads.movies import movie_domain

FAST_POLICY = RequestPolicy(
    retry=RetryPolicy(max_attempts=2, base_s=0.001, cap_s=0.002)
)


def adaptive_service(
    movies,
    *,
    adaptivity="on",
    backend=None,
    resilience=None,
    journal=None,
    **config_kwargs,
):
    return QueryService(
        movies.catalog,
        movies.source_facts,
        measures={
            "linear": LinearCost,
            "failure": lambda: BindJoinCost(failure_aware=True),
        },
        config=ServiceConfig(
            default_policy=FAST_POLICY,
            default_measure="failure",
            adaptivity=adaptivity,
            **config_kwargs,
        ),
        backend=backend,
        resilience=resilience,
        journal=journal,
    )


class TestResolveAdaptivity:
    def make(self, movies, adaptivity="auto", with_resilience=True):
        return adaptive_service(
            movies,
            adaptivity=adaptivity,
            resilience=ResilienceManager() if with_resilience else None,
        )

    def test_no_resilience_never_adapts(self, movies):
        service = self.make(movies, adaptivity="on", with_resilience=False)
        try:
            assert not service.resolve_adaptivity(RequestPolicy(), AUTO_ORDERER)
        finally:
            service.shutdown()

    def test_auto_follows_the_orderer_choice(self, movies):
        service = self.make(movies)
        try:
            assert service.resolve_adaptivity(RequestPolicy(), AUTO_ORDERER)
            assert not service.resolve_adaptivity(RequestPolicy(), "greedy")
        finally:
            service.shutdown()

    def test_on_and_off_force_the_default(self, movies):
        on = self.make(movies, adaptivity="on")
        off = self.make(movies, adaptivity="off")
        try:
            assert on.resolve_adaptivity(RequestPolicy(), "greedy")
            assert not off.resolve_adaptivity(RequestPolicy(), AUTO_ORDERER)
        finally:
            on.shutdown()
            off.shutdown()

    def test_request_policy_overrides_the_server(self, movies):
        service = self.make(movies, adaptivity="off")
        try:
            assert service.resolve_adaptivity(
                RequestPolicy(adaptivity=True), "greedy"
            )
            service.config = ServiceConfig(adaptivity="on")
            assert not service.resolve_adaptivity(
                RequestPolicy(adaptivity=False), AUTO_ORDERER
            )
        finally:
            service.shutdown()

    def test_bad_config_value_rejected(self):
        with pytest.raises(ServiceError, match="adaptivity"):
            ServiceConfig(adaptivity="sometimes")


class TestProtocolKnob:
    def test_adaptive_field_round_trips(self):
        record = protocol.request_record("q(X) :- r(X)", adaptive=True)
        assert record["adaptive"] is True
        request = protocol.request_from_record(record)
        assert request.policy.adaptivity is True
        off = protocol.request_from_record(
            protocol.request_record("q(X) :- r(X)", adaptive=False)
        )
        assert off.policy.adaptivity is False

    def test_omitted_field_defers_to_the_server_default(self):
        request = protocol.request_from_record(
            {"type": "query", "query": "q(X) :- r(X)"}
        )
        assert request.policy.adaptivity is None

    def test_non_boolean_adaptive_rejected(self):
        with pytest.raises(ProtocolError, match="adaptive"):
            protocol.request_from_record(
                {"type": "query", "query": "q(X) :- r(X)", "adaptive": 1}
            )


class TestFeedbackLoopEndToEnd:
    def test_flapping_chaos_triggers_a_journaled_reorder(self, movies):
        # queue_depth=1 keeps the orderer at most one plan ahead of
        # execution, so failures land while the stream is still being
        # ordered; the short cooldown lets breakers half-open between
        # requests, driving the demote-and-repromote cycle.
        resilience = ResilienceManager(
            min_observations=1, board=BreakerBoard(cooldown_s=0.05)
        )
        service = adaptive_service(
            movies,
            backend=ChaosBackend(bundled_profile("flapping"), seed=7),
            resilience=resilience,
            journal=EventJournal(),
            queue_depth=1,
            executor_workers=1,
        )
        try:
            reordered = []
            for index in range(8):
                result = service.execute(
                    QueryRequest(movies.query, request_id=f"r{index}")
                )
                # Graceful degradation: chaos never aborts a request.
                assert result.status in ("ok", "degraded")
                reordered = service.journal.events(event="plan.reordered")
                if reordered:
                    break
                time.sleep(0.06)  # let the breaker cooldowns elapse
            assert reordered, "no plan.reordered under flapping chaos"
            service.journal.validate()
            registry = service.registry.as_dict()

            def counter(name):
                return registry.get(name, {}).get("value", 0)

            assert counter("ordering.adaptive.reorders") >= 1
            assert counter("ordering.adaptive.epoch_checks") >= 1
        finally:
            service.shutdown()

    def test_healthy_service_stream_is_identical_adaptive_on_vs_off(
        self, movies
    ):
        def run(adaptivity):
            service = adaptive_service(
                movies,
                adaptivity=adaptivity,
                resilience=ResilienceManager(),
            )
            try:
                result = service.execute(QueryRequest(movies.query))
                assert result.ok
                return [
                    (batch.rank, batch.plan.key, batch.utility, batch.sound)
                    for batch in result.batches
                ]
            finally:
                service.shutdown()

        assert run("on") == run("off")
