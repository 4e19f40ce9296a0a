"""The in-process workloads: ``lav-join`` and ``syn-coverage``.

One caller drains ``Mediator.answer`` in a closed loop over a fixed
pool of instances, in an order the seed shuffles.  A run sets up the
pool several times (median = ``setup_s``), makes one untimed warm-up
pass, times requests for about ``--seconds`` and then checks every
output against oracles built outside every timed window.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.execution.instances import materialize_instances
from repro.execution.mediator import Mediator
from repro.ordering.anyk import AnyKOrderer
from repro.ordering.streamer import StreamerOrderer
from repro.utility.cost import LinearCost
from repro.workloads.random_lav import random_scenario
from repro.workloads.synthetic import generate_domain

import layers
from stats import percentile_metrics

#: Scenario seeds of ``lav-join`` and domain seeds of ``syn-coverage``.
LAV_SCENARIOS = tuple(range(1, 25))
SYN_DOMAINS = tuple(range(1, 9))
SETUP_REPEATS = 15
#: Fewest timed requests per instance, however long it takes.
MIN_REPEATS = 2
#: Relative tolerance of the coverage invariant (pytest.approx's default).
COVERAGE_TOLERANCE = 1e-6


@dataclass
class Request:
    """One instance of the pool: a mediator and how to query it."""

    name: str
    mediator: Mediator
    query: object
    make_utility: Callable
    make_orderer: Callable
    max_plans: Optional[int]
    #: ``syn-coverage``: the universe size the coverage invariant uses.
    universe: Optional[int] = None


@dataclass
class Outcome:
    name: str
    latency_s: float
    ttfa_s: Optional[float]
    batches: list = field(repr=False)
    error: Optional[str] = None


def build_lav_join() -> list[Request]:
    pool = []
    for seed in LAV_SCENARIOS:
        scenario = random_scenario(
            seed,
            n_relations=4,
            n_sources=14,
            query_subgoals=3,
            view_subgoals=2,
            domain_size=8,
            facts_per_relation=20,
        )
        pool.append(
            Request(
                name=f"scenario-{seed}",
                mediator=Mediator(scenario.catalog, scenario.source_facts),
                query=scenario.query,
                make_utility=lambda: LinearCost(access_overhead=1.0),
                make_orderer=AnyKOrderer,
                max_plans=None,
            )
        )
    return pool


def build_syn_coverage() -> list[Request]:
    pool = []
    for seed in SYN_DOMAINS:
        domain = generate_domain(bucket_size=24, bits_per_group=8, seed=seed)
        source_facts, _ = materialize_instances(domain.space, domain.model)
        pool.append(
            Request(
                name=f"domain-{seed}",
                mediator=Mediator(domain.catalog, source_facts),
                query=domain.query,
                make_utility=domain.coverage,
                make_orderer=StreamerOrderer,
                max_plans=10,
                universe=domain.model.total_universe_size(),
            )
        )
    return pool


BUILDERS = {"lav-join": build_lav_join, "syn-coverage": build_syn_coverage}


def drain(request: Request, recorder: Optional[layers.Recorder]) -> Outcome:
    """One request, timed from building its orderer to its last batch."""
    start = time.perf_counter()
    utility = request.make_utility()
    orderer = request.make_orderer(utility)
    if recorder is not None:
        layers.probe_orderer(recorder, orderer)
    first_answer = None
    batches = []
    for batch in request.mediator.answer(
        request.query, utility, request.max_plans, orderer=orderer
    ):
        if first_answer is None and batch.new_answers:
            first_answer = time.perf_counter()
        batches.append(batch)
    end = time.perf_counter()
    return Outcome(
        request.name,
        end - start,
        None if first_answer is None else first_answer - start,
        batches,
    )


def answer_union(batches) -> frozenset:
    union = set()
    for batch in batches:
        union |= batch.answers
    return frozenset(union)


def check_coverage(outcome: Outcome, total: int) -> Optional[str]:
    """Every batch's new answers are its utility times the universe
    size, and utilities never increase (Figure 6's invariant)."""
    previous = float("inf")
    for batch in outcome.batches:
        expected = batch.utility * total
        if abs(batch.new_count - expected) > COVERAGE_TOLERANCE * max(1.0, abs(expected)):
            return f"rank {batch.rank}: {batch.new_count} new answers, utility predicts {expected}"
        if batch.utility > previous:
            return f"rank {batch.rank}: utility rose from {previous} to {batch.utility}"
        previous = batch.utility
    return None


def fingerprint(outcomes: list[Outcome]) -> str:
    """Hash of plan keys, per-plan answer counts and answer sets."""
    digest = hashlib.sha256()
    for outcome in sorted(outcomes, key=lambda o: o.name):
        plans = [
            [list(b.plan.key), len(b.answers), sorted(map(repr, b.answers))]
            for b in outcome.batches
        ]
        digest.update(json.dumps([outcome.name, plans]).encode())
    return digest.hexdigest()[:16]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    build = BUILDERS[workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pool = build()
        setup_times.append(time.perf_counter() - start)
    rng = random.Random(seed)

    warm = [drain(request, None) for request in pool]
    warm_s = sum(o.latency_s for o in warm)
    unions = {o.name: answer_union(o.batches) for o in warm}

    def check(request: Request, outcome: Outcome) -> None:
        """Outside the request's timing; drops the batches after."""
        if request.universe is not None:
            outcome.error = check_coverage(outcome, request.universe)
        elif answer_union(outcome.batches) != unions[request.name]:
            outcome.error = "answers differ from the warm-up pass"
        outcome.batches = []

    if trace:
        recorder = layers.Recorder()
        untraced, traced, pass_times = traced_passes(pool, rng, seconds, recorder, check)
    else:
        untraced, traced = time_shared(pool, rng, seconds, check), []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The oracles, outside every timed window.  A warm-up answer set
    # that misses its oracle fails that instance in every pass.
    result = {"fingerprint": fingerprint(warm)}
    by_name = {request.name: request for request in pool}
    for outcome in warm:
        request = by_name[outcome.name]
        if request.universe is not None:
            check(request, outcome)
            continue
        oracle = request.mediator.certain_answers(request.query)
        if unions[outcome.name] != oracle:
            outcome.error = (
                f"{len(unions[outcome.name])} answers, the oracle has {len(oracle)}"
            )
    wrong = {o.name for o in warm if o.error}
    everything = warm + untraced + traced
    errors = [
        f"{o.name}: {o.error or 'warm-up answers were wrong'}"
        for o in everything
        if o.error or o.name in wrong
    ]
    result.update(
        pool=[request.name for request in pool],
        warmup_s=warm_s,
        empty_requests=sum(1 for name in unions if not unions[name]),
        attempted=len(everything),
        failed=len(errors),
        errors=errors[:20],
    )
    if trace:
        result["metrics"] = layer_metrics(recorder, traced, pass_times)
        result["spans"] = recorder.export_spans()
        return result
    # The pool mixes instances whose costs differ by orders of
    # magnitude, so a percentile of the pooled sample would jump between
    # instances on noise.  Every repeat of an instance does the same
    # work, so its fastest repeat is its cost; slower repeats ran while
    # the shared host was slow (README.md, "Noise").  Percentiles are
    # taken across the instances.
    latencies = per_instance_best(untraced, lambda o: o.latency_s)
    ttfas = per_instance_best(untraced, lambda o: o.ttfa_s)
    metrics = {"setup_s": statistics.median(setup_times)}
    metrics.update(percentile_metrics("latency", latencies))
    metrics.update(percentile_metrics("ttfa", ttfas))
    # Closed-loop throughput: one request per instance, each at its
    # fastest latency.
    metrics["requests_per_s"] = len(latencies) / sum(latencies)
    metrics["peak_rss_mb"] = peak_rss_mb
    result.update(
        metrics=metrics,
        samples={
            "requests": len(untraced),
            "latency_instances": len(latencies),
            "ttfa_instances": len(ttfas),
        },
        setup_runs_s=setup_times,
        instances={
            name: [o.latency_s for o in untraced if o.name == name]
            for name in unions
        },
        instances_ttfa={
            name: [o.ttfa_s for o in untraced if o.name == name]
            for name in unions
        },
    )
    return result


def time_shared(pool: list[Request], rng: random.Random, seconds: float, check) -> list[Outcome]:
    """The untraced closed loop: each instance gets an equal share of
    ``seconds`` (and at least ``MIN_REPEATS`` requests).

    Rounds visit the instances that still have time left, in a seeded
    order, so a slow phase of the host falls on all of them alike and
    a cheap instance is repeated often enough to meet a fast phase.
    """
    share = seconds / len(pool)
    outcomes: list[Outcome] = []
    spent = {request.name: [] for request in pool}
    while True:
        due = [
            request
            for request in pool
            if len(spent[request.name]) < MIN_REPEATS
            or sum(spent[request.name]) * (1 + 1 / len(spent[request.name])) <= share
        ]
        if not due:
            return outcomes
        rng.shuffle(due)
        for request in due:
            outcome = drain(request, None)
            spent[request.name].append(outcome.latency_s)
            outcomes.append(outcome)
            check(request, outcome)


def traced_passes(pool: list[Request], rng: random.Random, seconds: float, recorder, check):
    """The traced-run loop: whole passes over the pool, alternating
    untraced and traced, for about ``seconds`` (at least one of each).

    Whole passes weigh every instance once, so the layer shares are
    those of one request per instance.
    """
    untraced: list[Outcome] = []
    traced: list[Outcome] = []
    pass_times: dict[bool, list[float]] = {False: [], True: []}
    elapsed = 0.0
    index = 0
    while index < 2 or index % 2 or elapsed + elapsed / index <= seconds:
        tracing = index % 2 == 1
        order = list(pool)
        rng.shuffle(order)
        pass_s = 0.0
        for request in order:
            if tracing:
                recorder.request = f"{request.name}#{index}"
                layers.probe_mediator(recorder, request.mediator)
                outcome = drain(request, recorder)
                layers.unprobe_mediator(request.mediator)
                recorder.count(new=sum(b.new_count for b in outcome.batches))
                traced.append(outcome)
            else:
                outcome = drain(request, None)
                untraced.append(outcome)
            pass_s += outcome.latency_s
            check(request, outcome)
        pass_times[tracing].append(pass_s)
        elapsed += pass_s
        index += 1
    return untraced, traced, pass_times


def per_instance_best(outcomes: list[Outcome], value) -> list[float]:
    """Each instance's smallest *value* over its repeats (None skipped)."""
    best: dict[str, float] = {}
    for outcome in outcomes:
        sample = value(outcome)
        if sample is not None:
            best[outcome.name] = min(sample, best.get(outcome.name, sample))
    return list(best.values())


def layer_metrics(recorder: layers.Recorder, traced: list[Outcome], pass_times) -> dict:
    """The per-layer table of a traced in-process run."""
    metrics = layers.layer_table(
        recorder.busy,
        recorder.counts,
        len(traced),
        sum(o.latency_s for o in traced),
    )
    # No session, no wire and no generator in a closed in-process loop.
    for name in (
        "service.threads_per_request",
        "service.server_elapsed_ms",
        "service.session_overhead_ms",
        "wire.overhead_ms",
        "wire.bytes_per_request",
        "loadgen.lag_p99_ms",
    ):
        metrics[name] = 0.0
    metrics["trace.overhead"] = statistics.mean(pass_times[True]) / statistics.mean(
        pass_times[False]
    )
    return metrics
