"""Random local-as-view scenarios for cross-validation.

Generates random mediated schemas, random conjunctive views over them,
random conjunctive queries, and random source instances.  The point is
adversarial testing of the reformulation stack: on any such scenario
the three independent pipelines —

1. bucket algorithm + soundness test + plan execution,
2. MiniCon rewritings + execution,
3. inverse rules + datalog evaluation,

are cross-checked.  MiniCon and inverse rules are *complete* for
conjunctive queries, so their answers must coincide exactly; the
bucket pipeline builds only one-source-per-subgoal conjunctive plans,
which is sound but famously incomplete when a view covers several
subgoals through a hidden join variable (the very gap MiniCon was
invented to close), so its answers must be a subset.  A violation of
either relation pinpoints a reformulation bug that hand-written
examples would likely miss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Atom, Variable
from repro.errors import ReformulationError
from repro.reformulation.plans import Bucket, PlanSpace
from repro.sources.catalog import Catalog, SourceDescription
from repro.sources.overlap import OverlapModel
from repro.sources.statistics import SourceStats
from repro.utility.cost import BindJoinCost, LinearCost
from repro.utility.coverage import CoverageUtility
from repro.utility.monetary import MonetaryCostPerTuple


@dataclass
class RandomScenario:
    """One random LAV setup with a concrete instance."""

    catalog: Catalog
    query: ConjunctiveQuery
    source_facts: dict[str, set[tuple[object, ...]]]
    schema_facts: dict[str, set[tuple[object, ...]]]


def random_scenario(
    seed: int,
    n_relations: int = 3,
    n_sources: int = 5,
    query_subgoals: int = 2,
    view_subgoals: int = 2,
    domain_size: int = 5,
    facts_per_relation: int = 8,
    source_completeness: float = 0.7,
) -> RandomScenario:
    """Build a random scenario; deterministic per seed.

    Views are conjunctions of 1..``view_subgoals`` schema atoms whose
    heads expose a random nonempty subset of the body variables; the
    query is a conjunction of ``query_subgoals`` atoms with a random
    nonempty head.  Source instances are random subsets of the views'
    exact extensions over a random schema instance, so sources are
    incomplete (as in the paper's setting) and every source tuple
    genuinely satisfies its description.
    """
    rng = random.Random(seed)
    catalog = Catalog()
    arities = {}
    for index in range(n_relations):
        arity = rng.choice((1, 2, 2))  # binary-heavy, as usual
        name = f"rel{index}"
        catalog.add_relation(name, arity)
        arities[name] = arity

    # Random schema instance.
    domain = [f"c{i}" for i in range(domain_size)]
    schema_facts: dict[str, set[tuple[object, ...]]] = {}
    for name, arity in arities.items():
        rows = set()
        for _ in range(facts_per_relation):
            rows.add(tuple(rng.choice(domain) for _ in range(arity)))
        schema_facts[name] = rows

    variables = [Variable(f"X{i}") for i in range(6)]

    def random_body(n_atoms: int) -> tuple[Atom, ...]:
        body = []
        for _ in range(n_atoms):
            name = rng.choice(list(arities))
            args = tuple(
                rng.choice(variables[: 2 * n_atoms]) for _ in range(arities[name])
            )
            body.append(Atom(name, args))
        return tuple(body)

    # Random views + their exact extensions + sampled instances.
    from repro.execution.engine import evaluate_conjunctive_query

    source_facts: dict[str, set[tuple[object, ...]]] = {}
    for index in range(n_sources):
        for _attempt in range(20):
            body = random_body(rng.randint(1, view_subgoals))
            body_vars = sorted(
                {v for atom in body for v in atom.variables()},
                key=lambda v: v.name,
            )
            head_size = rng.randint(1, len(body_vars))
            head_vars = tuple(rng.sample(body_vars, head_size))
            name = f"src{index}"
            view = ConjunctiveQuery(Atom(name, head_vars), body)
            try:
                catalog.add_source(view)
            except ReformulationError:
                continue
            extension = evaluate_conjunctive_query(view, schema_facts)
            # Sorted: set iteration order follows the string hash seed,
            # and the draws must not.
            kept = {
                row
                for row in sorted(extension)
                if rng.random() < source_completeness
            }
            source_facts[name] = kept
            break
        else:
            raise ReformulationError(f"could not build view {index}")

    # Random query; retried until it is safe (always, by construction).
    body = random_body(query_subgoals)
    body_vars = sorted(
        {v for atom in body for v in atom.variables()}, key=lambda v: v.name
    )
    head_size = rng.randint(1, min(3, len(body_vars)))
    head_vars = tuple(rng.sample(body_vars, head_size))
    query = ConjunctiveQuery(Atom("q", head_vars), body)

    return RandomScenario(catalog, query, source_facts, schema_facts)


@dataclass
class OrderingScenario:
    """A random LAV scenario dressed up as a plan-ordering domain.

    The bucket algorithm's plan space over a :func:`random_scenario`
    catalog, with every source re-equipped with randomized
    :class:`SourceStats` and a random :class:`OverlapModel`, so all
    four utility measures are evaluable.  Mirrors the factory API of
    :class:`~repro.workloads.synthetic.SyntheticDomain`.

    Transfer costs are deliberately *uniform* across sources so the
    uniform-transfer bind-join measure really is fully monotonic
    (Section 3's proviso) on these scenarios.
    """

    scenario: RandomScenario
    space: PlanSpace
    model: OverlapModel
    domain_sizes: tuple[float, ...]

    def coverage(self) -> CoverageUtility:
        return CoverageUtility(self.model)

    def linear_cost(self) -> LinearCost:
        return LinearCost(access_overhead=1.0)

    def bind_join_cost(self) -> BindJoinCost:
        return BindJoinCost(
            access_overhead=1.0,
            domain_sizes=self.domain_sizes,
            uniform_transfer=True,
        )

    def monetary(self) -> MonetaryCostPerTuple:
        return MonetaryCostPerTuple(domain_sizes=self.domain_sizes)


def ordering_scenario(
    seed: int,
    min_plans: int = 6,
    universe_bits: int = 24,
    **scenario_kwargs: object,
) -> OrderingScenario:
    """A random LAV scenario whose plan space supports ordering tests.

    Draws :func:`random_scenario` instances at seeds derived
    deterministically from *seed* until the bucket algorithm yields a
    plan space with at least *min_plans* plans, then enriches it:

    * every source gets randomized :class:`SourceStats` (one per
      source *name* — a source appearing in several buckets keeps one
      identity) with uniform transfer cost;
    * every (bucket, source) pair gets a random extension bitmask in a
      *universe_bits*-bit universe, forming the :class:`OverlapModel`.
    """
    from repro.reformulation.buckets import build_buckets

    # Distinct stream from the scenario seeds; int-seeded so it stays
    # deterministic across processes (str/tuple seeding hashes).
    rng = random.Random(seed * 7919 + 13)
    scenario = None
    space = None
    for attempt in range(100):
        candidate_seed = seed * 1009 + attempt
        candidate = random_scenario(candidate_seed, **scenario_kwargs)
        try:
            candidate_space = build_buckets(candidate.query, candidate.catalog)
        except ReformulationError:
            continue
        if candidate_space.size >= min_plans:
            scenario, space = candidate, candidate_space
            break
    if scenario is None or space is None:
        raise ReformulationError(
            f"no random scenario with >= {min_plans} plans near seed {seed}"
        )

    enriched: dict[str, SourceDescription] = {}
    for bucket in space.buckets:
        for source in bucket.sources:
            if source.name not in enriched:
                stats = SourceStats(
                    n_tuples=rng.randint(1, 200),
                    transfer_cost=1.0,
                    failure_prob=rng.uniform(0.0, 0.3),
                    access_fee=rng.uniform(0.5, 3.0),
                    fee_per_item=rng.uniform(0.01, 0.2),
                )
                enriched[source.name] = SourceDescription(
                    source.name, source.view, stats
                )

    buckets = tuple(
        Bucket(
            bucket.index,
            tuple(enriched[source.name] for source in bucket.sources),
            bucket.subgoal,
        )
        for bucket in space.buckets
    )
    rich_space = PlanSpace(buckets, space.query)

    extensions = {
        (bucket.index, source.name): rng.getrandbits(universe_bits) or 1
        for bucket in buckets
        for source in bucket.sources
    }
    model = OverlapModel([universe_bits] * len(buckets), extensions)
    domain_sizes = tuple(
        3.0 * max(source.stats.n_tuples for source in bucket.sources)
        for bucket in buckets
    )
    return OrderingScenario(scenario, rich_space, model, domain_sizes)


@dataclass
class FuzzSpace:
    """A directly-constructed bucket product for orderer fuzzing.

    Unlike :class:`OrderingScenario` there is no LAV reformulation in
    the loop: the buckets are fabricated, which lets the generator
    reach shapes reformulation rarely produces — heavy-tailed bucket
    sizes (one giant bucket next to singletons), adversarial fee
    structures (everything tied, everything free, fees spanning orders
    of magnitude), non-uniform transfer costs, and the degenerate
    single-bucket space.  Mirrors the measure-factory API of
    :class:`~repro.workloads.synthetic.SyntheticDomain`.
    """

    seed: int
    space: PlanSpace
    model: OverlapModel
    domain_sizes: tuple[float, ...]
    #: Which adversarial fee structure was drawn ("iid", "tied",
    #: "zero", or "extreme") — printed by the fuzz suite on failure.
    fee_profile: str
    #: True when every source shares one transfer cost, the proviso
    #: under which the bind-join measure is fully monotonic.
    uniform_transfer: bool

    def coverage(self) -> CoverageUtility:
        return CoverageUtility(self.model)

    def linear_cost(self) -> LinearCost:
        return LinearCost(access_overhead=1.0)

    def bind_join_cost(self) -> BindJoinCost:
        return BindJoinCost(
            access_overhead=1.0,
            domain_sizes=self.domain_sizes,
            uniform_transfer=self.uniform_transfer,
        )

    def failure_cost(self, caching: bool = False) -> BindJoinCost:
        return BindJoinCost(
            access_overhead=1.0,
            domain_sizes=self.domain_sizes,
            failure_aware=True,
            caching=caching,
        )

    def monetary(self, caching: bool = False) -> MonetaryCostPerTuple:
        return MonetaryCostPerTuple(
            domain_sizes=self.domain_sizes, caching=caching
        )

    def describe(self) -> str:
        """One line a failing fuzz test can print for replay."""
        sizes = "x".join(str(len(b)) for b in self.space.buckets)
        return (
            f"fuzz_ordering_space(seed={self.seed}): buckets {sizes} "
            f"({self.space.size} plans), fees={self.fee_profile}, "
            f"uniform_transfer={self.uniform_transfer}"
        )


#: Adversarial fee structures the fuzz generator cycles through.
FEE_PROFILES = ("iid", "tied", "zero", "extreme")


def _fuzz_fees(rng: random.Random, profile: str) -> tuple[float, float]:
    """(access_fee, fee_per_item) under an adversarial fee structure."""
    if profile == "tied":
        # Identical for every source: the monetary measure ties on
        # every plan with the same output estimate.
        return 1.5, 0.1
    if profile == "zero":
        # Free sources: MonetaryCostPerTuple's output floor keeps the
        # per-tuple division defined; utilities collapse to 0.
        return 0.0, 0.0
    if profile == "extreme":
        # Several orders of magnitude, so one bucket coordinate can
        # dominate every other choice.
        return 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-4, 1)
    return rng.uniform(0.5, 3.0), rng.uniform(0.01, 0.2)


def _fuzz_bucket_sizes(
    rng: random.Random, width: int, max_plans: int
) -> list[int]:
    """Heavy-tailed sizes whose product stays at or below *max_plans*."""
    sizes = [1 + min(60, int(rng.paretovariate(0.9))) for _ in range(width)]
    while True:
        product = 1
        for size in sizes:
            product *= size
        if product <= max_plans:
            return sizes
        largest = max(range(width), key=lambda i: sizes[i])
        sizes[largest] = max(1, sizes[largest] // 2)


def fuzz_ordering_space(
    seed: int,
    max_plans: int = 2000,
    universe_bits: int = 16,
) -> FuzzSpace:
    """A randomized plan space for brute-force cross-checks.

    Deterministic per *seed*.  Every seventh seed draws the degenerate
    single-bucket space; the rest draw 2–4 buckets with heavy-tailed
    (Pareto) sizes, clamped so the product never exceeds *max_plans*
    and stays brute-forceable.  The *empty*-bucket degenerate case
    cannot be represented — :class:`PlanSpace` rejects it at
    construction (see :func:`empty_bucket_space`).
    """
    rng = random.Random(seed * 9973 + 29)
    width = 1 if seed % 7 == 3 else rng.randint(2, 4)
    sizes = _fuzz_bucket_sizes(rng, width, max_plans)
    fee_profile = FEE_PROFILES[seed % len(FEE_PROFILES)]
    uniform_transfer = rng.random() < 0.5

    catalog = Catalog()
    for level in range(width):
        catalog.add_relation(f"r{level + 1}", 1)
    buckets = []
    extensions: dict[tuple[int, str], int] = {}
    for bucket_index, size in enumerate(sizes):
        members = []
        for j in range(size):
            access_fee, fee_per_item = _fuzz_fees(rng, fee_profile)
            stats = SourceStats(
                # Heavy-tailed output estimates to stress abstraction
                # intervals and the per-tuple division.
                n_tuples=1 + min(10_000, int(3 * rng.paretovariate(1.2))),
                transfer_cost=(
                    1.0 if uniform_transfer else rng.uniform(0.5, 2.0)
                ),
                failure_prob=rng.uniform(0.0, 0.4),
                access_fee=access_fee,
                fee_per_item=fee_per_item,
            )
            name = f"f{bucket_index}_{j}"
            members.append(
                catalog.add_source(
                    f"{name}(Y) :- r{bucket_index + 1}(Y)", stats=stats
                )
            )
            extensions[(bucket_index, name)] = (
                rng.getrandbits(universe_bits) or 1
            )
        buckets.append(Bucket(bucket_index, tuple(members)))

    space = PlanSpace(tuple(buckets))
    model = OverlapModel([universe_bits] * width, extensions)
    domain_sizes = tuple(
        3.0 * max(source.stats.n_tuples for source in bucket.sources)
        for bucket in buckets
    )
    return FuzzSpace(
        seed, space, model, domain_sizes, fee_profile, uniform_transfer
    )


def empty_bucket_space() -> PlanSpace:
    """The degenerate empty-bucket case.

    Always raises :class:`~repro.errors.ReformulationError`: a bucket
    with no covering sources means the query has no conjunctive plans
    at all, and :class:`PlanSpace` rejects the construction rather
    than letting orderers meet a zero-plan product.  Kept here so the
    fuzz suite documents the boundary alongside the cases it *can*
    generate.
    """
    return PlanSpace((Bucket(0, ()),))


def certain_answers_three_ways(
    scenario: RandomScenario,
) -> tuple[set, set, Optional[set]]:
    """(bucket+soundness, inverse rules, MiniCon) answers.

    The MiniCon entry is None when the bucket algorithm finds no
    covering sources for some subgoal (then both plan-based pipelines
    yield no plans, and inverse rules is the only generic oracle).
    """
    from repro.execution.engine import evaluate_conjunctive_query, execute_plan
    from repro.reformulation.buckets import build_buckets
    from repro.reformulation.inverse_rules import answer_with_inverse_rules
    from repro.reformulation.minicon import minicon_plan_queries

    inverse = answer_with_inverse_rules(
        scenario.catalog, scenario.query, scenario.source_facts
    )

    bucket_answers: set = set()
    try:
        space = build_buckets(scenario.query, scenario.catalog)
    except ReformulationError:
        space = None
    if space is not None:
        for plan in space.plans():
            result = execute_plan(scenario.query, plan, scenario.source_facts)
            if result is not None:
                bucket_answers |= result

    minicon_answers: set = set()
    for rewriting in minicon_plan_queries(scenario.query, scenario.catalog):
        minicon_answers |= evaluate_conjunctive_query(
            rewriting, scenario.source_facts
        )

    return bucket_answers, inverse, minicon_answers
