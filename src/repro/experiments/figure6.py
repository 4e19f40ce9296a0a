"""Panel definitions for every table/figure of the paper's evaluation.

Figure 6 has twelve panels: four utility measures, each at k = 1, 10
and 100, plotting time-to-k-th-plan against bucket size for PI,
iDrips, and (where applicable) Streamer.  The in-text claims
(Streamer's first-iteration evaluation fraction, the overlap-rate and
query-length sweeps) are exposed as separate runners.

Run from the command line::

    python -m repro.experiments.figure6            # default sizes
    python -m repro.experiments.figure6 --quick    # small sizes
    python -m repro.experiments.figure6 --full     # paper-scale sweep
    python -m repro.experiments.figure6 --panel a b c
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.experiments.harness import AlgorithmSpec, PanelResult, PanelSpec, run_panel
from repro.ordering.registry import ORDERERS

#: Bucket-size sweeps per mode.
QUICK_SIZES = (4, 8, 12)
DEFAULT_SIZES = (4, 8, 12, 16)
FULL_SIZES = (8, 16, 24, 32, 40)


def _algo(label: str, orderer: str, measure: str, **options: object) -> AlgorithmSpec:
    """*label*: the registry's *orderer* over the domain's *measure*."""
    return AlgorithmSpec(
        label, lambda d: ORDERERS[orderer](d.measure(measure), **options)
    )


def _paper_algorithms(measure: str, streamer: bool = True) -> tuple[AlgorithmSpec, ...]:
    # AnyK applies to every measure: lattice mode when fully monotonic,
    # interval (region-refinement) mode otherwise.
    return (
        _algo("PI", "pi", measure),
        _algo("iDrips", "idrips", measure),
        *((_algo("Streamer", "streamer", measure),) if streamer else ()),
        _algo("AnyK", "anyk", measure),
    )


def _panels(
    letters: str, title: str, algorithms: tuple[AlgorithmSpec, ...]
) -> dict[str, PanelSpec]:
    """One measure's three panels: the 1st, 10th and 100th plan."""
    return {
        letter: PanelSpec(f"6.{letter}", f"{title}, {nth} plan", k, algorithms)
        for letter, nth, k in zip(letters, ("1st", "10th", "100th"), (1, 10, 100))
    }


#: Every Figure 6 panel, keyed a-l as in the paper.
PANELS: dict[str, PanelSpec] = {
    # (a)-(c): plan coverage -- Streamer applicable (diminishing returns).
    **_panels("abc", "plan coverage", _paper_algorithms("coverage")),
    # (d)-(f): cost with source failure, no caching -- full independence.
    **_panels("def", "failure cost (no caching)", _paper_algorithms("failure")),
    # (g)-(i): cost with failure + caching -- diminishing returns fails,
    # Streamer is not applicable (paper, Section 6); AnyK falls back to
    # its interval (region-refinement) mode and stays exact.
    **_panels(
        "ghi",
        "failure cost (caching)",
        _paper_algorithms("failure-caching", streamer=False),
    ),
    # (j)-(l): average monetary cost per tuple, both caching options.
    **_panels(
        "jkl",
        "monetary cost/tuple",
        _paper_algorithms("monetary")
        + (
            _algo("PI+cache", "pi", "monetary-caching"),
            _algo("iDrips+cache", "idrips", "monetary-caching"),
        ),
    ),
}


def breakdown_spec(k: int = 10, cache: bool = False) -> PanelSpec:
    """Every ordering algorithm on one measure, for the
    evaluation/timing breakdown section of the harness report.

    Linear cost (measure (1)) is fully monotonic, context-free and
    utility-diminishing, so PI, iDrips, Streamer, Greedy *and* AnyK are
    all applicable — the only measure family where all five algorithms
    can be compared head-to-head.  ``cache=True`` additionally opts every
    algorithm into :class:`~repro.observability.caching.CachingUtilityMeasure`.
    """
    algorithms = tuple(
        _algo(label, orderer, "linear", cache=cache)
        for label, orderer in (
            ("PI", "pi"),
            ("iDrips", "idrips"),
            ("Streamer", "streamer"),
            ("Greedy", "greedy"),
            ("AnyK", "anyk"),
        )
    )
    return PanelSpec(
        "breakdown",
        "linear cost, all five algorithms" + (" (memoized)" if cache else ""),
        k,
        algorithms,
    )


def overlap_sweep_spec(
    overlap_rate: float, k: int = 20, algorithms: Optional[tuple[AlgorithmSpec, ...]] = None
) -> PanelSpec:
    """Section 6 in-text claim: Streamer degrades as overlap grows."""
    algos = algorithms or (
        _algo("PI", "pi", "coverage"),
        _algo("Streamer", "streamer", "coverage"),
    )
    # Six groups per bucket give 15 group pairs, so the overlap rate
    # actually moves the number of overlapping source pairs; several
    # seeds average out the coin flips.
    return PanelSpec(
        f"overlap-{overlap_rate}",
        f"coverage, overlap rate {overlap_rate}",
        k,
        algos,
        bucket_sizes=(12,),
        overlap_rate=overlap_rate,
        seeds=(0, 1, 2),
        groups_per_bucket=6,
    )


def query_length_spec(query_length: int, k: int = 10) -> PanelSpec:
    """Section 6 in-text claim: trends persist for query length 1-7."""
    return PanelSpec(
        f"qlen-{query_length}",
        f"failure cost, query length {query_length}",
        k,
        _paper_algorithms("failure")[:3],  # PI, iDrips, Streamer
        bucket_sizes=(8,),
        query_length=query_length,
    )


def run_panels(
    panel_ids: Sequence[str],
    bucket_sizes: Sequence[int],
) -> list[PanelResult]:
    results = []
    for panel_id in panel_ids:
        spec = PANELS[panel_id]
        results.append(run_panel(spec, bucket_sizes=bucket_sizes))
    return results


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--panel", nargs="*", default=sorted(PANELS), help="panels to run (a-l)"
    )
    parser.add_argument("--quick", action="store_true", help="small bucket sizes")
    parser.add_argument("--full", action="store_true", help="paper-scale sizes")
    parser.add_argument(
        "--sweeps", action="store_true", help="also run overlap/query-length sweeps"
    )
    parser.add_argument(
        "--breakdown",
        action="store_true",
        help="print per-algorithm evaluation breakdowns "
        "(includes the all-four-algorithms linear-cost panel)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write every panel's rows (timings + evaluation counters) "
        "as JSON to PATH",
    )
    args = parser.parse_args(argv)

    sizes = DEFAULT_SIZES
    if args.quick:
        sizes = QUICK_SIZES
    if args.full:
        sizes = FULL_SIZES

    results = run_panels(args.panel, sizes)
    for result in results:
        print(result.format_table())
        print()
        if args.breakdown:
            print(result.format_breakdown())
            print()

    if args.breakdown:
        four_way = run_panel(breakdown_spec(), bucket_sizes=sizes)
        results.append(four_way)
        print(four_way.format_table())
        print()
        print(four_way.format_breakdown())
        print()

    if args.sweeps:
        for rate in (0.1, 0.3, 0.5, 0.7):
            print(run_panel(overlap_sweep_spec(rate)).format_table())
            print()
        for length in (1, 2, 3, 4, 5):
            print(run_panel(query_length_spec(length)).format_table())
            print()

    if args.metrics_out:
        payload = {result.spec.panel_id: result.as_dict() for result in results}
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote panel metrics to {args.metrics_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
