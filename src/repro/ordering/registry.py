"""Every plan orderer addressable by name, in one table.

The CLI (``--algorithm``, ``--orderer``, ``--default-orderer``), the
query service (the ``orderer`` field of a request) and the cluster
workers all resolve names here.  :data:`ORDERERS` is read at lookup
time, so replacing one of its entries (to wrap every orderer a service
builds, say) takes effect for the next request.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import OrderingError
from repro.ordering.anyk import AnyKOrderer
from repro.ordering.base import PlanOrderer
from repro.ordering.bruteforce import ExhaustiveOrderer, PIOrderer
from repro.ordering.greedy import GreedyOrderer
from repro.ordering.idrips import IDripsOrderer
from repro.ordering.streamer import StreamerOrderer
from repro.utility.base import UtilityMeasure

__all__ = [
    "AUTO_ORDERER",
    "ORDERERS",
    "make_orderer",
    "orderer_choices",
    "orderer_factory",
    "resolve_orderer_name",
]

#: Orderer constructors by name.
ORDERERS: dict[str, Callable[..., PlanOrderer]] = {
    "pi": PIOrderer,
    "exhaustive": ExhaustiveOrderer,
    "idrips": IDripsOrderer,
    "streamer": StreamerOrderer,
    "greedy": GreedyOrderer,
    "anyk": AnyKOrderer,
}

#: The measure-dependent default: a name that resolves per measure via
#: :func:`resolve_orderer_name`.
AUTO_ORDERER = "auto"


def orderer_choices() -> tuple[str, ...]:
    """Every accepted orderer name: ``auto`` and the table's names."""
    return (AUTO_ORDERER, *ORDERERS)


def resolve_orderer_name(name: str, utility: UtilityMeasure) -> str:
    """Resolve ``"auto"`` against a measure's structural flags.

    Fully monotonic measures get :class:`AnyKOrderer` — its lattice
    mode emits the first plan without materializing the product space,
    with a stream byte-identical to PI's (the equivalence sweeps in
    ``tests/ordering`` are the guarantee).  Everything else keeps the
    conservative PI default, whose interval refinement is the paper's
    reference behavior for non-monotonic measures.  Explicit names
    pass through untouched.
    """
    if name != AUTO_ORDERER:
        return name
    return "anyk" if utility.is_fully_monotonic else "pi"


def orderer_factory(name: str, utility: UtilityMeasure) -> Callable[..., PlanOrderer]:
    """The constructor *name* resolves to for *utility*.

    Raises :class:`~repro.errors.OrderingError` for an unknown name.
    """
    resolved = resolve_orderer_name(name, utility)
    try:
        return ORDERERS[resolved]
    except KeyError:
        raise OrderingError(
            f"unknown orderer {resolved!r}; have {sorted(ORDERERS)}"
        ) from None


def make_orderer(name: str, utility: UtilityMeasure, **options: object) -> PlanOrderer:
    """An orderer called *name* over *utility*; *options* go to its
    constructor (``cache``, ``registry``, ``tracer``, ...)."""
    return orderer_factory(name, utility)(utility, **options)
