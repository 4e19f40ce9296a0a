"""Layer probes: spans recorded around the program's public entry points.

Nothing here edits the program.  Each probe shadows one public call
with a wrapper that records a span and then delegates:

* ``reformulate`` -- ``Mediator.reformulate`` (bucket construction);
* ``soundness``   -- ``Mediator.check_soundness`` in process, the
  session's ``plan_query`` in the server;
* ``execute``     -- ``Mediator.execute_query`` in process, a wrapping
  ``ExecutionBackend`` in the server (both run
  ``evaluate_conjunctive_query``);
* ``order``       -- every resumption of an orderer's ``order()``
  iterator, utility evaluation included.

The four layers never nest inside each other, so a span's duration is
its self time.  Spans stay in memory (:attr:`Recorder.spans`) until the
benchmark writes them out at the end.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Callable

LAYERS = ("reformulate", "order", "soundness", "execute")


class Recorder:
    """Spans, per-layer busy time and counts of one traced run.

    ``busy_clock`` measures a layer's busy time.  In one thread the
    wall clock does; in the multi-threaded server the per-thread CPU
    clock does, so a thread waiting for the interpreter lock held by a
    sibling is not charged to its layer.  Span start/end always use
    the wall clock, so spans of different threads share one timeline.
    """

    def __init__(self, busy_clock: Callable[[], float] = time.perf_counter) -> None:
        self.busy_clock = busy_clock
        self.enabled = True
        self.request = ""
        self.spans: list[tuple[str, str, float, float]] = []
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.counts: Counter = Counter()
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.busy = dict.fromkeys(LAYERS, 0.0)
            self.counts.clear()

    def record(self, layer: str, start: float, end: float, busy: float) -> None:
        owner = self.request or f"thread-{threading.get_ident()}"
        with self._lock:
            self.spans.append((owner, layer, start, end))
            self.busy[layer] += busy

    def count(self, **increments: float) -> None:
        with self._lock:
            self.counts.update(increments)

    def export_spans(self) -> list[dict]:
        return [
            {"request": owner, "layer": layer, "start_s": start, "end_s": end}
            for owner, layer, start, end in self.spans
        ]


def timed(recorder: Recorder, layer: str, call: Callable, counter=None) -> Callable:
    """*call* wrapped in a ``layer`` span; ``counter(result)`` counts."""
    clock = recorder.busy_clock

    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return call(*args, **kwargs)
        start, busy = time.perf_counter(), clock()
        result = call(*args, **kwargs)
        recorder.record(layer, start, time.perf_counter(), clock() - busy)
        if counter is not None:
            recorder.count(**counter(result))
        return result

    return wrapper


def count_soundness(executable) -> dict:
    return {"tested": 1, "sound": int(executable is not None)}


def count_execution(answers) -> dict:
    return {"executed": 1, "returned": len(answers)}


def probe_mediator(recorder: Recorder, mediator) -> None:
    """Shadow the mediator's three stage methods with timed wrappers."""
    mediator.reformulate = timed(recorder, "reformulate", mediator.reformulate)
    mediator.check_soundness = timed(
        recorder, "soundness", mediator.check_soundness, count_soundness
    )
    mediator.execute_query = timed(
        recorder, "execute", mediator.execute_query, count_execution
    )


def unprobe_mediator(mediator) -> None:
    for name in ("reformulate", "check_soundness", "execute_query"):
        mediator.__dict__.pop(name, None)


def probe_orderer(recorder: Recorder, orderer):
    """Time each resumption of ``orderer.order()``; returns *orderer*.

    When the iterator ends, the orderer's exact ``OrderingStats``
    counts are folded into the recorder, with the ordering time spent
    before the first plan came out.
    """
    inner = orderer.order
    clock = recorder.busy_clock

    def order(space, k, on_emit=None):
        iterator = inner(space, k, on_emit)
        emitted = 0
        busy_total = 0.0
        first_plan = 0.0
        try:
            while True:
                enabled = recorder.enabled
                start, busy = time.perf_counter(), clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    item = None
                if enabled:
                    spent = clock() - busy
                    busy_total += spent
                    recorder.record("order", start, time.perf_counter(), spent)
                if item is None:
                    return
                emitted += 1
                if emitted == 1:
                    first_plan = busy_total
                yield item
        finally:
            iterator.close()
            if recorder.enabled:
                stats = orderer.stats
                recorder.count(
                    orderings=1,
                    plans_emitted=emitted,
                    first_plan_s=first_plan,
                    plans_evaluated=stats.plans_evaluated,
                    abstract_evaluations=stats.abstract_evaluations,
                )

    orderer.order = order
    return orderer


def layer_table(busy: dict, counts: dict, requests: int, request_s: float) -> dict:
    """The layer metrics shared by every workload.

    *busy* and *counts* come from a :class:`Recorder` (``counts["new"]``
    is filled in by the caller); *requests* took *request_s* seconds in
    all.  ``other.share`` is request time no layer covers, so the
    shares sum to 1.
    """

    def ms(layer):
        return busy[layer] / requests * 1000.0

    def share(layer):
        return busy[layer] / request_s

    def ratio(name, base):
        return counts.get(name, 0) / counts[base] if counts.get(base) else 0.0

    return {
        "execution.execute_ms": ms("execute"),
        "execution.share": share("execute"),
        "execution.answers_per_plan": ratio("returned", "executed"),
        "execution.new_answer_share": ratio("new", "returned"),
        "reformulation.soundness_ms": ms("soundness"),
        "reformulation.soundness_share": share("soundness"),
        "reformulation.sound_share": ratio("sound", "tested"),
        "reformulation.reformulate_ms": ms("reformulate"),
        "reformulation.reformulate_share": share("reformulate"),
        "ordering.order_ms": ms("order"),
        "ordering.share": share("order"),
        "ordering.first_plan_ms": counts.get("first_plan_s", 0.0) / requests * 1000.0,
        "ordering.evaluations_per_plan": ratio("plans_evaluated", "plans_emitted"),
        "ordering.abstract_share": ratio("abstract_evaluations", "plans_evaluated"),
        "other.share": 1.0 - sum(share(layer) for layer in LAYERS),
    }


def count_thread_starts(recorder: Recorder) -> None:
    """Count every ``Thread.start`` in this process as ``threads``."""
    start = threading.Thread.start

    def counted_start(thread, *args, **kwargs):
        if recorder.enabled:
            recorder.count(threads=1)
        return start(thread, *args, **kwargs)

    threading.Thread.start = counted_start
