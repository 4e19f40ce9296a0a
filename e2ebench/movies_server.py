"""One ``QueryService`` on the movies catalog behind the TCP front end.

Started by ``run.py`` for the ``movies-wire`` workload, in its own
process, with the default service configuration (``auto`` orderer,
``linear`` measure, 2 executor workers, journal off).  It prints
``READY <port>`` once it accepts connections and then obeys one
command per stdin line:

* ``stats``   -- print one JSON line: peak RSS and, when probed, the
  layer busy times and counts since the last ``reset``;
* ``reset``   -- clear the layer probes;
* ``trace 0`` / ``trace 1`` -- switch the layer probes off / on;
* end of input -- shut down and exit.

With ``--probe SPANS_PATH`` the layer probes of ``layers.py`` are
installed (off until ``trace 1``) and the recorded spans are written to
``SPANS_PATH`` at exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
from repro.service import session  # noqa: E402
from repro.service.backends import ExecutionBackend, InMemoryBackend  # noqa: E402
from repro.service.frontend import start_server  # noqa: E402
from repro.service.server import ORDERER_TABLE, QueryService  # noqa: E402
from repro.service.workloads import service_workload  # noqa: E402


class TimedBackend(ExecutionBackend):
    """The default in-memory backend inside an ``execute`` span."""

    def __init__(self, recorder: layers.Recorder) -> None:
        self._execute = layers.timed(
            recorder, "execute", InMemoryBackend().execute, layers.count_execution
        )

    def execute(self, executable, database):
        return self._execute(executable, database)


def install_probes(recorder: layers.Recorder, service: QueryService) -> None:
    mediator = service.mediator
    mediator.reformulate = layers.timed(recorder, "reformulate", mediator.reformulate)
    # The session's producer decides soundness through this name.
    session.plan_query = layers.timed(
        recorder, "soundness", session.plan_query, layers.count_soundness
    )
    for name, factory in list(ORDERER_TABLE.items()):
        ORDERER_TABLE[name] = lambda utility, factory=factory: layers.probe_orderer(
            recorder, factory(utility)
        )
    layers.count_thread_starts(recorder)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", metavar="SPANS_PATH")
    args = parser.parse_args()

    catalog, facts, measures, _ = service_workload("movies", 0)
    recorder = None
    backend = None
    if args.probe:
        recorder = layers.Recorder(busy_clock=time.thread_time)
        recorder.enabled = False
        backend = TimedBackend(recorder)
    service = QueryService(catalog, facts, measures=measures, backend=backend)
    if recorder is not None:
        install_probes(recorder, service)
    server, thread = start_server(service)
    print(f"READY {server.port}", flush=True)
    try:
        for line in sys.stdin:
            command = line.split()
            if command == ["stats"]:
                stats = {
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    / 1024.0
                }
                if recorder is not None:
                    stats["busy_s"] = dict(recorder.busy)
                    stats["counts"] = dict(recorder.counts)
                print(json.dumps(stats), flush=True)
            elif command == ["reset"] and recorder is not None:
                recorder.reset()
            elif command[:1] == ["trace"] and recorder is not None:
                recorder.enabled = command[1:] == ["1"]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        service.shutdown()
        if recorder is not None:
            Path(args.probe).write_text(json.dumps(recorder.export_spans()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
