"""The served workload, ``movies-wire``.

A ``QueryService`` on the movies catalog runs in its own process
(``movies_server.py``) behind the JSON-lines TCP front end.  This
process is the load generator, over two persistent connections: one
client in a closed loop (the latency and TTFA metrics), two clients in
a closed loop (``requests_per_s``), then an open-loop ladder of fixed
rates in which each request is timed from when it was *due*, so a late
generator shows (the per-rung table and ``max_rate_rps``).  Requests
are drawn, with the seed, from a fixed ``build_query_mix`` of 16 movie
queries that includes the canonical one; every reply's answers must
equal an in-process ``answer_all`` reference for its query.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import select
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

from repro.datalog.parser import parse_query
from repro.execution.mediator import Mediator
from repro.service import protocol
from repro.service.loadgen import build_query_mix
from repro.service.workloads import service_workload
from repro.utility.cost import LinearCost

import layers
from stats import percentile, percentile_metrics

HERE = Path(__file__).resolve().parent

#: Shares of the run: one client's closed loop (latency and TTFA), two
#: clients' closed loop (``requests_per_s``), then the open-loop ladder.
#: Closed loops keep both vCPUs busy.  At an open-loop rate well below
#: capacity they idle between requests, and waking an idle vCPU of a
#: shared host made the latencies spread 0.17-0.41 over six runs,
#: against 0.10-0.15 for the closed loops (see README.md, "Noise").
ONE_CLIENT_SHARE = 0.4
TWO_CLIENT_SHARE = 0.2
#: The open-loop ladder in requests per second, from well below to just
#: above the served path's capacity on a 2-core host (closed-loop
#: capacity there: 360-470 req/s over 2 connections).  Its rungs share
#: the rest of the run equally; they give the report's per-rung table
#: and ``max_rate_rps``.
LADDER = (100, 200, 300, 400, 500, 600)
#: One client's percentiles are medians over windows of this length.
WINDOW_S = 1.25
LIMIT_P99_S = 0.025
#: The query mix is fixed (``build_query_mix`` with this seed); the
#: benchmark seed draws each request's query from it.  Mixes built from
#: different seeds differ by +-20% in mean cost per query, which would
#: move the latency medians by more than the noise of the host.
MIX_SEED = 0
MIX_SIZE = 16
CONNECTIONS = 2
SETUP_REPEATS = 3
READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


class Request:
    """One request's timeline and reply, filled in by the reader."""

    __slots__ = (
        "id", "query", "rung", "due", "sent", "first_answer", "done",
        "status", "elapsed_s", "answers", "returned", "new", "nbytes",
        "plans", "finished",
    )

    def __init__(self, number: int, query: int, rung: int, due: float) -> None:
        self.id = f"r{number}"
        self.query = query
        self.rung = rung
        self.due = due
        self.sent = self.first_answer = self.done = None
        self.status = "unanswered"
        self.elapsed_s = 0.0
        self.answers: set = set()
        self.returned = self.new = self.nbytes = 0
        self.plans: Optional[list] = None
        self.finished = threading.Event()


class Client:
    """Sends each request on the connection with fewer outstanding
    requests; one reader thread per connection records the replies."""

    def __init__(self, port: int) -> None:
        self.sockets = []
        self.outstanding = [0] * CONNECTIONS
        self.requests: dict[str, Request] = {}
        self._lock = threading.Lock()
        self.readers = []
        for index in range(CONNECTIONS):
            sock = socket.create_connection(("127.0.0.1", port), timeout=READY_TIMEOUT_S)
            sock.settimeout(None)  # readers block until close()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sockets.append(sock)
            reader = threading.Thread(
                target=self._read, args=(index, sock), name=f"bench-reader-{index}"
            )
            reader.start()
            self.readers.append(reader)

    def send(self, request: Request, texts: list[str]) -> None:
        line = protocol.encode_line(
            protocol.request_record(texts[request.query], request_id=request.id)
        )
        request.nbytes += len(line)
        with self._lock:
            index = min(range(CONNECTIONS), key=self.outstanding.__getitem__)
            self.outstanding[index] += 1
            self.requests[request.id] = request
        request.sent = time.perf_counter()
        self.sockets[index].sendall(line)

    def _read(self, index: int, sock: socket.socket) -> None:
        try:
            for raw in sock.makefile("rb"):
                now = time.perf_counter()
                record = json.loads(raw)
                request = self.requests[record["id"]]
                request.nbytes += len(raw)
                kind = record["type"]
                if kind == "batch":
                    rows = record["answers"]
                    new = record["new_answers"]
                    request.returned += len(rows)
                    request.new += len(new)
                    if new and request.first_answer is None:
                        request.first_answer = now
                    request.answers.update(map(tuple, new))
                    if request.plans is not None:
                        request.plans.append([record["plan"], len(rows), rows])
                    continue
                request.done = now
                if kind == "summary":
                    request.status = record["status"]
                    request.elapsed_s = record.get("elapsed_s", 0.0)
                else:
                    request.status = f"{kind}: {record.get('code')}"
                with self._lock:
                    self.outstanding[index] -= 1
                request.finished.set()
        except OSError:
            pass  # the socket was closed under us at shutdown

    def close(self) -> None:
        for sock in self.sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        for reader in self.readers:
            reader.join(timeout=10.0)


class Server:
    """The ``movies_server.py`` child process and its command pipe."""

    def __init__(self, log_path: Path, probe: Optional[Path] = None) -> None:
        command = [sys.executable, "-u", str(HERE / "movies_server.py")]
        if probe is not None:
            command += ["--probe", str(probe)]
        self.log = open(log_path, "a")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
            cwd=HERE.parent,
        )
        line = self._line(READY_TIMEOUT_S)
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError(f"server did not start (see {log_path}): {line!r}")
        self.setup_s = time.perf_counter() - start
        self.port = int(line.split()[1])

    def _line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        return self.process.stdout.readline().strip() if ready else ""

    def command(self, text: str) -> None:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()

    def stats(self) -> dict:
        self.command("stats")
        return json.loads(self._line(30.0) or "{}")

    def stop(self) -> None:
        try:
            self.process.stdin.close()
            self.process.wait(timeout=15.0)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self.log.close()


def wire_row(row: tuple) -> tuple:
    """An answer row as it reads back from the wire (JSON scalars)."""
    return tuple(
        value if isinstance(value, (str, int, float, bool, type(None))) else str(value)
        for value in row
    )


def references(texts: list[str]) -> list[frozenset]:
    """Each query's in-process ``answer_all``, in wire form."""
    catalog, facts, _, _ = service_workload("movies", 0)
    mediator = Mediator(catalog, facts)
    return [
        frozenset(map(wire_row, mediator.answer_all(parse_query(text), LinearCost())))
        for text in texts
    ]


def schedule(rng: random.Random, rungs: list[tuple[int, float]], start: float, first: int):
    """Requests of consecutive rungs ``(rate, seconds)``, evenly spaced."""
    requests = []
    number = first
    for rate, seconds in rungs:
        for step in range(round(rate * seconds)):
            requests.append(Request(number, rng.randrange(MIX_SIZE), rate, start + step / rate))
            number += 1
        start += seconds
    return requests


def drive(client: Client, texts: list[str], requests: list[Request]) -> None:
    """Send each request when it is due; wait for every reply."""
    for request in requests:
        delay = request.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        client.send(request, texts)
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    for request in requests:
        request.finished.wait(max(0.0, deadline - time.perf_counter()))


def closed_loop(
    client: Client,
    texts: list[str],
    rng: random.Random,
    seconds: float,
    first: int,
    clients: int = 1,
) -> list[Request]:
    """*clients* callers for *seconds*, each sending its next request
    when its last one replied (so each request is due when it is sent).
    """
    end = time.perf_counter() + seconds
    numbers = itertools.count(first)
    queries = [rng.randrange(MIX_SIZE) for _ in range(int(seconds * 2000))]
    done: list[Request] = []

    def caller() -> None:
        while time.perf_counter() < end:
            number = next(numbers)
            request = Request(number, queries[(number - first) % len(queries)], 0, time.perf_counter())
            client.send(request, texts)
            request.finished.wait(DRAIN_TIMEOUT_S)
            done.append(request)

    threads = [threading.Thread(target=caller) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(done, key=lambda r: r.due)


def warm_up(client: Client, texts: list[str]) -> list[Request]:
    """Every mix query once, one at a time (untimed)."""
    done = []
    for index in range(len(texts)):
        request = Request(index, index, 0, time.perf_counter())
        request.plans = []
        client.send(request, texts)
        request.finished.wait(DRAIN_TIMEOUT_S)
        done.append(request)
    return done


def fingerprint(warm: list[Request], texts: list[str]) -> str:
    digest = hashlib.sha256()
    for request in warm:
        digest.update(json.dumps([texts[request.query], request.plans]).encode())
    return digest.hexdigest()[:16]


def error_of(request: Request, expected: list[frozenset]) -> Optional[str]:
    if request.status != "ok":
        return request.status
    if frozenset(request.answers) != expected[request.query]:
        return (
            f"{len(request.answers)} answers, "
            f"in-process reference has {len(expected[request.query])}"
        )
    return None


def rung_table(requests: list[Request], errors: dict) -> list[dict]:
    table = []
    for rate in LADDER:
        members = [r for r in requests if r.rung == rate]
        if not members:
            continue
        failed = sum(1 for r in members if r.id in errors)
        answered = [r.done - r.due for r in members if r.done is not None]
        p99 = percentile(answered, 99) if answered else float("inf")
        table.append(
            {
                "rate_rps": rate,
                "sent": len(members),
                "succeeded": len(members) - failed,
                "failed": failed,
                "latency_p50_ms": percentile(answered, 50) * 1000.0 if answered else None,
                "latency_p99_ms": p99 * 1000.0,
                "lag_p99_ms": percentile([r.sent - r.due for r in members], 99) * 1000.0,
                "meets_limit": failed == 0 and p99 <= LIMIT_P99_S,
            }
        )
    return table


def run(seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    catalog, _, _, canonical = service_workload("movies", 0)
    texts = build_query_mix(catalog, MIX_SIZE, seed=MIX_SEED, include=canonical)
    expected = references(texts)
    rng = random.Random(seed)
    log_path = out_dir / f"movies-wire-seed{seed}-server.log"
    spans_path = out_dir / f"movies-wire-seed{seed}-server-spans.json"

    setup_times = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            server = Server(log_path)
            setup_times.append(server.setup_s)
            server.stop()
    server = Server(log_path, probe=spans_path if trace else None)
    setup_times.append(server.setup_s)
    client = None
    try:
        client = Client(server.port)
        warm = warm_up(client, texts)
        if trace:
            half = closed_loop(client, texts, rng, seconds / 2, len(warm))
            server.command("reset")
            server.command("trace 1")
            traced = closed_loop(client, texts, rng, seconds / 2, len(warm) + len(half))
            server.command("trace 0")
            timed = half + traced
        else:
            one = closed_loop(client, texts, rng, ONE_CLIENT_SHARE * seconds, len(warm))
            two = closed_loop(
                client, texts, rng, TWO_CLIENT_SHARE * seconds, len(warm) + len(one), 2
            )
            rung_s = (1.0 - ONE_CLIENT_SHARE - TWO_CLIENT_SHARE) * seconds / len(LADDER)
            ladder = schedule(
                rng,
                [(rate, rung_s) for rate in LADDER],
                time.perf_counter() + 0.05,
                len(warm) + len(one) + len(two),
            )
            drive(client, texts, ladder)
            timed = one + two + ladder
        server_stats = server.stats()
    finally:
        if client is not None:
            client.close()
        server.stop()

    everything = warm + timed
    errors = {
        r.id: f"{r.id} ({texts[r.query]}): {error}"
        for r in everything
        if (error := error_of(r, expected)) is not None
    }
    result = {
        "mix": texts,
        "fingerprint": fingerprint(warm, texts),
        "attempted": len(everything),
        "failed": len(errors),
        "errors": sorted(errors.values())[:20],
        "limit_p99_ms": LIMIT_P99_S * 1000.0,
        "ladder_rps": list(LADDER),
    }
    if trace:
        result["metrics"] = layer_metrics(server_stats, half, traced)
        result["spans_file"] = str(spans_path.relative_to(HERE.parent))
        return result

    table = rung_table(ladder, errors)
    max_rate = 0
    for row in table:
        if not row["meets_limit"]:
            break
        max_rate = row["rate_rps"]
    answered = [r for r in one if r.done is not None]
    per_window = {
        "latency": window_percentiles("latency", answered, lambda r: r.done),
        "ttfa": window_percentiles("ttfa", answered, lambda r: r.first_answer),
    }
    metrics = {"setup_s": statistics.median(setup_times)}
    for prefix in ("latency", "ttfa"):
        for name in per_window[prefix][0]:
            metrics[name] = statistics.median(w[name] for w in per_window[prefix])
    metrics["requests_per_s"] = sum(r.done is not None for r in two) / (
        max(r.done or 0.0 for r in two) - two[0].due
    )
    metrics["peak_rss_mb"] = server_stats["peak_rss_mb"]
    metrics["max_rate_rps"] = max_rate
    result.update(
        metrics=metrics,
        samples={
            "latency": len(answered),
            "ttfa": sum(1 for r in answered if r.first_answer is not None),
            "windows": len(per_window["latency"]),
            "two_clients": len(two),
        },
        ladder=table,
        windows=per_window,
        setup_runs_s=setup_times,
    )
    return result


def windows(requests: list[Request], length: float = WINDOW_S) -> list[list[Request]]:
    """*requests* (in due order) cut into windows of about *length* seconds."""
    count = max(1, round((requests[-1].due - requests[0].due) / length))
    size = len(requests) / count
    return [requests[round(i * size):round((i + 1) * size)] for i in range(count)]


def window_percentiles(prefix: str, requests: list[Request], stamp) -> list[dict]:
    """Each window's percentiles of ``stamp(r) - r.due``."""
    return [
        percentile_metrics(
            prefix, [stamp(r) - r.due for r in window if stamp(r) is not None]
        )
        for window in windows(requests)
    ]


def layer_metrics(stats: dict, untraced: list[Request], traced: list[Request]) -> dict:
    """The per-layer table of the traced half of a traced run.

    Request time is the client's, from sending to the summary record;
    the server reports its own ``elapsed_s`` per request.
    """
    n = len(traced)
    busy = stats["busy_s"]
    counts = dict(stats["counts"], new=sum(r.new for r in traced))
    request_s = sum(r.done - r.sent for r in traced)
    server_ms = sum(r.elapsed_s for r in traced) / n * 1000.0
    metrics = layers.layer_table(busy, counts, n, request_s)
    metrics.update(
        {
            "service.threads_per_request": counts.get("threads", 0) / n,
            "service.server_elapsed_ms": server_ms,
            "service.session_overhead_ms": server_ms - sum(busy.values()) / n * 1000.0,
            "wire.overhead_ms": request_s / n * 1000.0 - server_ms,
            "wire.bytes_per_request": sum(r.nbytes for r in traced) / n,
            "loadgen.lag_p99_ms": percentile([r.sent - r.due for r in traced], 99)
            * 1000.0,
            "trace.overhead": statistics.mean(r.done - r.due for r in traced)
            / statistics.mean(r.done - r.due for r in untraced),
        }
    )
    return metrics
