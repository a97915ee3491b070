"""The ``serve-mix`` workload: ``repro serve --port`` subprocesses under load.

Each server runs with ``--workers 2`` and a fresh ``--cache-dir``; the load
comes from this process over two connections.  The request mix is seeded;
in share order it holds

* ``check`` of a named test (A, L1-L9) against one of the 90 models;
* ``check`` of inline litmus text from a small hot set (verdict-cache reads);
* ``check`` of inline text never sent before, drawn from the ``large``
  enumeration (cache misses: parse, context, kernel, cache insert and a
  persistent append);
* ``compare`` of a random pair of the 90 models;
* ``synthesize`` over the 90-model space on the ``sat`` backend, with
  observations taken from one model's verdicts on four named tests.

Every server first answers a warm-up batch that touches every named pair,
hot pair, model and synthesis request once.  Its share of the measurement
window is then an open loop at :data:`OPEN_RATE` requests per second
(evenly spaced; latency counted from each request's due time) followed by
a closed loop of a fixed number of requests (each connection keeps
:data:`WINDOW` requests in flight and sends the next one when a reply
arrives).  Afterwards every distinct
request is answered again by a fresh single-threaded ``Session`` on the
``enumeration`` backend, outside the timed window, and each server
response must match it.
"""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import common

#: open-loop arrival rate (requests per second)
OPEN_RATE = 300.0
#: share of the measurement window spent in the open loop (the rest is closed)
OPEN_SHARE = 0.3
#: request kinds, in the share order the workload is specified with
KINDS = ("named", "hot", "miss", "compare", "synthesize")
#: Server time per request of each kind on a warm server, in ms: the
#: median of three single-kind closed loops, measured with
#: ``python3 perfbench/serve_mix.py --seed 1`` (bigint kernel,
#: 2-vCPU VM; seed 2 gave the same order and shares within 3 points).
#: They fix the mix once; they are not re-measured per run.
KIND_COST_MS = {"named": 0.596, "hot": 1.118, "miss": 1.384, "compare": 0.596,
                "synthesize": 14.97}
#: closed-loop requests per second of closed loop: a fixed count, a little
#: below the measured capacity (~1,450 req/s), so every run with a given
#: seed sends exactly the same requests and the loop lasts about its share
CLOSED_RATE = 1200.0
#: completions per timed stretch of a closed loop (ten blocks of the mix),
#: and the step between the starts of successive stretches
STRETCH = 1000
STRETCH_STEP = 100
#: requests prepared per second when a closed loop is cut by time (calibration)
CLOSED_RATE_LIMIT = 3000.0
#: hot (inline text, model) pairs, each a distinct test: far below the
#: response memo (1,024 lines per connection) and the verdict cache, so
#: every hot request after the warm-up is a read whatever the exact size
HOT_PAIRS = 32
#: observations per synthesize request: the smallest size the repository's
#: synthesis micro-benchmark measures (benchmarks/bench_synthesis.py)
SYNTH_OBSERVATIONS = 4
#: distinct synthesize requests per run; the server keeps no synthesis
#: result memo, so a repeat still runs the solver, and a small set keeps
#: the reference's answers (outside the window) cheap
SYNTH_REQUESTS = 16
CONNECTIONS = 2
#: requests each connection keeps in flight in the closed loop
WINDOW = 4
#: fresh servers per run; each takes an equal share of the measurement window
SERVERS = 4
#: ``TCP_QUICKACK`` where the platform has it (Linux)
QUICKACK = getattr(socket, "TCP_QUICKACK", None)


def mix_counts(costs: Dict[str, float]) -> Dict[str, int]:
    """Requests of each kind in every block of 100.

    Each kind gets the same share of the server's time (its count is
    inversely proportional to its cost), so every kind's layers carry
    measurable time.  Where that would let a kind outnumber one listed
    before it in :data:`KINDS`, the kinds involved share equally (adjacent
    violators are pooled), so the mix keeps its specified order.  Counts
    are rounded to whole requests, at least one of each kind.
    """
    pools: List[List[float]] = []  # [sum of weights, number of kinds]
    for kind in KINDS:
        pools.append([1.0 / costs[kind], 1])
        while len(pools) > 1 and pools[-2][0] / pools[-2][1] < pools[-1][0] / pools[-1][1]:
            total, size = pools.pop()
            pools[-1][0] += total
            pools[-1][1] += size
    weights = [total / size for total, size in pools for _ in range(int(size))]
    counts = [max(1, round(100 * weight / sum(weights))) for weight in weights]
    counts[0] += 100 - sum(counts)
    return dict(zip(KINDS, counts))


#: requests of each kind per block of 100
MIX = mix_counts(KIND_COST_MS)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
class Inputs:
    """Every request line a run may send, made from the seed alone."""

    def __init__(self, seed: int, bound: str, misses: int, reference) -> None:
        from repro.api.requests import CheckRequest
        from repro.core.parametric import model_space
        from repro.generation.enumeration import count_naive_tests, enumerate_raw_naive_items
        from repro.generation.enumeration import test_from_items
        from repro.io.writer import litmus_to_text
        from repro.pipeline.run import BOUNDS

        rng = random.Random(seed)
        self.rng = rng
        self.models = [model.name for model in model_space(include_data_dependencies=True)]
        self.tests = list(reference.tests.names())
        config = BOUNDS[bound]
        total = count_naive_tests(config)
        wanted = rng.sample(range(total), HOT_PAIRS + misses)
        positions = set(wanted)
        texts: Dict[int, str] = {}
        for position, (name, items) in enumerate(enumerate_raw_naive_items(config)):
            if position in positions:
                texts[position] = litmus_to_text(test_from_items(items, name))
        self.hot = [(texts[p], rng.choice(self.models)) for p in wanted[:HOT_PAIRS]]
        self.misses = [texts[p] for p in wanted[HOT_PAIRS:]]
        self.synth = []
        for _ in range(SYNTH_REQUESTS):
            model = rng.choice(self.models)
            observations = [
                {"test": test,
                 "allowed": reference.run(CheckRequest(test=test, model=model)).allowed}
                for test in rng.sample(self.tests, SYNTH_OBSERVATIONS)
            ]
            self.synth.append(_line({"op": "synthesize", "space": "paper90",
                                     "backend": "sat", "observations": observations}))
        self._next_miss = 0

    def warmup(self) -> List[str]:
        """One request per named pair, hot pair, model and synthesis request."""
        lines = [
            _line({"op": "check", "test": test, "model": model})
            for test in self.tests for model in self.models
        ]
        lines += [
            _line({"op": "check", "test": text, "model": model}) for text, model in self.hot
        ]
        shuffled = list(self.models)
        self.rng.shuffle(shuffled)
        lines += [
            _line({"op": "compare", "first": first, "second": second})
            for first, second in zip(shuffled[0::2], shuffled[1::2])
        ]
        return lines + self.synth

    def kinds(self, count: int) -> List[str]:
        """``count`` request kinds: every block of 100 holds each kind in
        exactly its share, in seeded order, so runs differ in which
        requests they send but not in how many of each kind."""
        kinds: List[str] = []
        while len(kinds) < count:
            block = [kind for kind in KINDS for _ in range(MIX[kind])]
            self.rng.shuffle(block)
            kinds += block
        return kinds[:count]

    def request(self, kind: str) -> str:
        """A request line of the given kind."""
        rng = self.rng
        if kind == "named":
            document = {"op": "check", "test": rng.choice(self.tests),
                        "model": rng.choice(self.models)}
        elif kind == "hot":
            text, model = rng.choice(self.hot)
            document = {"op": "check", "test": text, "model": model}
        elif kind == "miss":
            document = {"op": "check", "test": self.misses[self._next_miss],
                        "model": rng.choice(self.models)}
            self._next_miss += 1
        elif kind == "compare":
            first, second = rng.sample(self.models, 2)
            document = {"op": "compare", "first": first, "second": second}
        else:
            return rng.choice(self.synth)
        return _line(document)


def _line(document: Dict[str, object]) -> str:
    return json.dumps(document, sort_keys=True)


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------
class Server:
    """One server subprocess; ``setup_s`` is start to first health reply.
    ``yardsticks`` are samples taken just before and just after."""

    def __init__(self, root: str, tmp: str, index: int, trace: Optional[str]) -> None:
        cache_dir = os.path.join(tmp, f"cache-{index}")
        flags = ["--port", "0", "--workers", "2", "--cache-dir", cache_dir]
        if trace is None:
            argv = [sys.executable, "-m", "repro.cli", "serve"] + flags
        else:
            launcher = os.path.join(root, "perfbench", "serve_launcher.py")
            argv = [sys.executable, launcher, "--trace", trace, "--"] + flags
        self.log_path = os.path.join(tmp, f"serve-{index}.log")
        self.rusage = None
        self.yardsticks = [common.yardstick_s()]
        started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                argv, cwd=root, env=common.child_env(root),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
            )
        try:
            self.port = self._await_port()
            connection = Connection(self.port)
            try:
                reply = json.loads(connection.request(_line({"op": "health"})))
            finally:
                connection.close()
            if not reply.get("ok"):
                raise common.BenchError(f"health check failed: {reply}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        self.yardsticks.append(common.yardstick_s())

    def _await_port(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            self.rusage = common.try_reap(self.process)
            if self.rusage is not None:
                raise common.BenchError(f"server exited early; see {self.log_path}")
            with open(self.log_path) as log:
                for text in log:
                    try:
                        event = json.loads(text)
                    except ValueError:
                        continue
                    if event.get("event") == "serve_start":
                        return int(event["port"])
            time.sleep(0.005)
        raise common.BenchError("server did not start within 60s")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then reap; returns the exit code."""
        if self.rusage is None:
            self.process.send_signal(signal.SIGTERM)
            self.rusage = common.reap(self.process, timeout=60.0)
        return self.process.returncode


class Connection:
    """A JSON-lines client connection."""

    def __init__(self, port: int) -> None:
        deadline = time.monotonic() + 10.0
        while True:
            try:
                self.sock = socket.create_connection(("127.0.0.1", port), timeout=120.0)
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self._quickack()

    def _quickack(self) -> None:
        """Acknowledge received data at once instead of delaying the ACK.

        The server leaves Nagle's algorithm on, so a reply it writes while
        an earlier reply is unacknowledged waits for the client's ACK.  A
        delayed ACK would ride on the connection's next request, pinning
        the open-loop latency to the inter-arrival time rather than the
        server's work.  Linux drops quick-ACK mode again on its own, so it
        is re-armed after every send and receive.
        """
        if QUICKACK is not None:
            self.sock.setsockopt(socket.IPPROTO_TCP, QUICKACK, 1)

    def send(self, line: str) -> None:
        self.sock.sendall(line.encode("utf-8") + b"\n")
        self._quickack()

    def receive(self) -> str:
        data = self.reader.readline()
        self._quickack()
        if not data:
            raise common.BenchError("server closed the connection")
        return data.decode("utf-8")

    def request(self, line: str) -> str:
        self.send(line)
        return self.receive()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def _run_threads(targets) -> None:
    errors: List[BaseException] = []

    def guarded(target):
        def run():
            try:
                target()
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)
        return run

    threads = [threading.Thread(target=guarded(target)) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(connections, source, seconds: Optional[float]) -> Tuple[list, float]:
    """Each connection keeps :data:`WINDOW` requests in flight, sending the
    next one whenever a reply arrives.

    Keeping the server's queue non-empty makes the completion rate measure
    the server, not the wake-up latency of a strict request/reply ping-pong.
    ``source`` is a list of lines consumed in order; with ``seconds`` no new
    request is sent once the time is up, else the loop ends when the list
    is exhausted.  Returns ``[(line, response, sent, received)]`` and the
    elapsed time.
    """
    lock = threading.Lock()
    position = [0]
    done: List[Tuple[str, str, float, float]] = []
    started = time.perf_counter()
    stop_at = None if seconds is None else started + seconds

    def take() -> Optional[str]:
        with lock:
            if position[0] >= len(source):
                return None
            if stop_at is not None and time.perf_counter() >= stop_at:
                return None
            position[0] += 1
            return source[position[0] - 1]

    def client(connection):
        in_flight: deque = deque()

        def send_next() -> None:
            line = take()
            if line is not None:
                in_flight.append((line, time.perf_counter()))
                connection.send(line)

        for _ in range(WINDOW):
            send_next()
        while in_flight:
            response = connection.receive()
            finished = time.perf_counter()
            line, sent = in_flight.popleft()
            with lock:
                done.append((line, response, sent, finished))
            send_next()

    _run_threads([lambda c=c: client(c) for c in connections])
    return done, time.perf_counter() - started


def open_loop(connections, schedule) -> list:
    """Send each request at its due time regardless of replies.

    ``schedule`` is ``[(due offset, line)]``; request ``i`` goes out on
    connection ``i % len(connections)``.  A sender thread per connection
    writes at the due times, a receiver thread reads the in-order replies.
    Returns ``[(line, response, due, sent, received)]``.
    """
    base = time.perf_counter() + 0.05
    per_connection = [schedule[i::len(connections)] for i in range(len(connections))]
    results = [[None] * len(items) for items in per_connection]

    def sender(k):
        connection = connections[k]
        for i, (offset, line) in enumerate(per_connection[k]):
            due = base + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            connection.send(line)
            results[k][i] = [line, None, due, time.perf_counter(), None]

    def receiver(k):
        connection = connections[k]
        for i in range(len(per_connection[k])):
            response = connection.receive()
            received = time.perf_counter()
            while results[k][i] is None:  # the sender records just after sendall
                time.sleep(0)
            results[k][i][1] = response
            results[k][i][4] = received

    targets = [lambda k=k: sender(k) for k in range(len(connections))]
    targets += [lambda k=k: receiver(k) for k in range(len(connections))]
    _run_threads(targets)
    return [tuple(item) for items in results for item in items]


def _failed(response: str) -> bool:
    return not json.loads(response).get("ok")


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run(root: str, tmp: str, seed: int, seconds: float, trace: bool,
        bound: str = "large") -> dict:
    """Run the workload once; returns raw measurements and outputs.

    :data:`SERVERS` fresh servers each get the same sequence: timed start
    to first health reply, the timed warm-up batch, then their share of
    the measurement window as an open-loop slice followed by a closed-loop
    slice.  Both slices send a fixed number of requests, so a seed fixes
    every request of the run.  ``stretch_s`` holds the time of every
    :data:`STRETCH` consecutive closed-loop completions (starts
    :data:`STRETCH_STEP` apart) on every server; ``yardsticks`` holds
    samples taken around each server's start, after its warm-up and around
    its closed loop (the server and this load generator share one CPU, see
    ``common.one_cpu``).
    """
    from repro.api.session import Session

    reference = Session(backend="enumeration")
    reference.tests.allow_paths = False
    reference.models.allow_paths = False
    open_slice = seconds * OPEN_SHARE / SERVERS
    closed_slice = seconds * (1.0 - OPEN_SHARE) / SERVERS
    per_open = int(OPEN_RATE * open_slice)
    per_closed = max(STRETCH, int(CLOSED_RATE * closed_slice))
    most = SERVERS * (per_open + per_closed)
    inputs = Inputs(seed, bound, most * MIX["miss"] // 100 + 100, reference)
    warm_lines = inputs.warmup()
    kinds = inputs.kinds(most)
    lines = [inputs.request(kind) for kind in kinds]
    kind_of = dict(zip(lines, kinds))

    samples: Dict[str, list] = {key: [] for key in (
        "setup_samples", "warm_samples", "rss_samples", "slice_p99_ms", "closed_rates",
        "stretch_s", "yardsticks", "cpu_samples",
        "latencies_ms", "late_ms", "queue_depths", "trace_paths")}
    pairs: List[Tuple[str, str]] = []
    timed: List[Tuple[str, str]] = []
    engine: Dict[str, int] = {}
    kernel = ""
    position = 0
    # The load generator must not pause for its own garbage collection
    # while it timestamps replies: freeze what exists, collect nothing new.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for index in range(SERVERS):
            trace_path = os.path.join(tmp, f"serve-{index}.spans") if trace else None
            server = Server(root, tmp, index, trace_path)
            try:
                connections = [Connection(server.port) for _ in range(CONNECTIONS)]
                try:
                    warm, warm_s = closed_loop(connections, warm_lines, None)
                    samples["yardsticks"].append(common.yardstick_s())
                    # --- timed window ---------------------------------------
                    schedule = [(i / OPEN_RATE, line) for i, line
                                in enumerate(lines[position:position + per_open])]
                    opened = open_loop(connections, schedule)
                    position += per_open
                    samples["yardsticks"].append(common.yardstick_s())
                    done, closed_s = closed_loop(
                        connections, lines[position:position + per_closed], None)
                    samples["yardsticks"].append(common.yardstick_s())
                    position += len(done)
                    # --- end of the timed window ----------------------------
                    stats = json.loads(connections[0].request(_line({"op": "stats"})))
                finally:
                    for connection in connections:
                        connection.close()
            finally:
                code = server.stop()
            if code != 0:
                raise common.BenchError(f"server {index} exited with {code}")
            latencies = [
                float("inf") if _failed(response) else (received - due) * 1000.0
                for _line_, response, due, _sent, received in opened
            ]
            samples["setup_samples"].append(server.setup_s)
            samples["yardsticks"] += server.yardsticks
            samples["warm_samples"].append(warm_s)
            samples["rss_samples"].append(server.rusage.ru_maxrss / 1024.0)
            samples["cpu_samples"].append(server.rusage.ru_utime + server.rusage.ru_stime)
            samples["slice_p99_ms"].append(common.percentile(latencies, 99))
            samples["closed_rates"].append(len(done) / closed_s)
            finished = sorted(received for _l, _r, _s, received in done)
            samples["stretch_s"] += [
                finished[start + STRETCH - 1] - finished[start]
                for start in range(0, len(finished) - STRETCH + 1, STRETCH_STEP)
            ]
            samples["latencies_ms"] += latencies
            samples["late_ms"] += [(sent - due) * 1000.0 for _l, _r, due, sent, _rc in opened]
            pairs += [(line, response) for line, response, _b, _f in warm]
            timed += [(line, response) for line, response, *_rest in opened]
            timed += [(line, response) for line, response, _b, _f in done]
            for key, value in stats["result"]["engine"].items():
                if isinstance(value, int):
                    engine[key] = engine.get(key, 0) + value
            kernel = stats["result"]["session"].get("kernel", "")
            if trace_path is not None:
                samples["trace_paths"].append(trace_path)
                with open(trace_path + ".json") as handle:
                    samples["queue_depths"] += json.load(handle)["queue_depths"]
    finally:
        gc.enable()
        gc.unfreeze()

    failed_kinds: Dict[str, int] = {}
    for line, response in timed:
        if _failed(response):
            failed_kinds[kind_of[line]] = failed_kinds.get(kind_of[line], 0) + 1
    return dict(
        samples,
        attempted=len(timed),
        failed=sum(failed_kinds.values()),
        failed_kinds=failed_kinds,
        mismatches=check_responses(reference, pairs + timed),
        engine=engine,
        kernel=kernel,
        checks_sent=sum(1 for line, _response in pairs + timed if line.startswith('{"model"')),
    )


def _outputs(result: object) -> object:
    """A result document without its work counters (``stats``), which
    depend on the backend and on what the session had cached."""
    if isinstance(result, dict):
        return {key: value for key, value in result.items() if key != "stats"}
    return result


def check_responses(reference, pairs: Sequence[Tuple[str, str]]) -> List[str]:
    """Compare each distinct request's server response with the reference.

    The reference answers each request on a fresh single-threaded session;
    a response matches when both succeed with identical result documents
    (work counters aside), or both fail.  Returns one message per mismatch.
    """
    from repro.api.requests import request_from_json
    from repro.api.serialize import to_json

    expected: Dict[str, Tuple[bool, object]] = {}
    mismatches = []
    for line, response in pairs:
        if line not in expected:
            try:
                result = reference.run(request_from_json(json.loads(line)))
                expected[line] = (True, _outputs(json.loads(json.dumps(to_json(result)))))
            except (ValueError, TypeError, LookupError) as error:
                expected[line] = (False, str(error))
        ok, body = expected[line]
        document = json.loads(response)
        if bool(document.get("ok")) != ok:
            mismatches.append(f"ok={document.get('ok')} but reference ok={ok}: {line[:120]}")
        elif ok and _outputs(document.get("result")) != body:
            mismatches.append(f"result differs from the reference: {line[:120]}")
    return mismatches


# ----------------------------------------------------------------------
# calibration: the basis of KIND_COST_MS
# ----------------------------------------------------------------------
def calibrate(seed: int, seconds: float = 2.0, repeats: int = 3) -> Dict[str, float]:
    """Server time per request of each kind, in ms, on one warm server.

    After the warm-up batch, each kind in turn runs alone as a closed loop
    for ``seconds``; its cost is the loop's time per completed request.
    Returns the median over ``repeats`` rounds.
    """
    from repro.api.session import Session

    reference = Session(backend="enumeration")
    misses = int(repeats * seconds * CLOSED_RATE_LIMIT)
    inputs = Inputs(seed, "large", misses, reference)
    costs: Dict[str, list] = {kind: [] for kind in KINDS}
    tmp = common.make_tmp()
    try:
        server = Server(common.ROOT, tmp, 0, None)
        try:
            connections = [Connection(server.port) for _ in range(CONNECTIONS)]
            try:
                closed_loop(connections, inputs.warmup(), None)
                for _ in range(repeats):
                    for kind in KINDS:
                        lines = [inputs.request(kind)
                                 for _ in range(int(seconds * CLOSED_RATE_LIMIT))]
                        done, elapsed = closed_loop(connections, lines, seconds)
                        costs[kind].append(1000.0 * elapsed / len(done))
            finally:
                for connection in connections:
                    connection.close()
        finally:
            server.stop()
    finally:
        common.remove_tmp(tmp)
    return {kind: common.median(values) for kind, values in costs.items()}


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Measure the per-kind server costs "
                                     "that fix the serve-mix shares.")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    common.require_source()
    measured = calibrate(args.seed)
    print("KIND_COST_MS =", {kind: round(cost, 3) for kind, cost in measured.items()})
    print("requests per 100:", mix_counts(measured))
