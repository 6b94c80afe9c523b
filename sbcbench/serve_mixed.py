"""Workload ``serve_mixed``: open-loop mixed traffic against ``repro serve``.

The service runs in its own process (``serve_launcher.py``), built as
``repro serve`` builds it.  One load-generator process with one asyncio
loop sends a seeded Poisson schedule of three request classes and times
each request from when it was due:

* ``hit`` -- ``dataset:`` refs for mbc and pf, primed into the cache
  during set-up, on a keep-alive connection of their own;
* ``cold`` -- inline edge lists of seeded mid-size draws, each under a
  fresh relabelling so that every one misses the cache, with a generous
  ``timeout`` so the budget path runs but never truncates;
* ``resident`` -- one edit of a registered graph, then a solve of it.

Colds and residents share the second connection.  The serve layer does
most of its work here, and hit latency under cold load shows how much
the solves starve the event loop.

The load generator calibrates (``HostSpeed``) in gaps of the hit
schedule while the server runs.  The calibration is timed in the load
generator's own CPU time, so a server that keeps every core busy delays
it without lengthening it.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import checker
import inputs
from common import HostSpeed, geomean, median, peak_rss_mb, percentile

TAU = 3
RATES = {"hit": 100.0, "cold": 2.0, "resident": 3.0}
HIT_DATASETS = ("bitcoin", "adjwordnet", "reddit", "referendum")
#: Cold requests draw from several draws of one mid-size recipe, so that
#: the cold figures average over many graphs of one cost rather than
#: track the mix of recipes a seed happens to draw.
COLD_RECIPES = ("referendum",)
COLD_DRAWS = 6
RESIDENT_RECIPES = ("bitcoin", "referendum")
COLD_TIMEOUT_S = 60.0
CLIENT_TIMEOUT_S = 60.0
SETUP_REPEATS = 3
#: The load generator calibrates only in a gap this long before the hit
#: lane's next request, so calibration never delays a hit.
CALIBRATION_GAP_S = 0.01
#: Length of each phase of a traced run (untraced, then traced).
TRACED_PHASE_S = 8.0
LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"


def _compact(signs):
    """Renumber vertices to ``0..n-1`` in id order, as the server's
    edge-list parser does, so ids agree on both sides."""
    ids = sorted({v for edge in signs for v in edge})
    rank = {v: i for i, v in enumerate(ids)}
    return {(rank[u], rank[v]): s for (u, v), s in signs.items()}


def _optima(signs):
    """Pinned (mbc, beta) of an edge map, or None if the engines
    disagree on either."""
    mbc, _ = inputs.optimum(signs, "mbc", TAU)
    beta, _ = inputs.optimum(signs, "pf", TAU)
    return None if mbc is None or beta is None else (mbc, beta)


class Inputs:
    """Everything the load generator sends, drawn from the seed."""

    def __init__(self, seed):
        from repro.datasets.registry import load

        self.hits = {}
        for name in HIT_DATASETS:
            signs = inputs.signs_of(load(name))
            self.hits[name] = (signs, _optima(signs))
        self.colds = []
        for name in COLD_RECIPES:
            for draw in range(COLD_DRAWS):
                signs = _compact(inputs.signs_of(inputs.draw(
                    name, inputs.derive(seed, "cold", name, draw))))
                self.colds.append((f"{name}.{draw}", signs, _optima(signs)))
        self.residents = {}
        for name in RESIDENT_RECIPES:
            signs = _compact(inputs.signs_of(inputs.draw(
                name, inputs.derive(seed, "served", name))))
            clique, left = inputs.planted(name)
            stream = inputs.EditStream(
                dict(signs), clique, left,
                inputs.derive(seed, "served-edits", name))
            self.residents[f"r-{name}"] = (signs, stream)

    def refusals(self):
        bad = [f"hit {n}" for n, (_, o) in self.hits.items() if o is None]
        bad += [f"cold {n}" for n, _, o in self.colds if o is None]
        return [f"{what}: the engines disagree" for what in bad]


# -- HTTP ------------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port):
        self.port = port
        self.reader = self.writer = None

    async def open(self):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port)

    async def request(self, method, path, body=b""):
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        self.writer.write(head + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self):
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def _post(payload):
    return json.dumps(payload).encode()


# -- the server process ----------------------------------------------------


class Server:
    """A launched server process and the lines it printed."""

    def __init__(self, trace):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [sys.executable, str(LAUNCHER), "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True)
        self.stdout = collections.deque(maxlen=1000)
        self.stderr = collections.deque(maxlen=50)
        self.ready = threading.Event()
        self.port = None
        self._threads = [
            threading.Thread(target=self._pump, args=(
                self.process.stdout, self.stdout, True), daemon=True),
            threading.Thread(target=self._pump, args=(
                self.process.stderr, self.stderr, False), daemon=True),
        ]
        for thread in self._threads:
            thread.start()

    def _pump(self, stream, lines, watch):
        for line in stream:
            lines.append(line.rstrip("\n"))
            if watch and self.port is None and "listening on http://" \
                    in line:
                self.port = int(line.split("http://", 1)[1]
                                .split()[0].rsplit(":", 1)[1])
                self.ready.set()
        self.ready.set()

    def wait_ready(self, timeout=60.0):
        self.ready.wait(timeout)
        if self.port is None:
            self.stop()
            raise RuntimeError(
                "server did not start: " + " | ".join(self.stderr))

    def signal(self, signum):
        self.process.send_signal(signum)

    def stop(self):
        """SIGINT, then wait; kill if it will not stop."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        for thread in self._threads:
            thread.join(timeout=10)

    def trace_dump(self):
        for line in self.stdout:
            if line.startswith("TRACE "):
                return json.loads(line[len("TRACE "):])
        raise RuntimeError("the traced server printed no trace")


async def _prime_hits(conn, data):
    """Cache the hit answers."""
    for name in HIT_DATASETS:
        for problem in ("mbc", "pf"):
            status, body = await conn.request("POST", "/solve", _post(
                {"graph": f"dataset:{name}", "problem": problem,
                 "tau": TAU}))
            if status != 200:
                raise RuntimeError(f"priming {name}/{problem}: {body}")


async def _register(conn, data):
    """Register the residents in their initial state."""
    for name, (signs, _stream) in data.residents.items():
        status, body = await conn.request("POST", "/graphs", _post(
            {"name": name, "tau": TAU,
             "graph": {"edges": inputs.edge_list_text(signs)}}))
        if status != 200:
            raise RuntimeError(f"registering {name}: {body}")


async def _prime(port, data):
    """The set-up requests, each step timed: ``[(s, when), ...]``."""
    conn = Connection(port)
    await conn.open()
    timings = []
    try:
        for step in (_prime_hits, _register):
            start = time.perf_counter()
            await step(conn, data)
            timings.append((time.perf_counter() - start, start))
    finally:
        await conn.close()
    return timings


def launch(data, trace, host):
    """Start a server and prime it.  Returns the server and the times of
    its set-up steps: launch until ready, cache priming, registration."""
    host.sample()
    start = time.perf_counter()
    server = Server(trace)
    try:
        server.wait_ready()
        ready = (time.perf_counter() - start, start)
        timings = [ready] + asyncio.run(_prime(server.port, data))
    except BaseException:
        server.stop()
        raise
    return server, timings


# -- the schedule ----------------------------------------------------------


class Item:
    """One scheduled operation: its class, due time and requests."""

    __slots__ = ("cls", "due", "requests", "meta", "latency_ms",
                 "late_ms", "replies")

    def __init__(self, cls, due, requests, meta):
        self.cls = cls
        self.due = due
        self.requests = requests
        self.meta = meta
        self.latency_ms = None
        self.late_ms = None
        self.replies = None


def schedule(data, rng, seconds):
    """Seeded Poisson arrivals of every class over ``seconds``."""
    items = []
    hit_bodies = {(name, problem): _post(
        {"graph": f"dataset:{name}", "problem": problem, "tau": TAU})
        for name in HIT_DATASETS for problem in ("mbc", "pf")}
    hit_keys = sorted(hit_bodies)
    for cls, rate in RATES.items():
        due = rng.expovariate(rate)
        while due < seconds:
            items.append((due, cls))
            due += rng.expovariate(rate)
    items.sort()
    out = []
    for due, cls in items:
        if cls == "hit":
            key = rng.choice(hit_keys)
            out.append(Item(cls, due, [("POST", "/solve", hit_bodies[key])],
                            key))
        elif cls == "cold":
            name, signs, _optimum = rng.choice(data.colds)
            problem = rng.choice(("mbc", "pf"))
            relabelled = inputs.relabel(signs, rng)
            body = _post({"graph": {"edges": inputs.edge_list_text(
                relabelled)}, "problem": problem, "tau": TAU,
                "timeout": COLD_TIMEOUT_S})
            out.append(Item(cls, due, [("POST", "/solve", body)],
                            (name, problem, relabelled)))
        else:
            name = rng.choice(sorted(data.residents))
            edit = data.residents[name][1].next()
            kind, u, v, sign = edit
            line = f"add {u} {v} {sign:+d}" if kind == "add" \
                else f"{kind} {u} {v}"
            out.append(Item(cls, due, [
                ("POST", f"/graphs/{name}/edits", _post({"edits": [line]})),
                ("POST", "/solve", _post({"graph": f"graph:{name}",
                                          "problem": "mbc", "tau": TAU})),
            ], (name, edit)))
    return out


async def _drive(port, items, host):
    """Send ``items`` open-loop: hits on one connection, the rest on the
    other; each operation is timed from when it was due.  Returns the
    load generator's error, if any, and the schedule's origin."""
    lanes = [[i for i in items if i.cls == "hit"],
             [i for i in items if i.cls != "hit"]]
    connections = [Connection(port) for _ in lanes]
    for conn in connections:
        await conn.open()
    origin = time.perf_counter()

    async def lane(conn, queue, calibrate):
        free = 0.0
        for item in queue:
            delay = item.due - (time.perf_counter() - origin)
            if calibrate and delay > CALIBRATION_GAP_S:
                host.sample()
                delay = item.due - (time.perf_counter() - origin)
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter() - origin
            # Lateness of the generator itself: a request waiting for its
            # connection's previous reply is queued, not late.
            item.late_ms = max(sent - max(item.due, free), 0.0) * 1000.0
            replies = []
            for method, path, body in item.requests:
                replies.append(await asyncio.wait_for(
                    conn.request(method, path, body), CLIENT_TIMEOUT_S))
            item.replies = replies
            free = time.perf_counter() - origin
            item.latency_ms = (free - item.due) * 1000.0

    try:
        results = await asyncio.gather(
            *(lane(c, q, calibrate) for c, q, calibrate
              in zip(connections, lanes, (True, False))),
            return_exceptions=True)
    finally:
        for conn in connections:
            await conn.close()
    host.sample()
    for outcome in results:
        if isinstance(outcome, BaseException):
            return f"{type(outcome).__name__}: {outcome}", origin
    return None, origin


# -- checking --------------------------------------------------------------


def _answer(body):
    """(value, left, right, status) of a solve reply."""
    reply = json.loads(body)
    result = reply["result"]
    clique = result["clique"]
    value = reply["beta"] if reply["problem"] == "pf" \
        else len(clique["left"]) + len(clique["right"])
    return value, clique["left"], clique["right"], result["status"]


def check(data, items, report):
    """Check every reply; each resident answer against the optimum of a
    shadow replay of the edits that were sent."""
    shadows = {name: checker.Shadow(signs)
               for name, (signs, _stream) in data.residents.items()}
    checked_hits = {}
    for item in items:
        if item.cls == "resident":
            # The shadow follows every scheduled edit; one the server did
            # not take has already failed its operation.
            name, (kind, u, v, sign) = item.meta
            shadows[name].apply(kind, u, v, sign)
        if item.replies is None:
            report.op(item.cls, ["no reply"], "")
            continue
        statuses = [status for status, _body in item.replies]
        if any(status != 200 for status in statuses):
            report.op(item.cls, [f"HTTP {statuses}"], "")
            continue
        body = item.replies[-1][1]
        if item.cls == "hit":
            name, problem = item.meta
            if body not in checked_hits:
                checked_hits[body] = _check_one(
                    problem, data.hits[name][0], body, data.hits[name][1])
            report.op("hit", checked_hits[body], f"{name}/{problem}")
        elif item.cls == "cold":
            name, problem, relabelled = item.meta
            optima = next(o for n, _s, o in data.colds if n == name)
            report.op("cold", _check_one(problem, relabelled, body, optima),
                      f"{name}/{problem}")
        else:
            signs = shadows[name].signs
            optimum, why = inputs.optimum(signs, "mbc", TAU)
            if optimum is None:
                report.refuse(f"{name}: {why}")
            report.op("resident", _check_one(
                "mbc", signs, body, (optimum, None)), name)


def _check_one(problem, signs, body, optima):
    try:
        value, left, right, status = _answer(body)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed reply: {exc}"]
    problems = [] if status == "optimal" else [f"status {status}"]
    if problem == "mbc":
        problems += checker.mbc_problems(
            signs, left, right, value, TAU, optima[0])
    else:
        problems += checker.pf_problems(signs, left, right, value, optima[1])
    return problems


def _class_latencies(items, host, origin):
    """Each class's latencies in reference-host ms."""
    out = {cls: [] for cls in RATES}
    for item in items:
        if item.latency_ms is not None:
            out[item.cls].append(
                host.scale(item.latency_ms, origin + item.due))
    return out


# -- the workload ----------------------------------------------------------


def run(seed, seconds, report):
    data = Inputs(seed)
    for why in data.refusals():
        report.refuse(why)
    rng = random.Random(inputs.derive(seed, "serve", "schedule"))
    items = schedule(data, rng, seconds)
    host = HostSpeed()
    steps = []
    server = None
    host.calibrate()
    try:
        for attempt in range(SETUP_REPEATS):
            server, timings = launch(data, 0, host)
            steps.append(timings)
            if attempt < SETUP_REPEATS - 1:
                server.stop()
        host.calibrate()
        error, origin = asyncio.run(_drive(server.port, items, host))
        peak = peak_rss_mb(server.process.pid)
    finally:
        if server is not None:
            server.stop()
    if error:
        report.refuse(f"load generator: {error}")
    check(data, items, report)
    latencies = _class_latencies(items, host, origin)
    return {
        "setup_s": sum(median([host.scale(*t) for t in step])
                       for step in zip(*steps)),
        "peak_rss_mb": peak,
        "geomean_ms": geomean([median(v) for v in latencies.values()]),
        "p50_ms": median(latencies["hit"]),
        "tail_ms": percentile(latencies["hit"], 99),
        "heavy_ms": median(latencies["cold"]),
    }


def run_traced(seed, tracer, report):
    """An untraced phase, then the same traffic shape traced."""
    data = Inputs(seed)
    for why in data.refusals():
        report.refuse(why)
    rng = random.Random(inputs.derive(seed, "serve", "traced"))
    plain_items = schedule(data, rng, TRACED_PHASE_S)
    traced_items = schedule(data, rng, TRACED_PHASE_S)
    host = HostSpeed()
    server, _elapsed = launch(data, 1, host)
    try:
        error, plain_origin = asyncio.run(
            _drive(server.port, plain_items, host))
        server.signal(signal.SIGUSR1)
        time.sleep(0.2)
        traced_error, traced_origin = asyncio.run(
            _drive(server.port, traced_items, host))
        error = error or traced_error
    finally:
        server.stop()
    if error:
        report.refuse(f"load generator: {error}")
    dump = server.trace_dump()
    for layer, cls, calls, total, own in dump["totals"]:
        tracer.totals[(layer, cls)] = [calls, total, own]
    tracer.counts.update(dump["counts"])
    tracer.unresolved = dump["unresolved"]

    check(data, plain_items + traced_items, report)
    plain = _class_latencies(plain_items, host, plain_origin)
    traced = _class_latencies(traced_items, host, traced_origin)
    class_ops = {cls: len(values) for cls, values in traced.items()}
    extra = {
        "trace.overhead_share": geomean(
            [median(v) for v in traced.values()])
        / geomean([median(v) for v in plain.values()]) - 1.0,
        "serve.loop_lag_p99_ms": percentile(dump["loop_lag_ms"], 99),
        "loadgen.late_p99_ms": percentile(
            [i.late_ms for i in traced_items if i.late_ms is not None], 99),
    }
    for cls in RATES:
        raw = [i.latency_ms for i in traced_items
               if i.cls == cls and i.latency_ms is not None]
        server_ms = (tracer.total_s("serve.request", cls, own=False)
                     - tracer.total_s("serve.request", cls)) * 1000.0
        extra[f"serve.wait_ms.{cls}"] = \
            (sum(raw) - server_ms) / len(raw) if raw else 0.0
    return class_ops, extra
