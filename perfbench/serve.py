"""The ``serve-warm`` and ``serve-cold`` workloads: open-loop load on
``repro serve --demo`` from a separate client process.

This process is the one client: one asyncio loop, one connection for
``solve`` queries and, during the ``mid`` phase only, a second one for
``health`` probes.  The daemon runs in its own process (``daemon.py``).

Arrivals are Poisson, drawn from the seed, and every latency is timed
from the request's *due* time, so a stall in the daemon is charged to
every request that queued behind it -- including requests the generator
itself sent late, whose lateness is reported as ``loadgen.lag_p99_ms``.
(``repro.serve.bench.run_open_loop`` times from the *send* time, which
hides such stalls; this generator does not reuse it.)

A run, in order: daemon start-ups (``setup_s``), an untimed warm-up, a
closed burst, the three fixed-rate phases (``low``, ``mid`` with
probes, ``high``), a burst, the capacity search with two bursts after
each trial (``sweep_s`` is the median burst), then the output checks
against direct solves.  Times are scaled to the reference host's speed
(``hostspeed.py``).
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import math
import os
import re
import sys
import tempfile
import time
from collections.abc import Awaitable, Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from common import TMP, median, percentile, program_env
from hostspeed import HostSpeed

DAEMON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "daemon.py")

#: latency limit on the p99 (ms): the capacity criterion, and the most a
#: request may be sent late before a phase stops counting as a data
#: point.  On the reference host (a 2-vCPU VM) p99 already reaches
#: 15-40 ms far below the knee from host scheduling stalls, so a 20 ms
#: limit would measure the host; at 50 ms the search ends where the
#: daemon's own queueing makes latency climb steeply.
LIMIT_MS = 50.0

#: offered rates (req/s) of the low/mid/high phases, all well below the
#: knee on the reference host (warm ~11k req/s, cold ~500 req/s), where
#: queueing does not yet amplify the host's noise
RATES = {"serve-warm": (1000.0, 3000.0, 6000.0), "serve-cold": (100.0, 200.0, 300.0)}

#: ``sweep_s`` is the median of closed bursts of this many fresh-age
#: solves (one before the phases, one after, ``BURSTS_PER_TRIAL`` after
#: each capacity trial), this many in flight.  Both serve workloads time
#: cold solves here: a burst of cache hits is throughput of the client
#: and the daemon together, and on the reference host its spread over
#: ten seeds (0.2-0.5) stayed above the largest bound the benchmark may
#: set.  One burst lasts about 0.3 s, and on a shared 2-vCPU host the
#: same burst varies by +-20 % from one such stretch to the next, so the
#: median of a dozen spread over the run is taken; the fastest of seven,
#: an extreme value, spread 0.17-0.35 over ten seeds on a busy host
BURST_SOLVES = 300
BURST_WINDOW = 64
BURSTS_PER_TRIAL = 2

#: bucketed ages per demo pool on serve-warm
AGE_BUCKETS = 12
#: range of fresh ages, for serve-cold queries and every burst (seconds)
COLD_AGE_MAX = 3.0e4

PHASES = ("low", "mid", "high")
#: the phases run interleaved in this many rounds
ROUNDS = 4
#: health probes sent during the mid phase, at a fixed rate
PROBES = 300
SETUP_STARTS = 3

#: capacity search: the first trial offers ``START`` times the high
#: phase's rate, then the rate grows (or shrinks) by ``GROWTH`` until the
#: outcome flips, then bisects down to ``RESOLUTION``
START = 1.5
GROWTH = 1.25
RESOLUTION = 0.05

DRAIN_TIMEOUT_S = 10.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

#: about this many served T_opt values are re-solved directly per run
CHECKS_PER_RUN = 300


# ----------------------------------------------------------------------
# the daemon process
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve --demo`` process and its control connection."""

    def __init__(self, proc: asyncio.subprocess.Process, port: int, setup_s: float) -> None:
        self.proc = proc
        self.port = port
        self.setup_s = setup_s
        self.control: Connection | None = None

    @classmethod
    async def start(cls, tmpdir: str, spans: str | None = None) -> "Daemon":
        argv = [sys.executable, DAEMON] + (["--spans", spans] if spans else [])
        start = time.perf_counter()
        with open(os.path.join(tmpdir, "daemon.err"), "ab") as err:
            proc = await asyncio.create_subprocess_exec(
                *argv, stdout=asyncio.subprocess.PIPE, stderr=err, env=program_env()
            )
        try:
            assert proc.stdout is not None
            line = await asyncio.wait_for(proc.stdout.readline(), START_TIMEOUT_S)
            match = re.search(rb"listening on [^:]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"daemon did not start: {line!r}")
            daemon = cls(proc, int(match.group(1)), 0.0)
            daemon.control = await Connection.open(daemon.port)
            pong = await daemon.control.call({"op": "ping"})
            if not pong.get("ok"):
                raise RuntimeError(f"ping failed: {pong!r}")
        except BaseException:
            if proc.returncode is None:
                proc.kill()
            await proc.wait()
            raise
        daemon.setup_s = time.perf_counter() - start
        return daemon

    def cpu_s(self) -> float:
        """utime + stime of the daemon process, from ``/proc``."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    async def stats(self) -> dict[str, Any]:
        assert self.control is not None
        response = await self.control.call({"op": "stats"})
        return response["stats"]

    async def stop(self) -> None:
        try:
            if self.control is not None:
                await self.control.call({"op": "shutdown"})
                await self.control.close()
            await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
        finally:
            if self.proc.returncode is None:
                self.proc.kill()
                await self.proc.wait()


# ----------------------------------------------------------------------
# one pipelined client connection
# ----------------------------------------------------------------------
class Connection:
    """A pipelined JSON-lines connection.

    The reader only stamps and stores each response line; lines are
    parsed after a phase ends, so the generator spends as little of the
    shared CPU as possible while the daemon is under load.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.received: list[tuple[float, bytes]] = []
        self.sent = 0
        self._want = 0
        self._arrived = asyncio.Event()
        self._task = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def _read(self) -> None:
        received = self.received
        try:
            while True:
                raw = await self.reader.readline()
                if not raw:
                    break
                received.append((time.perf_counter(), raw))
                if len(received) >= self._want:
                    self._arrived.set()
        finally:
            self._arrived.set()

    def encode(self, payloads: list[dict[str, Any]]) -> list[bytes]:
        """Request lines for ``payloads``, numbered from the next id
        (ids are this connection's send order)."""
        first = self.sent
        return [
            (json.dumps({**p, "id": first + i}) + "\n").encode() for i, p in enumerate(payloads)
        ]

    def write(self, lines: list[bytes]) -> None:
        self.writer.write(b"".join(lines))
        self.sent += len(lines)

    async def wait_received(self, count: int, timeout: float = DRAIN_TIMEOUT_S) -> bool:
        """Wait until ``count`` responses have arrived in total."""
        deadline = time.perf_counter() + timeout
        while len(self.received) < count:
            if self._task.done():
                return False
            self._want = count
            self._arrived.clear()
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return False
            try:
                await asyncio.wait_for(self._arrived.wait(), remaining)
            except asyncio.TimeoutError:
                return False
        return True

    def responses(self, start: int) -> dict[int, tuple[float, dict[str, Any]]]:
        """``id -> (receive time, response)`` of lines from ``start`` on."""
        out = {}
        for at, raw in self.received[start:]:
            response = json.loads(raw)
            out[response.get("id")] = (at, response)
        return out

    async def call(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One request on an otherwise idle connection."""
        base = len(self.received)
        rid = self.sent
        self.write(self.encode([payload]))
        if not await self.wait_received(base + 1):
            raise ConnectionError(f"no answer to {payload['op']}")
        return self.responses(base)[rid][1]

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        await asyncio.gather(self._task, return_exceptions=True)


# ----------------------------------------------------------------------
# query streams
# ----------------------------------------------------------------------
class Queries:
    """The seed's solve queries; remembers every one it hands out.

    serve-warm: each demo pool has ``AGE_BUCKETS`` fixed bucketed ages
    and every query picks a pool and a bucket, so after the warm-up
    every answer is a cache hit.  serve-cold: every query carries a
    fresh age, never repeated in the run, so every answer is a solve.
    """

    def __init__(self, workload: str, seed: int, pools: list[str]) -> None:
        self.cold = workload == "serve-cold"
        self.rng = np.random.default_rng([seed, 7])
        self.pools = pools
        self.buckets = {
            pool: [float(a) for a in np.round(self.rng.uniform(0.0, 2.0e4, AGE_BUCKETS), 0)]
            for pool in pools
        }
        self.used: set[float] = set()

    def warm_up(self) -> list[dict[str, Any]]:
        if self.cold:
            return self.fresh(20)
        return [_solve(pool, age) for pool in self.pools for age in self.buckets[pool]]

    def take(self, n: int) -> list[dict[str, Any]]:
        """The workload's next ``n`` queries."""
        if self.cold:
            return self.fresh(n)
        out = []
        for _ in range(n):
            pool = self.pools[int(self.rng.integers(len(self.pools)))]
            out.append(_solve(pool, self.buckets[pool][int(self.rng.integers(AGE_BUCKETS))]))
        return out

    def fresh(self, n: int) -> list[dict[str, Any]]:
        """``n`` queries with ages never used before in the run."""
        out = []
        for _ in range(n):
            pool = self.pools[int(self.rng.integers(len(self.pools)))]
            age = float(self.rng.uniform(0.0, COLD_AGE_MAX))
            while age in self.used:
                age = float(self.rng.uniform(0.0, COLD_AGE_MAX))
            self.used.add(age)
            out.append(_solve(pool, age))
        return out


def _solve(pool: str, age: float) -> dict[str, Any]:
    return {"op": "solve", "pool": pool, "age": age}


@dataclass
class Ledger:
    """Every request's outcome, for ``attempted``/``failed`` and checks."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    #: (pool, age, served T_opt) of every answered solve
    served: list[tuple[str, float, float]] = field(default_factory=list)

    def record(
        self, payload: dict[str, Any], answer: tuple[float, dict[str, Any]] | None
    ) -> float | None:
        """Count one request; its receive time if it succeeded."""
        self.attempted += 1
        at, response = answer if answer is not None else (None, None)
        ok = response is not None and bool(response.get("ok"))
        if ok and payload["op"] == "solve":
            result = response["result"]
            ok = result["age"] == payload["age"]
            self.served.append((payload["pool"], payload["age"], result["T_opt"]))
        elif ok and payload["op"] == "health":
            ok = response["health"]["status"] == "ok"
        if ok:
            return at
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(f"{payload['op']} failed: {response!r}")
        return None


# ----------------------------------------------------------------------
# load shapes
# ----------------------------------------------------------------------
async def closed_batch(
    conn: Connection, payloads: list[dict[str, Any]], window: int, ledger: Ledger
) -> float:
    """Send ``payloads`` keeping ``window`` in flight; wall seconds until
    the last answer."""
    first_id, base = conn.sent, len(conn.received)
    lines = conn.encode(payloads)
    start = time.perf_counter()
    sent = 0
    while True:
        done = len(conn.received) - base
        if sent < len(lines) and sent - done < window:
            upto = min(len(lines), done + window)
            conn.write(lines[sent:upto])
            sent = upto
        if done >= len(lines) or not await conn.wait_received(base + done + 1):
            break
    wall = time.perf_counter() - start
    answers = conn.responses(base)
    for i, payload in enumerate(payloads):
        ledger.record(payload, answers.get(first_id + i))
    return wall


@dataclass
class Phase:
    latencies_ms: list[float]
    lags_ms: list[float]
    failed: int
    #: the realised offered rate of the Poisson schedule (req/s)
    offered: float = 0.0

    def p(self, q: float) -> float:
        return percentile(self.latencies_ms, q) if self.latencies_ms else math.inf


async def open_loop(
    conn: Connection,
    payloads: list[dict[str, Any]],
    rate: float,
    rng: np.random.Generator,
    ledger: Ledger,
) -> Phase:
    """Send ``payloads`` at Poisson arrival times of mean ``rate``;
    latency is measured from each request's due time."""
    first_id, base = conn.sent, len(conn.received)
    lines = conn.encode(payloads)
    due = time.perf_counter() + 0.005 + np.cumsum(rng.exponential(1.0 / rate, len(payloads)))
    lags: list[float] = []
    i, n = 0, len(lines)
    while i < n:
        now = time.perf_counter()
        if due[i] > now:
            await asyncio.sleep(due[i] - now)
            continue
        j = int(np.searchsorted(due, now, side="right"))
        conn.write(lines[i:j])
        lags.extend((1e3 * (now - due[i:j])).tolist())
        i = j
    await conn.wait_received(base + n)
    answers = conn.responses(base)
    latencies: list[float] = []
    failed = 0
    for k, payload in enumerate(payloads):
        at = ledger.record(payload, answers.get(first_id + k))
        if at is None:
            failed += 1
        else:
            latencies.append(1e3 * (at - due[k]))
    offered = (n - 1) / (due[-1] - due[0]) if n > 1 else rate
    return Phase(latencies, lags, failed, offered)


async def probes(
    conn: Connection, interval: float, stop: asyncio.Event, ledger: Ledger
) -> list[float]:
    """``health`` probes every ``interval`` seconds until ``stop``;
    latencies (ms) from each probe's due time."""
    payload = {"op": "health"}
    first_id, base = conn.sent, len(conn.received)
    dues: list[float] = []
    due = time.perf_counter()
    while not stop.is_set():
        due += interval
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        conn.write(conn.encode([payload]))
        dues.append(due)
    await conn.wait_received(base + len(dues))
    answers = conn.responses(base)
    latencies = []
    for k, t_due in enumerate(dues):
        at = ledger.record(payload, answers.get(first_id + k))
        if at is not None:
            latencies.append(1e3 * (at - t_due))
    return latencies


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
@dataclass
class Plan:
    #: requests in each fixed-rate phase (equal, so every phase's p99
    #: rests on as many samples)
    phase_requests: int
    #: health probes spread evenly over the mid phase
    probes: int
    trial_s: float
    max_trials: int


def plan_for(workload: str, seconds: int, tiny: bool) -> Plan:
    if tiny:
        return Plan(phase_requests=20 * ROUNDS, probes=10, trial_s=0.2, max_trials=2)
    # 55 % of the run in the three fixed-rate phases, whose daemon CPU
    # time is gated, and 25 % in the search; daemon start-ups, warm-up
    # and bursts take about the rest
    per_request_s = sum(1.0 / rate for rate in RATES[workload])
    return Plan(
        phase_requests=int(0.55 * seconds / per_request_s),
        probes=PROBES,
        trial_s=0.25 * seconds / 5,
        max_trials=5,
    )


async def burst(daemon: Daemon, queries: Queries, ledger: Ledger, tiny: bool) -> float:
    """One closed burst of cold solves; its wall time."""
    assert daemon.control is not None
    n = BURST_SOLVES // 30 if tiny else BURST_SOLVES
    return await closed_batch(daemon.control, queries.fresh(n), BURST_WINDOW, ledger)


async def warm_up(daemon: Daemon, queries: Queries, ledger: Ledger) -> None:
    assert daemon.control is not None
    await closed_batch(daemon.control, queries.warm_up(), 64, ledger)


async def _load(
    daemon: Daemon, workload: str, queries: Queries, seed: int, plan: Plan,
    ledger: Ledger, *, search: bool, tiny: bool,
) -> dict[str, Any]:
    rng = np.random.default_rng([seed, 11])
    await warm_up(daemon, queries, ledger)
    out: dict[str, Any] = {"bursts": [await burst(daemon, queries, ledger, tiny)]}

    # the generator's own collector pauses would be charged to the
    # daemon as latency; nothing it allocates while loading is cyclic
    gc.collect()
    gc.disable()
    try:
        return await _measure(daemon, workload, queries, rng, plan, ledger, out, search, tiny)
    finally:
        gc.enable()


async def _measure(
    daemon: Daemon, workload: str, queries: Queries, rng: np.random.Generator,
    plan: Plan, ledger: Ledger, out: dict[str, Any], search: bool, tiny: bool,
) -> dict[str, Any]:
    conn = daemon.control
    assert conn is not None
    stats0 = await daemon.stats()
    cpu0 = daemon.cpu_s()
    t0 = time.perf_counter()
    rates = dict(zip(PHASES, RATES[workload], strict=True))
    parts: dict[str, list[Phase]] = {name: [] for name in PHASES}
    probe_lat: list[float] = []
    probe_conn = await Connection.open(daemon.port)
    # the phases take turns in short rounds, so a burst of host noise
    # lands on all of them rather than on whichever phase was running
    for _round in range(ROUNDS):
        for name, rate in rates.items():
            payloads = queries.take(plan.phase_requests // ROUNDS)
            if name != "mid":
                parts[name].append(await open_loop(conn, payloads, rate, rng, ledger))
                continue
            stop = asyncio.Event()
            interval = plan.phase_requests / rate / plan.probes
            probe_task = asyncio.ensure_future(probes(probe_conn, interval, stop, ledger))
            parts[name].append(await open_loop(conn, payloads, rate, rng, ledger))
            stop.set()
            probe_lat += await probe_task
    await probe_conn.close()
    phases = {
        name: Phase(
            [x for p in ps for x in p.latencies_ms],
            [x for p in ps for x in p.lags_ms],
            sum(p.failed for p in ps),
        )
        for name, ps in parts.items()
    }
    out["window"] = (t0, time.perf_counter())
    out["cpu_s"] = daemon.cpu_s() - cpu0
    out["stats"] = (stats0, await daemon.stats())
    out["phases"] = phases
    out["probe_ms"] = probe_lat
    # the bursts are spread over the run -- before the phases, after
    # them and after every capacity trial -- so that their median
    # follows the host's speed over the whole run, not over one stretch

    async def one_burst() -> None:
        out["bursts"].append(await burst(daemon, queries, ledger, tiny))

    async def after_trial() -> None:
        for _ in range(BURSTS_PER_TRIAL):
            await one_burst()

    await one_burst()
    if search:
        out["capacity"], out["trials"] = await capacity(
            conn, queries, START * RATES[workload][-1], rng, plan, ledger, after_trial
        )
    else:
        for _ in range(plan.max_trials):
            await after_trial()
    out["peak_rss_mb"] = daemon.peak_rss_mb()
    return out


def trial_passes(phase: Phase) -> bool:
    """p99 within the limit, nothing failed, the generator on time, and
    no growing backlog: the median latency of the trial's last tenth is
    within the limit too."""
    if phase.failed or not phase.latencies_ms:
        return False
    last = phase.latencies_ms[-max(1, len(phase.latencies_ms) // 10):]
    return (
        phase.p(99) <= LIMIT_MS
        and median(last) <= LIMIT_MS
        and percentile(phase.lags_ms, 99) <= LIMIT_MS
    )


async def capacity(
    conn: Connection, queries: Queries, start: float, rng: np.random.Generator,
    plan: Plan, ledger: Ledger, after_trial: Callable[[], Awaitable[None]],
) -> tuple[float, list[tuple[float, bool]]]:
    """Highest offered rate whose trial passes :func:`trial_passes`: the
    realised rate of that trial's Poisson schedule.  ``after_trial`` runs
    after every trial."""
    lo: float | None = None
    hi: float | None = None
    best = 0.0
    rate = start
    trials: list[tuple[float, bool]] = []
    for _ in range(plan.max_trials):
        payloads = queries.take(max(1, int(rate * plan.trial_s)))
        trial = await open_loop(conn, payloads, rate, rng, ledger)
        await after_trial()
        passed = trial_passes(trial)
        trials.append((rate, passed))
        if passed:
            lo = rate
            best = max(best, trial.offered)
        else:
            hi = rate
        if lo is not None and hi is not None:
            if hi / lo <= 1.0 + RESOLUTION:
                break
            rate = math.sqrt(lo * hi)
        else:
            rate = rate * GROWTH if hi is None else rate / GROWTH
    # with no trial passing, the rate one step below the lowest tried
    return (best if lo is not None else min(r for r, _ in trials) / GROWTH), trials


async def _run(
    workload: str, seed: int, seconds: int, trace: bool, tiny: bool, tmpdir: str
) -> dict[str, Any]:
    from repro.serve.bench import demo_registry

    pools = sorted(entry.name for entry in demo_registry().entries())
    queries = Queries(workload, seed, pools)
    ledger = Ledger()
    plan = plan_for(workload, seconds, tiny)
    report: dict[str, Any] = {"ledger": ledger}
    setups: list[float] = []
    if trace:
        # untraced bursts first, on their own daemon, for trace.overhead
        plain = await Daemon.start(tmpdir)
        try:
            await warm_up(plain, queries, ledger)
            report["untraced_bursts"] = [
                await burst(plain, queries, ledger, tiny)
                for _ in range(2 + BURSTS_PER_TRIAL * plan.max_trials)
            ]
        finally:
            await plain.stop()
        spans = os.path.join(tmpdir, "spans.json")
        daemon = await Daemon.start(tmpdir, spans)
        report["spans_path"] = spans
    else:
        for _ in range(SETUP_STARTS - 1):
            extra = await Daemon.start(tmpdir)
            setups.append(extra.setup_s)
            await extra.stop()
        daemon = await Daemon.start(tmpdir)
    setups.append(daemon.setup_s)
    try:
        report.update(
            await _load(daemon, workload, queries, seed, plan, ledger, search=not trace, tiny=tiny)
        )
    finally:
        await daemon.stop()
    report["setups"] = setups
    return report


def run(workload: str, seed: int, seconds: int, *, trace: bool, tiny: bool) -> dict[str, Any]:
    from checks import check_served

    TMP.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP) as tmpdir:
        speed = HostSpeed(Path(tmpdir) / "speed.txt")
        with contextlib.nullcontext() if trace else speed:
            raw = asyncio.run(_run(workload, seed, seconds, trace, tiny, tmpdir))
        if not trace:
            raw["host_speed"] = speed.factor()
        spans = None
        if trace:
            with open(raw["spans_path"]) as fh:
                spans = json.load(fh)
    ledger: Ledger = raw["ledger"]
    attempted, failed, notes = check_served(ledger.served, CHECKS_PER_RUN)
    report: dict[str, Any] = {
        "attempted": ledger.attempted + attempted,
        "failed": ledger.failed + failed,
        "notes": ledger.notes + notes + _describe(raw),
    }
    lags = [lag for phase in raw["phases"].values() for lag in phase.lags_ms]
    lag_p99 = percentile(lags, 99)
    if lag_p99 > LIMIT_MS:
        report["invalid"] = True
        report["notes"].append(
            f"invalid run: the generator sent requests up to {lag_p99:.1f} ms late "
            f"(p99), beyond the {LIMIT_MS:g} ms limit"
        )
    if trace:
        report["per_layer"] = _per_layer(raw, spans, lag_p99)
    else:
        report["end_to_end"] = _end_to_end(raw)
        report["reported"] = _reported(raw)
    return report


def _end_to_end(raw: dict[str, Any]) -> dict[str, float]:
    """The end-to-end metrics, times scaled to the reference host's speed
    (see ``hostspeed.py``)."""
    factor = raw["host_speed"]
    return {
        "sweep_s": median(raw["bursts"]) * factor,
        "cpu_s": raw["cpu_s"] * factor,
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": median(raw["setups"]) * factor,
    }


def _reported(raw: dict[str, Any]) -> dict[str, tuple[float, str]]:
    """The raw times behind the scaled ones, the host's speed, capacity
    and latency: printed with every run but not gated.  Capacity and
    latency are not gated because on the reference host (a 2-vCPU VM
    with 5-30 % steal time that swings within seconds) their run-to-run
    spread was 0.2-0.7 of their median over ten seeds, beyond the
    largest bound (0.25) the benchmark may set."""
    out: dict[str, tuple[float, str]] = {
        "sweep_s.raw": (median(raw["bursts"]), "s"),
        "cpu_s.raw": (raw["cpu_s"], "s"),
        "setup_s.raw": (median(raw["setups"]), "s"),
        "host_speed": (raw["host_speed"], "ratio"),
        "capacity_qps": (raw["capacity"], "req/s"),
    }
    for name, phase in raw["phases"].items():
        out[f"p50_ms.{name}"] = (phase.p(50), "ms")
    for name, phase in raw["phases"].items():
        out[f"p99_ms.{name}"] = (phase.p(99), "ms")
    out["probe_p99_ms"] = (percentile(raw["probe_ms"], 99), "ms")
    return out


def _describe(raw: dict[str, Any]) -> list[str]:
    lines = []
    for name, phase in raw["phases"].items():
        lines.append(
            f"phase {name}: {len(phase.latencies_ms)} answered, latency ms "
            + " ".join(f"p{q}={phase.p(q):.2f}" for q in (50, 90, 95, 99))
            + f", lag p99 {percentile(phase.lags_ms, 99):.2f} ms"
        )
    lines.append(f"probes: {len(raw['probe_ms'])} answered")
    if "trials" in raw:
        lines.append(
            "capacity trials: "
            + ", ".join(f"{rate:.0f}{'+' if ok else '-'}" for rate, ok in raw["trials"])
        )
    return lines


#: sweep-only layers, which a serve workload never runs
SWEEP_LAYER_METRICS = (
    "traces.generate_s", "fitting.fit_s", "fitting.fits",
    "simulation.replay_s", "simulation.segments", "stats.tables_s",
    "runner.parent_cpu_s", "runner.worker_cpu_s",
)


def _per_layer(raw: dict[str, Any], spans: dict[str, Any], lag_p99: float) -> dict[str, float]:
    from spans import self_times

    window = raw["window"]
    self_s, calls, longest = self_times(spans["spans"], window)
    before, after = raw["stats"]
    requests = after["requests"] - before["requests"]
    queries = after["batch"]["queries"] - before["batch"]["queries"]
    solves = after["batch"]["solves"] - before["batch"]["solves"]
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    samples = {
        name: [v for t, v in values if window[0] <= t < window[1]]
        for name, values in spans["samples"].items()
    }
    waits = [1e3 * w for w in samples.get("queue_wait_s", [])] or [0.0]
    sizes = samples.get("batch_size", []) or [0.0]
    core_s = self_s.get("core", 0.0) + self_s.get("core.pass", 0.0)
    layer_total = sum(self_s.values())
    return {
        "core.solve_s": core_s,
        "core.solves": float(misses),
        "core.solve_us": 1e6 * core_s / max(calls.get("core", 0), 1),
        "core.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "core.passes_per_solve": calls.get("core.pass", 0) / misses if misses else 0.0,
        "core.batch_solve_ms.max": 1e3 * longest.get("core", 0.0),
        "protocol.parse_us": 1e6 * self_s.get("protocol", 0.0) / max(calls.get("protocol", 0), 1),
        "protocol.encode_us": 1e6
        * self_s.get("protocol.encode", 0.0)
        / max(calls.get("protocol.encode", 0), 1),
        "batcher.queue_wait_ms.p50": percentile(waits, 50),
        "batcher.queue_wait_ms.p99": percentile(waits, 99),
        "batcher.batch_size": float(np.mean(sizes)),
        "batcher.solves_per_request": solves / queries if queries else 0.0,
        "server.cpu_us_per_req": 1e6 * raw["cpu_s"] / max(requests, 1),
        "loadgen.lag_p99_ms": lag_p99,
        "trace.coverage": layer_total / (window[1] - window[0]),
        "trace.overhead": median(raw["bursts"]) / median(raw["untraced_bursts"]),
        **{name: 0.0 for name in SWEEP_LAYER_METRICS},
    }
