"""The ``serve_mix`` workload: a closed-loop load generator against
``python -m repro.cli serve --port 0`` on loopback.

One op is one request (``POST /submit`` to its response).  Each client is
one thread, one tenant and one connection, and sends its next request
only when the previous one has answered.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from contextlib import ExitStack
from typing import NamedTuple

from benchmarks.e2e import datagen, reference, stats

TENANT_HEADER = "X-Repro-Tenant"
#: the daemon's resident set is sampled every so many completed requests
RSS_EVERY = 100
#: ``peak_rss_mb`` is the sample at this many requests since boot (warm-up
#: included): fixed work, so a faster daemon is not charged for serving more
RSS_AT_REQUEST = 1_500
#: one response in this many is re-fetched from /result and checked
VERIFY_EVERY = 20


class Sample(NamedTuple):
    client: int
    started: float
    wall_ms: float
    ok: bool
    plan_cache: str
    query_id: str
    spec: dict


class Daemon:
    """The serving daemon as a subprocess, started as a user starts it."""

    def __init__(self, root: str):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=root, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            self.host, self.port = self._await_address()
        except BaseException:
            self.stop()
            raise
        #: requests completed since boot, across all clients and phases
        self.completed = 0
        #: (requests since boot, VmRSS kB), one every ``RSS_EVERY`` requests
        self.rss_samples: list = []
        self._lock = threading.Lock()

    def _await_address(self, timeout: float = 60.0) -> tuple[str, int]:
        stderr = self.process.stderr
        ready, _, _ = select.select([stderr], [], [], timeout)
        line = stderr.readline() if ready else ""
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"repro serve did not come up: {line!r}")
        return match.group(1), int(match.group(2))

    def rss_kb(self) -> int:
        with open(f"/proc/{self.process.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmRSS line for the daemon")

    def count_request(self) -> None:
        """Note one completed request; sample RSS every ``RSS_EVERY``."""
        with self._lock:
            self.completed += 1
            count = self.completed
        if count % RSS_EVERY == 0:
            self.rss_samples.append((count, self.rss_kb()))

    def stop(self) -> int:
        """SIGTERM, then wait until the process has ended."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stderr is not None:
            self.process.stderr.close()
        return self.process.returncode


def _client(daemon: Daemon, client: int, specs, deadline: float,
            limit: "int | None", samples: list) -> None:
    connection = http.client.HTTPConnection(daemon.host, daemon.port, timeout=60)
    headers = {TENANT_HEADER: f"tenant{client}",
               "Content-Type": "application/json"}
    try:
        while time.perf_counter() < deadline and (
            limit is None or len(samples) < limit
        ):
            spec = next(specs)
            body = json.dumps(spec)
            started = time.perf_counter()
            try:
                connection.request("POST", "/submit", body, headers)
                response = connection.getresponse()
                payload = json.loads(response.read())
                ok = response.status == 200 and payload.get("status") == "done"
            except (OSError, http.client.HTTPException, ValueError):
                connection.close()
                payload, ok = {}, False
            wall_ms = (time.perf_counter() - started) * 1000.0
            samples.append(Sample(
                client, started, wall_ms, ok, payload.get("plan_cache") or "",
                payload.get("id") or "", spec,
            ))
            daemon.count_request()
    finally:
        connection.close()


def drive(daemon: Daemon, streams: list, seconds: float,
          limit: "int | None" = None, meanwhile=None) -> list:
    """Closed loop: one thread per stream, for ``seconds`` or ``limit``
    requests per client, whichever ends first; all samples, per client in
    completion order.  ``meanwhile`` is called over and over on this
    thread while the clients run."""
    deadline = time.perf_counter() + seconds
    per_client = [[] for _ in streams]
    threads = [
        threading.Thread(
            target=_client, name=f"client{index}",
            args=(daemon, index, stream, deadline, limit, per_client[index]),
        )
        for index, stream in enumerate(streams)
    ]
    for thread in threads:
        thread.start()
    while meanwhile is not None and any(t.is_alive() for t in threads):
        meanwhile()
    for thread in threads:
        thread.join()
    return [sample for samples in per_client for sample in samples]


def streams(seed: int, sz: dict, clients: int) -> list:
    return [datagen.serve_requests(seed, client, sz) for client in range(clients)]


def verify(daemon: Daemon, samples: list) -> int:
    """Re-fetch one response in ``VERIFY_EVERY`` from ``/result`` and check
    its rows against the oracle; returns the number that disagree."""
    connection = http.client.HTTPConnection(daemon.host, daemon.port, timeout=60)
    mismatches = 0
    try:
        for sample in samples[::VERIFY_EVERY]:
            if not sample.ok:
                continue  # already counted as failed
            want = reference.serve_answer(sample.spec)
            try:
                connection.request("GET", f"/result/{sample.query_id}")
                response = connection.getresponse()
                rows = json.loads(response.read()).get("rows")
                good = response.status == 200 and reference.same(rows, want)
            except (OSError, http.client.HTTPException, ValueError):
                connection.close()
                good = False
            mismatches += not good
    finally:
        connection.close()
    return mismatches


# ----------------------------------------------------------------------
# set-up and the two passes
# ----------------------------------------------------------------------
CLIENTS = 2
#: warm-up requests per client before anything is timed
WARMUP_REQUESTS = 100


class Prepared(NamedTuple):
    daemon: Daemon
    streams: list
    seed: int
    sz: dict


def prepare(root: str, seed: int, smoke: bool) -> Prepared:
    """One set-up: boot the daemon, then warm the sessions and the plan
    cache with a fixed number of requests."""
    sz = datagen.sizes("serve_mix", smoke)
    daemon = Daemon(root)
    try:
        client_streams = streams(seed, sz, CLIENTS)
        drive(daemon, client_streams, 60.0, limit=WARMUP_REQUESTS)
    except BaseException:
        daemon.stop()
        raise
    return Prepared(daemon, client_streams, seed, sz)


#: pause between two reference answers computed beside the window
_REFERENCE_EVERY_S = 0.2


def measure(prepared: Prepared, seconds: float) -> dict:
    """The untraced window: two closed-loop clients at saturation.

    While the clients run, this thread computes the plain-Python answer of
    one pooled spec every 0.2 s (under 1 % of a core), so the reference sees
    the same machine as the requests.  One request of the mix costs the
    mix-weighted mean of the per-kind medians: no sampling noise from which
    requests the clients happened to draw.
    """
    daemon, sz = prepared.daemon, prepared.sz
    ref_walls: dict = {kind: [] for kind in datagen.MIX}
    turn = 0

    def reference_beside() -> None:
        nonlocal turn
        kind = datagen.MIX[turn % len(datagen.MIX)]
        spec = datagen.serve_spec(
            kind, prepared.seed * 1_000 + turn % sz["pool"], sz)
        turn += 1
        started = time.perf_counter()
        reference.serve_answer(spec)
        ref_walls[kind].append((time.perf_counter() - started) * 1000.0)
        time.sleep(_REFERENCE_EVERY_S)

    start = time.perf_counter()
    samples = drive(daemon, prepared.streams, seconds, meanwhile=reference_beside)
    end = time.perf_counter()
    ref_op_ms = stats.mean(
        [stats.median(ref_walls[kind]) for kind in datagen.MIX])
    mismatches = verify(daemon, samples)
    good = [(s.started + s.wall_ms / 1000.0, s.wall_ms) for s in samples if s.ok]
    if not good:
        raise RuntimeError("serve_mix: no request succeeded")
    rss_kb = dict(daemon.rss_samples).get(RSS_AT_REQUEST)
    if rss_kb is None:
        print(f"warning: fewer than {RSS_AT_REQUEST} requests since boot; "
              "peak_rss_mb read at the end of the window", file=sys.stderr)
        rss_kb = daemon.rss_kb()

    def values(walls: list, span_s: float) -> dict:
        if not walls:
            return {}
        p50 = stats.median(walls)
        return {
            "wall_ms_p50": p50,
            "throughput_ops_s": len(walls) / span_s,
            "framework_tax_x": p50 / ref_op_ms,
        }

    metrics, segments = stats.summarise(
        values([wall for _, wall in good], end - start),
        [values(part, (end - start) / 3.0)
         for part in stats.thirds(good, start, end)],
    )
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    return {
        "metrics": metrics, "attempted": len(samples),
        "failed": len(samples) - len(good) + mismatches, "segments": segments,
    }


def _in_process(seed: int, sz: dict, seconds: float, log) -> dict:
    """Layer table of a request, from an in-process ``ServingDaemon`` with
    timing proxies on each tenant's context.

    One thread alternates between the two tenants, so every span is an
    uncontended service time and the layers add up.  ``build_workload``
    and the plan fingerprint run inside ``submit``; they are timed by
    calling the same public functions on the same spec right after it.  A
    short two-thread burst at the end gives the slot pool something to
    wait for (``serving.admission_wait_ms``).
    """
    from repro import RheemContext
    from repro.core.logical.operators import CollectSink
    from repro.core.optimizer.fingerprint import logical_plan_fingerprint
    from repro.core.serving import ServingDaemon
    from repro.core.serving.workloads import build_workload

    from benchmarks.e2e import layers

    daemon = ServingDaemon()  # never started: no socket, submit() only
    tenants = [f"tenant{index}" for index in range(CLIENTS)]
    specs = streams(seed, sz, CLIENTS)
    probe = RheemContext()
    submit_ms: dict = {"hit": [], "miss": []}
    failed = 0
    deadline = time.perf_counter() + seconds * 0.75
    with ExitStack() as stack:
        for tenant in tenants:
            stack.enter_context(layers.timed_layers(
                daemon.sessions.session(tenant).context, log))
        while time.perf_counter() < deadline:
            turn = log.op_id % CLIENTS
            log.op_id += 1
            spec = next(specs[turn])
            started = time.perf_counter()
            with log.span("serving.submit"):
                record = daemon.submit(spec, tenant=tenants[turn])
            wall_ms = (time.perf_counter() - started) * 1000.0
            ok = record.status == "done"
            if ok and log.op_id % VERIFY_EVERY == 0:
                ok = reference.same(record.rows, reference.serve_answer(spec))
            failed += not ok
            submit_ms.setdefault(record.plan_cache, []).append(wall_ms)
            with log.span("serving.build_workload"):
                handle = build_workload(probe, spec)
            handle.plan.add(CollectSink(), [handle.operator])
            with log.span("serving.fingerprint"):
                logical_plan_fingerprint(handle.plan)
    n = log.op_id
    cache = daemon.plan_cache.stats()

    burst_end = time.perf_counter() + seconds * 0.25
    served = [0] * CLIENTS

    def contend(index: int) -> None:
        while time.perf_counter() < burst_end:
            daemon.submit(next(specs[index]), tenant=tenants[index])
            served[index] += 1

    threads = [threading.Thread(target=contend, args=(index,))
               for index in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    per_op = {name: ms / n for name, ms in log.totals_ms().items()}
    get = per_op.get
    optimizers = (get("app_optimizer.optimize", 0.0)
                  + get("task_optimizer.optimize", 0.0))
    inside = (optimizers + get("executor.execute", 0.0)
              + get("serving.build_workload", 0.0)
              + get("serving.fingerprint", 0.0))
    submit = per_op["serving.submit"]
    out = {
        "serving.submit_ms.hit": stats.median(submit_ms["hit"] or [0.0]),
        "serving.submit_ms.miss": stats.median(submit_ms["miss"] or [0.0]),
        "serving.build_workload_ms": get("serving.build_workload", 0.0),
        "serving.fingerprint_ms": get("serving.fingerprint", 0.0),
        "serving.admission_wait_ms": daemon.slot_pool.wait_ms / max(1, sum(served)),
        "serving.submit_self_ms": max(0.0, submit - inside),
        "app_optimizer.optimize_ms": get("app_optimizer.optimize", 0.0),
        "task_optimizer.optimize_ms": get("task_optimizer.optimize", 0.0),
        "executor.execute_ms": get("executor.execute", 0.0),
        "optimizer.share_pct": optimizers / submit * 100.0,
        "layers.unaccounted_pct": max(0.0, inside - submit) / submit * 100.0,
        "serving.plan_cache.evictions": cache["evictions"],
    }
    return {
        "metrics": out, "attempted": n, "failed": failed,
        "submit_p50": stats.median(
            [ms for walls in submit_ms.values() for ms in walls]),
    }


def trace(prepared: Prepared, seconds: float, log) -> dict:
    """The traced pass: an in-process layer table, then the HTTP daemon
    with one client and with two (tail latencies, scaling, memory slope)."""
    daemon, seed, sz = prepared.daemon, prepared.seed, prepared.sz
    inner = _in_process(seed, sz, seconds * 0.35, log)
    out = inner["metrics"]

    one = drive(daemon, prepared.streams[:1], seconds * 0.2)
    started = time.perf_counter()
    two = drive(daemon, prepared.streams, seconds * 0.45)
    two_s = time.perf_counter() - started
    mismatches = verify(daemon, two)
    walls = [s.wall_ms for s in two if s.ok]
    if not walls:
        raise RuntimeError("serve_mix: no request succeeded")
    qps_one = sum(s.ok for s in one) / (seconds * 0.2)
    qps_two = len(walls) / two_s
    out["serving.qps_1client"] = qps_one
    out["serving.scaling_2c_x"] = qps_two / qps_one if qps_one else 0.0
    out["serving.wall_ms_p90"] = stats.percentile(walls, 0.90)
    out["serving.wall_ms_p99"] = stats.percentile(walls, 0.99)
    out["serving.http_overhead_ms"] = (
        stats.median([s.wall_ms for s in one if s.ok] or [0.0])
        - inner["submit_p50"])
    out["serving.plan_cache.hit_ratio"] = (
        sum(s.plan_cache == "hit" for s in two) / len(two))
    settled = [point for point in daemon.rss_samples if point[0] >= 500]
    if len(settled) < 2:  # a short pass: take what there is
        settled = daemon.rss_samples
    if len(settled) >= 2:
        (n0, kb0), (n1, kb1) = settled[0], settled[-1]
        out["serving.rss_kb_per_op"] = (kb1 - kb0) / (n1 - n0)
    attempted = inner["attempted"] + len(one) + len(two)
    failed = (
        inner["failed"] + sum(not s.ok for s in one)
        + len(two) - len(walls) + mismatches
    )
    out["failed_ops_share"] = failed / attempted
    return {"metrics": out, "attempted": attempted, "failed": failed}
