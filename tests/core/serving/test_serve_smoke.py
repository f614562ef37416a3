"""End-to-end smoke of the serving daemon over real HTTP.

The CI ``serve-smoke`` job runs exactly this file: boot the daemon,
drive a cold/warm submit pair, assert the warm run reports a
``plan_cache`` hit with zero enumeration spans, and shut down cleanly —
no leaked serving threads.
"""

from __future__ import annotations

import gc
import json
import socket
import threading
import time
import tracemalloc
import urllib.error
import urllib.request

import pytest

from repro import RheemContext
from repro.core.serving import ServingDaemon
from repro.core.serving.daemon import _ENUMERATION_SPANS, MAX_SUBMIT_BYTES

SPEC = {"workload": "wordcount", "seed": 11, "lines": 10, "width": 5}


def _get(url: str) -> tuple[int, str]:
    with urllib.request.urlopen(url) as response:
        return response.status, response.read().decode("utf-8")


def _post(url: str, data: bytes, tenant: str = "smoke") -> tuple[int, dict]:
    request = urllib.request.Request(
        url, data=data, headers={"X-Repro-Tenant": tenant}
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _submit(daemon: ServingDaemon, spec: dict) -> dict:
    status, body = _post(
        daemon.url + "/submit", json.dumps(spec).encode("utf-8")
    )
    assert status == 200, body
    return body


class TestServeSmoke:
    def test_cold_warm_pair_and_clean_shutdown(self):
        threads_before = set(threading.enumerate())
        with ServingDaemon(port=0) as daemon:
            status, body = _get(daemon.url + "/healthz")
            assert (status, body) == (200, "ok\n")
            status, body = _get(daemon.url + "/")
            assert status == 200
            assert 'href="/metrics"' in body and 'href="/healthz"' in body

            cold = _submit(daemon, SPEC)
            assert cold["plan_cache"] == "miss"
            warm = _submit(daemon, SPEC)
            assert warm["plan_cache"] == "hit"
            # Byte-identical virtual time, zero enumeration work.
            assert warm["virtual_ms"] == cold["virtual_ms"]
            _, cold_full = _get(f"{daemon.url}/result/{cold['id']}")
            _, warm_full = _get(f"{daemon.url}/result/{warm['id']}")
            cold_full = json.loads(cold_full)
            warm_full = json.loads(warm_full)
            assert warm_full["rows"] == cold_full["rows"]
            assert warm_full["enumeration_spans"] == 0
            assert cold_full["enumeration_spans"] > 0
            assert not any(
                name in _ENUMERATION_SPANS for name in warm_full["spans"]
            )
            assert warm_full["ledger"][0][0] == "plan_cache.hit"

            status, text = _get(daemon.url + "/metrics")
            assert status == 200
            assert 'repro_serve_queries{plan_cache="hit"' in text
            run_info = [
                line for line in text.splitlines()
                if line.startswith("repro_run_info{")
            ]
            assert len(run_info) == 1, run_info

        # Clean shutdown: the acceptor thread is joined and no serving
        # thread outlives the daemon (handler threads are short-lived —
        # give them a moment to drain).
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leftover = {
                t for t in set(threading.enumerate()) - threads_before
                if t.is_alive()
            }
            if not leftover:
                break
            time.sleep(0.05)
        assert not leftover, f"leaked serving threads: {leftover}"
        assert daemon._server is None and daemon._thread is None

    def test_http_error_paths(self):
        with ServingDaemon(port=0) as daemon:
            status, body = _post(daemon.url + "/submit", b"not json")
            assert status == 400 and "JSON" in body["error"]
            status, body = _post(daemon.url + "/submit", b'["a list"]')
            assert status == 400
            status, body = _post(
                daemon.url + "/submit", b'{"workload": "no-such"}'
            )
            assert status == 400 and "unknown workload" in body["error"]
            status, body = _post(
                daemon.url + "/submit",
                b'{"workload": "wordcount", "bogus": 1}',
            )
            assert status == 400 and "bad wordcount parameters" in body["error"]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(daemon.url + "/status/q999")
            assert excinfo.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(daemon.url + "/nope")
            assert excinfo.value.code == 404

    def test_profiled_tenants_expose_resource_metrics(self):
        # A daemon whose sessions profile: the per-atom resource
        # histograms reach /metrics tenant-labelled, and the profiler's
        # process-wide hooks are gone again once the query returns.
        callbacks_before = len(gc.callbacks)
        with ServingDaemon(
            port=0, context_factory=lambda: RheemContext(profile=True)
        ) as daemon:
            _submit(daemon, SPEC)
            assert not tracemalloc.is_tracing()
            assert len(gc.callbacks) == callbacks_before
            _, text = _get(daemon.url + "/metrics")
        cpu = [
            line for line in text.splitlines()
            if line.startswith("repro_atom_cpu_ms_count{")
        ]
        assert cpu and all('tenant="smoke"' in line for line in cpu), cpu

    def test_stop_is_idempotent_and_restartable(self):
        daemon = ServingDaemon(port=0)
        daemon.start()
        port_first = daemon.port
        assert port_first != 0
        daemon.stop()
        daemon.stop()  # idempotent
        daemon.start()
        try:
            status, _ = _get(daemon.url + "/healthz")
            assert status == 200
        finally:
            daemon.stop()


def _raw_submit(daemon: ServingDaemon, content_length: str, body: bytes = b"") -> int:
    """POST /submit with a hand-written Content-Length over a real
    loopback socket; returns the status code (urllib would refuse to
    send these headers)."""
    with socket.create_connection((daemon.host, daemon.port), timeout=5.0) as sock:
        sock.sendall(
            b"POST /submit HTTP/1.1\r\nHost: test\r\nContent-Length: "
            + content_length.encode("ascii") + b"\r\n\r\n" + body
        )
        reply = b""
        while chunk := sock.recv(4096):  # timeout = the handler is pinned
            reply += chunk
    return int(reply.split()[1])


class TestSubmitBodyBounds:
    """The Content-Length header is the client's claim, not a fact."""

    def test_non_integer_length_is_400(self):
        with ServingDaemon(port=0) as daemon:
            assert _raw_submit(daemon, "lots") == 400

    def test_negative_length_is_400_not_a_read_to_eof(self):
        # The socket stays open for writing: a handler that read to EOF
        # would never answer, and recv() would time out.
        with ServingDaemon(port=0) as daemon:
            assert _raw_submit(daemon, "-1") == 400

    def test_oversized_length_is_413_without_reading_the_body(self):
        # No body follows the headers: a handler that tried to read the
        # claimed bytes would block until the client timed out.
        with ServingDaemon(port=0) as daemon:
            assert _raw_submit(daemon, str(MAX_SUBMIT_BYTES + 1)) == 413

    def test_ordinary_submit_still_200(self):
        body = json.dumps(SPEC).encode("utf-8")
        with ServingDaemon(port=0) as daemon:
            assert _raw_submit(daemon, str(len(body)), body) == 200
