"""Regression tests for info-gauge (re-)registration.

A metrics server restarted within one process used to call
``gauge("run_info").set(1, **labels)`` directly; because every label set
keys its own series, a restart under a new git sha or config epoch
accreted a second, stale ``repro_run_info`` series in the exposition.
``repro serve`` stamps the gauge through the same helper.
:func:`set_build_info` makes registration idempotent — these tests pin
that exactly one series survives any number of re-registrations.
"""

from __future__ import annotations

from repro.core.observability import (
    MetricsRegistry,
    prometheus_text,
    set_build_info,
)
from repro.core.serving import ServingDaemon


def _run_info_lines(registry: MetricsRegistry) -> list[str]:
    return [
        line
        for line in prometheus_text(registry, "repro_").splitlines()
        if line.startswith("repro_run_info{")
    ]


class TestSetBuildInfo:
    def test_restart_with_new_labels_keeps_one_series(self):
        registry = MetricsRegistry()
        set_build_info(registry, git_sha="a" * 40, config_epoch="epoch-1")
        # Restart in the same process, under new build identity.
        set_build_info(registry, git_sha="b" * 40, config_epoch="epoch-2")
        gauge = registry.gauge("run_info")
        assert len(gauge.series) == 1
        lines = _run_info_lines(registry)
        assert len(lines) == 1
        assert "b" * 40 in lines[0] and "epoch-2" in lines[0]
        assert "a" * 40 not in lines[0]

    def test_same_labels_are_stable(self):
        registry = MetricsRegistry()
        for _ in range(3):
            set_build_info(registry, git_sha="c" * 40, config_epoch="e")
        assert len(registry.gauge("run_info").series) == 1
        assert registry.gauge("run_info").value(
            git_sha="c" * 40, config_epoch="e"
        ) == 1

    def test_custom_gauge_name(self):
        registry = MetricsRegistry()
        set_build_info(registry, name="build_info", version="1")
        set_build_info(registry, name="build_info", version="2")
        assert len(registry.gauge("build_info").series) == 1

    def test_serving_daemon_restamp_keeps_one_series(self):
        daemon = ServingDaemon(port=0)
        # Re-stamping (what a restart of the daemon's identity does)
        # must not accrete series either.
        daemon._stamp_build_info()
        daemon._stamp_build_info()
        assert len(_run_info_lines(daemon.registry)) == 1
