"""The executor's collector deferral (``repro.core.executor``).

While any run executes, the cyclic collector is off; the last run out
turns it back on, thresholds untouched, and every run pays for its own
garbage with at most one collection on exit.  A caller who switched the
collector off keeps it off and never sees a collection forced on it.
"""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro import RheemContext
from repro.errors import AtomExhaustedError

JOIN_S = 30.0


class _Node:
    """Weak-referenceable, so a cycle through it can carry a finalizer."""


def _run(ctx: RheemContext, udf=lambda x: x + 1, data=(1, 2, 3)) -> list:
    return ctx.collection(list(data)).map(udf).collect()


class _Collections:
    """Counts collections through ``gc.callbacks`` for a block."""

    def __init__(self) -> None:
        self.count = 0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "stop":
            self.count += 1

    def __enter__(self) -> "_Collections":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)


class _HeldRun:
    """A run on its own thread, held open inside a UDF until released."""

    def __init__(self, ctx: RheemContext) -> None:
        self.inside = threading.Event()
        self.release = threading.Event()
        self.result: list = []

        def hold(x):
            self.inside.set()
            assert self.release.wait(JOIN_S)
            return x

        self.thread = threading.Thread(
            target=lambda: self.result.extend(_run(ctx, hold, [7]))
        )

    def __enter__(self) -> "_HeldRun":
        self.thread.start()
        assert self.inside.wait(JOIN_S)
        return self

    def __exit__(self, *exc) -> None:
        self.release.set()
        self.thread.join(JOIN_S)
        assert not self.thread.is_alive()


def test_state_and_thresholds_restored_after_a_run(ctx):
    thresholds = gc.get_threshold()
    seen = []
    assert _run(ctx, lambda x: seen.append(gc.isenabled()) or x) == [1, 2, 3]
    assert seen and not any(seen)  # deferred while the run executes
    assert gc.isenabled()
    assert gc.get_threshold() == thresholds


def test_a_disabled_collector_is_left_alone(ctx):
    gc.disable()
    try:
        with _Collections() as collections:
            for _ in range(5):
                # enough surviving containers to put generation 0 over
                # its threshold: a deferral that collected would show
                _run(ctx, lambda x: [[] for _ in range(1000)])
        assert not gc.isenabled()
        assert collections.count == 0
    finally:
        gc.enable()


def test_nested_run_keeps_the_deferral(ctx):
    inner_ctx = RheemContext()
    after_inner = []

    def nested(x):
        _run(inner_ctx)
        after_inner.append(gc.isenabled())
        return x

    assert _run(ctx, nested, [1]) == [1]
    assert after_inner == [False]
    assert gc.isenabled()


def test_threaded_runs_reenable_when_the_last_leaves(ctx):
    with _HeldRun(RheemContext()) as held:
        assert not gc.isenabled()
        assert _run(ctx) == [2, 3, 4]
        assert not gc.isenabled()  # the held run is still inside
    assert held.result == [7]
    assert gc.isenabled()


def test_exhausted_retries_release_the_deferral():
    ctx = RheemContext(max_retries=1)

    def boom(x):
        raise RuntimeError("boom")

    with pytest.raises(AtomExhaustedError):
        _run(ctx, boom)
    assert gc.isenabled()
    assert _run(ctx) == [2, 3, 4]
    assert gc.isenabled()


def test_overlapping_runs_still_collect_their_own_cycles(ctx):
    """With one run held open the collector never comes back on, yet
    every other run's cyclic garbage is freed by the time it returns.

    Each cycle carries more containers than generation 0's threshold, so
    the collector running normally would have freed it too.
    """
    fired: list[int] = []
    per_run = 2 * gc.get_threshold()[0]

    def leave_cycle(i):
        cycle = {"bulk": [[] for _ in range(per_run)]}
        cycle["self"] = cycle
        holder = _Node()
        holder.cycle = cycle
        cycle["holder"] = holder
        weakref.finalize(holder, fired.append, i)
        return i

    with _HeldRun(RheemContext()):
        for i in range(20):
            assert _run(ctx, leave_cycle, [i]) == [i]
            assert not gc.isenabled()
            assert fired[-1:] == [i], f"run {i}'s cycle outlived it"
        assert sorted(fired) == list(range(20))
    assert gc.isenabled()


def test_process_mode_leaves_the_parent_as_found():
    ctx = RheemContext(parallelism=2, execution_mode="process")
    thresholds = gc.get_threshold()
    assert sorted(_run(ctx, data=range(8))) == list(range(1, 9))
    assert gc.isenabled()
    assert gc.get_threshold() == thresholds
    gc.disable()
    try:
        assert sorted(_run(ctx, data=range(8))) == list(range(1, 9))
        assert not gc.isenabled()
    finally:
        gc.enable()
