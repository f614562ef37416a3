"""Cache-semantics harness for the serving plan cache.

Two layers of guarantees are pinned here:

* the :class:`~repro.core.serving.plan_cache.PlanCache` container itself
  — LRU order, capacity bounds and thread-safety, checked property-style
  against a model ``OrderedDict``;
* the *key* semantics wired through :meth:`RheemContext.execute` — a
  repeat fingerprint hits, while flipping the calibration-store epoch or
  the executor config epoch always misses (a stale plan is never
  replayed, in either flip direction).
"""

from __future__ import annotations

import hashlib
import random
import threading
from collections import OrderedDict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import RheemContext
from repro.core.optimizer.calibration import CalibrationStore
from repro.core.optimizer.fingerprint import (
    _value_token,
    logical_plan_fingerprint,
)
from repro.core.serving import PlanCache, plan_cache_key
from repro.core.serving.workloads import wordcount


class TestPlanCacheModel:
    """Randomized insert/hit/evict trace replayed against a model dict."""

    CAPACITY = 8
    KEYS = [f"k{i}" for i in range(24)]

    def _model_get(self, model: OrderedDict, key):
        if key in model:
            model.move_to_end(key)
            return model[key]
        return None

    def _model_put(self, model: OrderedDict, key, value) -> int:
        model[key] = value
        model.move_to_end(key)
        evicted = 0
        while len(model) > self.CAPACITY:
            model.popitem(last=False)
            evicted += 1
        return evicted

    def test_randomized_trace_matches_model(self):
        rng = random.Random(0xC0FFEE)
        cache = PlanCache(self.CAPACITY)
        model: OrderedDict = OrderedDict()
        hits = misses = evictions = 0
        for step in range(600):
            key = rng.choice(self.KEYS)
            if rng.random() < 0.5:
                value = ("plan", key, step)
                cache.put(key, value)
                evictions += self._model_put(model, key, value)
            else:
                got = cache.get(key)
                want = self._model_get(model, key)
                assert got == want
                if want is None:
                    misses += 1
                else:
                    hits += 1
            # LRU order (least-recent first) must match the model exactly.
            assert cache.keys() == list(model)
            assert len(cache) == len(model) <= self.CAPACITY
        stats = cache.stats()
        assert stats["hits"] == hits
        assert stats["misses"] == misses
        assert stats["evictions"] == evictions

    def test_get_refreshes_recency(self):
        cache = PlanCache(3)
        for key in ("a", "b", "c"):
            cache.put(key, key.upper())
        assert cache.get("a") == "A"
        cache.put("d", "D")  # evicts b, the true LRU — not a
        assert "a" in cache and "d" in cache
        assert "b" not in cache
        assert cache.keys() == ["c", "a", "d"]

    def test_put_overwrites_without_growth(self):
        cache = PlanCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1
        assert cache.get("a") == 2
        assert cache.stats()["evictions"] == 0

    def test_capacity_is_validated(self):
        with pytest.raises(ValueError):
            PlanCache(0)

    def test_clear_empties_but_keeps_counters(self):
        cache = PlanCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        cache.clear()
        assert len(cache) == 0
        assert "a" not in cache
        assert cache.stats()["hits"] == 1


class TestPlanCacheThreadSafety:
    def test_concurrent_hits_and_puts_stay_bounded(self):
        cache = PlanCache(16)
        keys = [f"k{i}" for i in range(32)]
        for key in keys[:16]:
            cache.put(key, key)
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    key = rng.choice(keys)
                    if rng.random() < 0.4:
                        cache.put(key, key)
                    else:
                        got = cache.get(key)
                        assert got in (None, key)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 16
        assert len(cache.keys()) == len(cache)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] > 0

    def test_concurrent_hits_on_one_key_all_succeed(self):
        cache = PlanCache(4)
        cache.put("hot", "plan")
        results: list = []

        def reader() -> None:
            for _ in range(200):
                results.append(cache.get("hot"))

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results and all(value == "plan" for value in results)
        assert cache.stats()["hits"] == len(results)


class TestCacheKeyComposition:
    def test_every_component_flips_the_key(self):
        base = plan_cache_key("fp", "java", 0, "epoch-a")
        assert plan_cache_key("fp2", "java", 0, "epoch-a") != base
        assert plan_cache_key("fp", "spark", 0, "epoch-a") != base
        assert plan_cache_key("fp", "java", 1, "epoch-a") != base
        assert plan_cache_key("fp", "java", 0, "epoch-b") != base
        assert plan_cache_key("fp", "java", 0, "epoch-a") == base

    def test_fingerprint_tracks_data_and_shape(self):
        ctx = RheemContext()
        fp_a = logical_plan_fingerprint(wordcount(ctx, seed=3).plan)
        fp_same = logical_plan_fingerprint(wordcount(ctx, seed=3).plan)
        fp_data = logical_plan_fingerprint(wordcount(ctx, seed=4).plan)
        fp_shape = logical_plan_fingerprint(wordcount(ctx, seed=3, chain=1).plan)
        assert fp_a == fp_same  # operator ids are excluded
        assert fp_a != fp_data
        assert fp_a != fp_shape


class _Raw:
    """An item whose ``repr`` is arbitrary text, lone surrogates included
    (a ``str`` item's own repr escapes them)."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return self.text


def _per_item_digest(value) -> tuple:
    """The sequence token as one ``update`` per item and separator."""
    digest = hashlib.sha256()
    for item in value:
        digest.update(repr(item).encode("utf-8", "backslashreplace"))
        digest.update(b"\x00")
    return ("seq", len(value), digest.hexdigest())


_TEXT = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"])))
_ITEMS = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), _TEXT,
        st.builds(_Raw, _TEXT),
    ),
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)


class TestSequenceDigest:
    """A sequence is hashed in one pass, to the per-item stream's digest."""

    @given(st.lists(_ITEMS, max_size=12))
    def test_list_digest_matches_the_per_item_stream(self, value):
        assert _value_token(value) == _per_item_digest(value)

    @given(st.lists(_ITEMS, max_size=12).map(tuple))
    def test_tuple_digest_matches_the_per_item_stream(self, value):
        assert _value_token(value) == _per_item_digest(value)

    def test_empty_and_surrogate_sequences(self):
        for value in ([], (), [_Raw("\ud800")], ("\udfff", (1, "é"))):
            assert _value_token(value) == _per_item_digest(value)


class TestEpochInvalidation:
    """Epoch flips always miss; a flip never resurrects a stale plan."""

    def _run(self, ctx):
        return ctx.execute(wordcount(ctx, seed=5, lines=8, width=4).plan)

    def test_calibration_epoch_flip_is_a_miss_never_stale(self):
        ctx = RheemContext()
        ctx.plan_cache = PlanCache(8)
        assert self._run(ctx).plan_cache == "miss"
        assert self._run(ctx).plan_cache == "hit"

        # Attaching a cold store keeps epoch == 0, the no-store value:
        # nothing that influenced enumeration moved, so still a hit.
        store = CalibrationStore()
        ctx.calibration = store
        assert store.epoch == 0
        assert self._run(ctx).plan_cache == "hit"

        # Priors moved -> epoch bumped -> the memoized plan is stale.
        assert store.observe("map", "java", estimated=10.0, observed=40.0)
        assert store.epoch == 1
        assert self._run(ctx).plan_cache == "miss"
        assert self._run(ctx).plan_cache == "hit"

        # reset() is also an epoch flip, and it must *not* flip back to
        # a key that would resurrect the epoch-1 plan.
        store.reset()
        assert store.epoch == 2
        assert self._run(ctx).plan_cache == "miss"
        # Three distinct epochs -> three distinct cache entries.
        assert len(ctx.plan_cache) == 3

    def test_restore_bumps_the_epoch(self):
        store = CalibrationStore()
        store.observe("map", "java", estimated=10.0, observed=40.0)
        snapshot = store.snapshot()
        epoch_before = store.epoch
        store.restore(snapshot)
        assert store.epoch == epoch_before + 1

    def test_config_epoch_partitions_the_cache(self):
        shared = PlanCache(8)
        ctx_row = RheemContext(columnar=False)
        ctx_col = RheemContext(columnar=True)
        ctx_row.plan_cache = shared
        ctx_col.plan_cache = shared
        assert (
            ctx_row.executor._config_epoch() != ctx_col.executor._config_epoch()
        )
        assert self._run(ctx_row).plan_cache == "miss"
        assert self._run(ctx_row).plan_cache == "hit"
        # Same fingerprint, different config epoch: never a cross-hit.
        assert self._run(ctx_col).plan_cache == "miss"
        assert self._run(ctx_col).plan_cache == "hit"
        assert len(shared) == 2

    def test_forced_platform_partitions_the_cache(self):
        ctx = RheemContext()
        ctx.plan_cache = PlanCache(8)
        plan = wordcount(ctx, seed=5, lines=8, width=4).plan
        assert ctx.execute(plan, platform="java").plan_cache == "miss"
        assert ctx.execute(plan, platform="java").plan_cache == "hit"
        assert ctx.execute(plan, platform="spark").plan_cache == "miss"
        assert len(ctx.plan_cache) == 2
