"""LRU cache of optimized execution plans, keyed by fingerprint × epochs.

Cross-platform plan search is the expensive step of every query (RHEEMix
makes the same observation for its enumeration algebra), yet serving
traffic repeats the same handful of query shapes millions of times.  The
cache memoizes the optimizer's *output* — the cut
:class:`~repro.core.execution.plan.ExecutionPlan` — under a key that
changes whenever anything that influenced enumeration changes:

* the logical plan fingerprint (structure, UDF code **and** source
  data — see :mod:`repro.core.optimizer.fingerprint`),
* the forced platform, if any,
* the calibration-store epoch (priors moved ⇒ the estimator moved ⇒
  every memoized plan may be stale),
* the executor config epoch (columnar / kernel / calibration toggles
  change what the enumerator is allowed to choose).

A hit therefore always replays a plan that today's optimizer would have
produced; invalidation is by key, so flipping an epoch back never
resurrects a plan enumerated under different priors for the *new* epoch.

The serving daemon looks up a repeat request without rebuilding it: it
memoises each spec's logical plan and fingerprint (in a second
:class:`PlanCache` of the same capacity), so a hit costs the key's
epoch reads, one lookup and the replay.  Callers outside the daemon pass
a plan, and :meth:`~repro.core.context.RheemContext.execute` fingerprints
it on every call.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable


def plan_cache_key(
    fingerprint: str,
    platform: str | None,
    calibration_epoch: int,
    config_epoch: str,
) -> tuple:
    """Compose the full cache key for one optimizer invocation."""
    return (fingerprint, platform, calibration_epoch, config_epoch)


class PlanCache:
    """Thread-safe LRU map from :func:`plan_cache_key` to execution plans.

    ``get`` refreshes recency; ``put`` evicts the least-recently-used
    entry once ``capacity`` is exceeded.  Hit/miss/eviction counts are
    exposed for the serving registry.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Any | None:
        """Return the cached plan for ``key`` (refreshing recency), or None."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting LRU entries over capacity."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list:
        """Current keys, least-recently-used first (for tests/inspection)."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
