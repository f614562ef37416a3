"""Cost-model calibration by micro-profiling.

The paper requires cost models to be *plugins* (§4.2) and leaves open how
their constants are obtained; the RHEEM line of work later shipped an
offline profiler that learns them from micro-benchmarks.  This module is
that profiler for the in-process platform: it runs the shared algorithm
kernels over synthetic data of increasing sizes, measures **wall time**,
divides by the abstract work units of each run, and fits a per-unit cost
(robustly, by the median across kinds and sizes).

The result is a :class:`~repro.platforms.java.platform.JavaCostModel`
whose virtual milliseconds *are* measured milliseconds on this machine —
grounding the one platform that genuinely executes in-process, while the
simulated platforms keep their calibrated analytic models (DESIGN.md §2).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from repro.core.optimizer.cost import OperatorCostInput
from repro.core.optimizer.workunits import work_units
from repro.core.physical import kernels
from repro.platforms.java.platform import JavaCostModel
from repro.util.rng import make_rng


@dataclass
class ProfileReport:
    """What the profiler measured, per operator kind."""

    #: kind -> list of (input size, wall ms, work units, ms per unit)
    samples: dict[str, list[tuple[int, float, float, float]]] = field(
        default_factory=dict
    )

    def per_unit_ms(self, kind: str | None = None) -> float:
        """Median measured milliseconds per abstract work unit."""
        if kind is not None:
            values = [s[3] for s in self.samples.get(kind, [])]
        else:
            values = [
                s[3] for samples in self.samples.values() for s in samples
            ]
        if not values:
            raise ValueError(f"no samples for kind {kind!r}")
        return statistics.median(values)

    def summary(self) -> str:
        lines = []
        for kind, samples in sorted(self.samples.items()):
            per_unit = self.per_unit_ms(kind)
            lines.append(f"{kind:<14} {per_unit * 1000:.3f} us/unit "
                         f"({len(samples)} samples)")
        lines.append(f"{'overall':<14} {self.per_unit_ms() * 1000:.3f} us/unit")
        return "\n".join(lines)


class CostProfiler:
    """Micro-benchmarks the kernels and fits per-unit costs."""

    def __init__(self, sizes: tuple[int, ...] = (2_000, 20_000), seed: int = 7):
        self.sizes = sizes
        self.seed = seed

    # ------------------------------------------------------------------
    def profile(self) -> ProfileReport:
        """Measure every profiled kind at every size."""
        report = ProfileReport()
        for size in self.sizes:
            rng = make_rng(self.seed, "profile", size)
            data = [(rng.randrange(size), rng.random()) for _ in range(size)]
            pairs = [(x % 97, y) for x, y in data]
            self._sample(report, "map", [size], size,
                         lambda: [x + 1 for x, _ in data])
            self._sample(report, "filter", [size], size // 2,
                         lambda: [t for t in data if t[0] % 2 == 0])
            self._sample(
                report, "groupby.hash", [size], 97,
                lambda: kernels.hash_group_by(pairs, lambda t: t[0]),
            )
            self._sample(
                report, "sort", [size], size,
                lambda: sorted(data, key=lambda t: t[1]),
            )
            self._sample(
                report, "join.hash", [size, size], size,
                lambda: list(
                    kernels.hash_join(pairs, pairs, lambda t: t[0],
                                      lambda t: t[0])
                )[: size],
            )
            self._sample(
                report, "distinct.hash", [size], 97,
                lambda: kernels.hash_distinct([x % 97 for x, _ in data]),
            )
        return report

    def calibrated_java_model(
        self, report: ProfileReport | None = None
    ) -> JavaCostModel:
        """A JavaCostModel whose per-unit cost was measured on this host."""
        report = report or self.profile()
        return JavaCostModel(per_unit_ms=report.per_unit_ms())

    # ------------------------------------------------------------------
    def _sample(self, report, kind, in_cards, out_card, fn) -> None:
        # one warm-up, one measured run
        fn()
        started = time.perf_counter()
        result = fn()
        wall_ms = (time.perf_counter() - started) * 1000.0
        del result
        units = work_units(
            OperatorCostInput(
                kind=kind,
                input_cards=tuple(float(c) for c in in_cards),
                output_card=float(out_card),
            )
        )
        report.samples.setdefault(kind, []).append(
            (in_cards[0], wall_ms, units, wall_ms / max(units, 1.0))
        )
