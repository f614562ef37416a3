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
from operator import itemgetter

from repro.core.optimizer.cost import KernelCostModel, OperatorCostInput
from repro.core.optimizer.workunits import work_units
from repro.core.physical import kernels
from repro.core.physical.columnar import ColumnPredicate, ColumnwiseReduce
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


@dataclass
class DatapathProfile:
    """Measured wall-clock rates of the data path, row vs columnar.

    ``samples`` maps ``(stage, mode)`` to per-row milliseconds, one
    entry per profiled size.  Stages mirror
    :class:`~repro.core.optimizer.cost.KernelCostModel`: ``project`` /
    ``filter`` / ``reduceby`` in both modes, plus the row-mode-only
    boundary costs ``boundary.unpack`` (egest materialisation) and
    ``boundary.pack`` (columnar ingest).
    """

    #: (stage, mode) -> list of measured ms per row
    samples: dict[tuple[str, str], list[float]] = field(default_factory=dict)

    def per_row_ms(self, stage: str, mode: str) -> float:
        """Median measured milliseconds per row for one stage/mode."""
        values = self.samples.get((stage, mode), [])
        if not values:
            raise ValueError(f"no samples for ({stage!r}, {mode!r})")
        return statistics.median(values)

    def speedup(self, stage: str) -> float:
        """Measured row-mode / columnar-mode rate ratio for one stage."""
        columnar = self.per_row_ms(stage, "columnar")
        if columnar <= 0.0:
            return float("inf")
        return self.per_row_ms(stage, "row") / columnar

    def kernel_model(self) -> KernelCostModel:
        """A :class:`KernelCostModel` over the median measured rates."""
        return KernelCostModel(
            {key: statistics.median(vals) for key, vals in self.samples.items()}
        )

    def summary(self) -> str:
        lines = []
        for stage in ("project", "filter", "reduceby"):
            if (stage, "row") in self.samples:
                lines.append(
                    f"{stage:<10} row {self.per_row_ms(stage, 'row') * 1e6:9.1f} "
                    f"ns/row  columnar "
                    f"{self.per_row_ms(stage, 'columnar') * 1e6:9.1f} ns/row  "
                    f"({self.speedup(stage):.1f}x)"
                )
        for stage in ("boundary.unpack", "boundary.pack"):
            if (stage, "row") in self.samples:
                lines.append(
                    f"{stage:<16} {self.per_row_ms(stage, 'row') * 1e6:9.1f} ns/row"
                )
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
    def profile_datapath(
        self, sizes: tuple[int, ...] | None = None
    ) -> DatapathProfile:
        """Measure row-mode vs columnar-native data-path rates.

        Runs the *actual* batch kernels over a synthetic wide numeric
        dataset: itemgetter projection,
        single-column predicate filter, columnwise reduce-by sweep, plus
        the boundary costs — row materialisation of packed buffers
        (what ``columnar.egest`` does) and packing rows into buffers
        (what ``columnar.ingest`` does).  Feeds
        :meth:`DatapathProfile.kernel_model`, which is what ``repro
        explain`` and the enumerator use to predict elision wins from
        measured rates rather than hard-coded discounts.
        """
        from repro.core.channels import ColumnarChannel
        from repro.core.physical import columnar

        sizes = sizes or self.sizes
        profile = DatapathProfile()
        projection = itemgetter(3, 1, 2, 0)
        predicate = ColumnPredicate(0, (497).__gt__)
        key = itemgetter(0)
        reducer = ColumnwiseReduce(("key", "sum", "sum", "min"))
        for size in sizes:
            rows = [
                (i % 997, float((i * 31) % 101), float(i % 11) * 0.5, i % 7)
                for i in range(size)
            ]
            channel = ColumnarChannel.from_rows(rows, "java")
            batch = channel.batch()
            cases = (
                ("project", "row", lambda: list(map(projection, rows))),
                ("project", "columnar",
                 lambda: columnar.native_map(projection, batch)),
                ("filter", "row", lambda: list(filter(predicate, rows))),
                ("filter", "columnar",
                 lambda: columnar.native_filter(predicate, batch)),
                ("reduceby", "row",
                 lambda: kernels.hash_reduce_by(rows, key, reducer)),
                ("reduceby", "columnar",
                 lambda: kernels.hash_reduce_by(
                     channel.batch(), key, reducer)),
                ("boundary.unpack", "row",
                 lambda: list(zip(*batch.columns))),
                ("boundary.pack", "row",
                 lambda: ColumnarChannel.from_rows(rows, "java")),
            )
            for stage, mode, fn in cases:
                fn()  # warm-up
                started = time.perf_counter()
                result = fn()
                wall_ms = (time.perf_counter() - started) * 1000.0
                del result
                profile.samples.setdefault((stage, mode), []).append(
                    wall_ms / max(size, 1)
                )
        return profile

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
