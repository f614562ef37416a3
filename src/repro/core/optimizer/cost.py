"""Pluggable cost models.

Two model families, both expressed in *virtual milliseconds*:

* :class:`PlatformCostModel` — how long a platform takes to run one
  physical operator over given cardinalities, plus the platform's fixed
  overheads (start-up, per-operator scheduling, loop synchronisation).
  Each simulated platform ships its own calibrated subclass.
* :class:`MovementCostModel` — the paper's *inter-platform cost model*
  (§4.2, third aspect): the cost of moving data quanta between two
  platforms (serialise, transfer, deserialise).

The same models serve double duty, exactly once each way:

* the **optimizer** evaluates them with *estimated* cardinalities to pick
  variants, platforms and atom cuts;
* the **executor** evaluates them with *observed* cardinalities to charge
  virtual time, which is what benchmarks report.

This mirrors how the paper separates plan-time estimation from the
monitoring the Executor performs, and it is the documented substitution
for the cluster hardware we do not have (see DESIGN.md §2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass


@dataclass(frozen=True)
class OperatorCostInput:
    """Everything a platform model may use to price one operator run."""

    kind: str
    input_cards: tuple[float, ...]
    output_card: float
    udf_load: float = 1.0


class PlatformCostModel(ABC):
    """Virtual-time model of one processing platform."""

    #: name of the platform this model prices (set by subclasses).
    platform_name: str = "abstract"

    @abstractmethod
    def startup_ms(self) -> float:
        """One-off cost of involving this platform in an execution.

        For the simulated Spark platform this is the job/application
        start-up (driver + executor scheduling); for the in-process
        platform it is ~0.  Charged once per execution per platform.
        """

    @abstractmethod
    def operator_ms(self, cost_input: OperatorCostInput) -> float:
        """Data-dependent cost of one operator run, including any
        per-operator scheduling overhead and shuffle the platform incurs
        for that operator kind."""

    def udf_work_ms(self, total_units: float, peak_task_units: float) -> float:
        """Virtual time for work UDFs reported at run time.

        ``total_units`` is the work summed over all tasks of the operator
        run; ``peak_task_units`` the largest single task's share (equal to
        the total on single-task platforms).  Parallel platforms are
        bounded below by the straggler task, which is how skew — e.g. one
        task enumerating all candidate pairs — shows up in virtual time.
        """
        return 0.001 * total_units

    def loop_iteration_ms(self) -> float:
        """Per-iteration driver/synchronisation overhead for loops.

        Iterative algorithms require a control decision per iteration; on
        a distributed platform that is a driver round-trip.  Defaults to
        zero for in-process engines.
        """
        return 0.0

    def cached_read_ms(self, card: float) -> float:
        """Cost of re-reading a dataset this platform has already cached
        in memory (used for loop-invariant sources)."""
        return 0.0001 * card

    def ingest_ms(self, card: float) -> float:
        """Cost of converting an in-memory collection into the platform's
        native representation (charged at atom boundaries)."""
        return 0.0005 * card

    def egest_ms(self, card: float) -> float:
        """Cost of materialising a native dataset back into an in-memory
        collection (charged at atom boundaries)."""
        return 0.0005 * card

    def columnar_ingest_ms(self, card: float) -> float:
        """Cost of packing a row collection into columnar array buffers.

        Charged when the producer side of a channel opts into the
        columnar layout — explicit work, priced like any movement.
        Packing type-checks and copies every value once.
        """
        return 0.0004 * card

    def columnar_egest_ms(self, card: float) -> float:
        """Cost of unpacking columnar buffers back into rows.

        Charged when a consumer pulls a columnar channel; cheaper than
        ingest (a single zip pass, no type checks).
        """
        return 0.0002 * card


class MovementCostModel:
    """Inter-platform data movement cost.

    The default prices a movement as: egest from the producer platform,
    a per-transfer latency, a per-quantum wire cost, then ingest into the
    consumer platform.  Subclass to model co-located platforms (e.g. both
    reading the same HDFS) more cheaply.
    """

    def __init__(
        self,
        per_transfer_ms: float = 2.0,
        per_quantum_ms: float = 0.002,
    ):
        self.per_transfer_ms = per_transfer_ms
        self.per_quantum_ms = per_quantum_ms

    def transfer_ms(
        self,
        producer_model: PlatformCostModel,
        consumer_model: PlatformCostModel,
        card: float,
    ) -> float:
        """Virtual cost of moving ``card`` quanta between two platforms."""
        if producer_model is consumer_model:
            return 0.0
        return (
            producer_model.egest_ms(card)
            + self.per_transfer_ms
            + self.per_quantum_ms * card
            + consumer_model.ingest_ms(card)
        )


class FreeMovementCostModel(MovementCostModel):
    """A movement model that prices all transfers at zero.

    Exists for the ABL3 ablation: it reproduces the behaviour of systems
    (the paper cites Musketeer) that pick per-operator platforms without
    accounting for cross-platform data movement.
    """

    def transfer_ms(
        self,
        producer_model: PlatformCostModel,
        consumer_model: PlatformCostModel,
        card: float,
    ) -> float:
        return 0.0
