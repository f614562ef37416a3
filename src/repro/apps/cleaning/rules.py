"""The BigDansing rule API: Scope / Block / Iterate / Detect / GenFix.

"BIGDANSING models data quality rules with five operators, namely Scope,
Block, Iterate, Detect, and GenFix.  These operators allow users to
capture the semantics of error detection and possible repairs generation
at the application layer" (paper §5.1).

A :class:`Rule` supplies the five UDFs; :class:`FDRule` and
:class:`DCRule` generate them from declarative specifications (functional
dependencies and denial constraints), and :class:`UDFRule` accepts raw
callables for everything else.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.apps.cleaning.violations import Cell, Fix, Violation
from repro.core.types import Record
from repro.errors import RuleError

#: a tuple with its id: the unit flowing through the detection pipeline
TupleWithId = tuple[int, Record]

_OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


@dataclass(frozen=True)
class Predicate:
    """One comparison of a denial constraint: ``t1.left op t2.right``."""

    left_field: str
    op: str
    right_field: str

    def __post_init__(self) -> None:
        if self.op not in _OPERATORS:
            raise RuleError(
                f"unknown operator {self.op!r}; supported: {sorted(_OPERATORS)}"
            )

    def holds(self, t1: Record, t2: Record) -> bool:
        return _OPERATORS[self.op](t1[self.left_field], t2[self.right_field])

    @property
    def is_equality(self) -> bool:
        return self.op == "=="

    @property
    def is_inequality(self) -> bool:
        return self.op in ("<", "<=", ">", ">=")

    def __str__(self) -> str:
        return f"t1.{self.left_field} {self.op} t2.{self.right_field}"


class Rule:
    """Base class: the five logical operators of a data quality rule."""

    rule_id: str = "rule"
    #: single-tuple rules are detected per tuple (no Block/Iterate pass)
    single_tuple: bool = False

    # -- Scope ---------------------------------------------------------
    def scope(self, item: TupleWithId) -> TupleWithId | None:
        """Project away attributes irrelevant to the rule.

        Returning None drops the tuple entirely (it cannot participate in
        any violation).  Default: keep everything.
        """
        return item

    # -- Block ---------------------------------------------------------
    def block(self, item: TupleWithId) -> Any:
        """The blocking key: only tuples sharing a key can co-violate.

        Default: a single global block (no pruning).
        """
        return 0

    # -- Iterate -------------------------------------------------------
    def iterate(
        self, block: Sequence[TupleWithId]
    ) -> Iterator[tuple[TupleWithId, TupleWithId]]:
        """Enumerate candidate tuple combinations within a block.

        Default: all ordered pairs of distinct tuples.
        """
        for i, first in enumerate(block):
            for j, second in enumerate(block):
                if i != j:
                    yield (first, second)

    # -- Detect --------------------------------------------------------
    def detect(
        self, candidate: tuple[TupleWithId, TupleWithId]
    ) -> list[Violation]:
        """Emit the violations a candidate pair exhibits."""
        raise NotImplementedError

    def detect_single(self, item: TupleWithId) -> list[Violation]:
        """Emit the violations of one tuple (single-tuple rules only)."""
        raise NotImplementedError

    def full_detect(
        self, candidate: tuple[TupleWithId, TupleWithId]
    ) -> list[Violation]:
        """Detect with the *complete* rule condition on an arbitrary pair.

        ``detect`` may assume its candidates share a blocking key (they
        came from ``Iterate`` over a ``Block``); monolithic baselines that
        skip blocking must re-check that condition here.
        """
        if self.block(candidate[0]) != self.block(candidate[1]):
            return []
        return self.detect(candidate)

    # -- GenFix --------------------------------------------------------
    def gen_fix(self, violation: Violation) -> list[Fix]:
        """Suggest candidate repairs for a violation.  Default: none."""
        return []

    # -- optimizer context ----------------------------------------------
    @property
    def block_fanout(self) -> float:
        """Estimated distinct-block fraction (hint for the optimizer)."""
        return 0.05

    def describe(self) -> str:
        return f"{type(self).__name__}({self.rule_id})"


class FDRule(Rule):
    """Functional dependency ``lhs -> rhs``.

    Two tuples agreeing on every ``lhs`` attribute must agree on every
    ``rhs`` attribute; disagreement yields one violation per ``rhs``
    attribute, with equate-fixes on the right-hand cells.
    """

    def __init__(self, rule_id: str, lhs: Sequence[str], rhs: Sequence[str]):
        if not lhs or not rhs:
            raise RuleError("an FD needs non-empty lhs and rhs")
        if set(lhs) & set(rhs):
            raise RuleError(f"lhs and rhs overlap: {set(lhs) & set(rhs)}")
        self.rule_id = rule_id
        self.lhs = tuple(lhs)
        self.rhs = tuple(rhs)
        self._scope_fields = self.lhs + self.rhs

    def scope(self, item: TupleWithId) -> TupleWithId:
        tid, record = item
        return (tid, record.project(self._scope_fields))

    def block(self, item: TupleWithId) -> Any:
        _, record = item
        return tuple(record[field] for field in self.lhs)

    def iterate(self, block: Sequence[TupleWithId]):
        """Unordered pairs suffice: FD violations are symmetric."""
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                yield (block[i], block[j])

    def detect(self, candidate) -> list[Violation]:
        (tid1, t1), (tid2, t2) = candidate
        violations = []
        for field in self.rhs:
            if t1[field] != t2[field]:
                violations.append(
                    Violation(
                        self.rule_id,
                        (
                            Cell(tid1, field, t1[field]),
                            Cell(tid2, field, t2[field]),
                        ),
                    )
                )
        return violations

    def gen_fix(self, violation: Violation) -> list[Fix]:
        first, second = violation.cells
        return [Fix(first, second)]

    def describe(self) -> str:
        return f"FD[{self.rule_id}]: {','.join(self.lhs)} -> {','.join(self.rhs)}"


class DCRule(Rule):
    """Denial constraint: no tuple pair may satisfy all predicates.

    Equality predicates over the same field become the blocking key;
    inequality predicates are evaluated inside blocks — and when exactly
    two inequality predicates remain, the detection pipeline can use the
    ``IEJoin`` physical operator (paper §5, [20]).
    """

    def __init__(self, rule_id: str, predicates: Sequence[Predicate]):
        if not predicates:
            raise RuleError("a DC needs at least one predicate")
        self.rule_id = rule_id
        self.predicates = tuple(predicates)
        self.equalities = tuple(
            p for p in self.predicates
            if p.is_equality and p.left_field == p.right_field
        )
        self.residual = tuple(
            p for p in self.predicates if p not in self.equalities
        )
        self._scope_fields = tuple(dict.fromkeys(  # first-mention order
            f for p in self.predicates for f in (p.left_field, p.right_field)))

    @property
    def inequality_pair(self) -> tuple[Predicate, Predicate] | None:
        """The two inequality predicates when IEJoin applies, else None."""
        if len(self.residual) == 2 and all(p.is_inequality for p in self.residual):
            return (self.residual[0], self.residual[1])
        return None

    def scope(self, item: TupleWithId) -> TupleWithId:
        tid, record = item
        return (tid, record.project(self._scope_fields))

    def block(self, item: TupleWithId) -> Any:
        _, record = item
        return tuple(record[p.left_field] for p in self.equalities)

    def detect(self, candidate) -> list[Violation]:
        (tid1, t1), (tid2, t2) = candidate
        if all(p.holds(t1, t2) for p in self.residual):
            cells = []
            seen = set()
            for predicate in self.residual:
                for tid, record, field in (
                    (tid1, t1, predicate.left_field),
                    (tid2, t2, predicate.right_field),
                ):
                    if (tid, field) not in seen:
                        seen.add((tid, field))
                        cells.append(Cell(tid, field, record[field]))
            return [Violation(self.rule_id, tuple(cells))]
        return []

    def gen_fix(self, violation: Violation) -> list[Fix]:
        """Breaking any one predicate repairs the pair; suggest equating
        the first inequality's cells (a common minimal heuristic)."""
        if len(violation.cells) >= 2:
            return [Fix(violation.cells[0], violation.cells[1])]
        return []

    @property
    def block_fanout(self) -> float:
        return 0.02 if self.equalities else 1.0

    def describe(self) -> str:
        preds = " and ".join(str(p) for p in self.predicates)
        return f"DC[{self.rule_id}]: not({preds})"


class UniqueRule(Rule):
    """Key constraint: no two tuples may agree on every key field.

    Violations carry the key cells of both tuples; no automatic fix is
    suggested (which duplicate to change is an application decision).
    """

    def __init__(self, rule_id: str, fields: Sequence[str]):
        if not fields:
            raise RuleError("a uniqueness rule needs at least one field")
        self.rule_id = rule_id
        self.fields = tuple(fields)

    def scope(self, item: TupleWithId) -> TupleWithId:
        tid, record = item
        return (tid, record.project(self.fields))

    def block(self, item: TupleWithId) -> Any:
        _, record = item
        return tuple(record[field] for field in self.fields)

    def iterate(self, block: Sequence[TupleWithId]):
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                yield (block[i], block[j])

    def detect(self, candidate) -> list[Violation]:
        (tid1, t1), (tid2, t2) = candidate
        if all(t1[f] == t2[f] for f in self.fields):
            cells = tuple(
                Cell(tid, f, record[f])
                for tid, record in ((tid1, t1), (tid2, t2))
                for f in self.fields
            )
            return [Violation(self.rule_id, cells)]
        return []

    @property
    def block_fanout(self) -> float:
        # keys are near-unique by definition; blocks are tiny
        return 0.9

    def describe(self) -> str:
        return f"UNIQUE[{self.rule_id}]: ({', '.join(self.fields)})"


class NullRule(Rule):
    """Single-tuple completeness rule: listed fields must not be null.

    ``null_values`` defines what counts as missing; an optional
    ``default`` per field turns GenFix into an assignment.
    """

    single_tuple = True

    def __init__(
        self,
        rule_id: str,
        fields: Sequence[str],
        null_values: Sequence[Any] = (None, ""),
        defaults: dict[str, Any] | None = None,
    ):
        if not fields:
            raise RuleError("a null rule needs at least one field")
        self.rule_id = rule_id
        self.fields = tuple(fields)
        self.null_values = tuple(null_values)
        self.defaults = dict(defaults or {})

    def scope(self, item: TupleWithId) -> TupleWithId:
        tid, record = item
        return (tid, record.project(self.fields))

    def detect_single(self, item: TupleWithId) -> list[Violation]:
        tid, record = item
        violations = []
        for field in self.fields:
            if record[field] in self.null_values:
                violations.append(
                    Violation(self.rule_id, (Cell(tid, field, record[field]),))
                )
        return violations

    def detect(self, candidate) -> list[Violation]:
        raise RuleError("NullRule is a single-tuple rule; use detect_single")

    def gen_fix(self, violation: Violation) -> list[Fix]:
        (cell,) = violation.cells
        if cell.field in self.defaults:
            return [Fix(cell, value=self.defaults[cell.field])]
        return []

    def describe(self) -> str:
        return f"NOTNULL[{self.rule_id}]: ({', '.join(self.fields)})"


class UDFRule(Rule):
    """A rule assembled from raw callables (the fully general case)."""

    def __init__(
        self,
        rule_id: str,
        detect: Callable[[tuple[TupleWithId, TupleWithId]], list[Violation]],
        scope: Callable[[TupleWithId], TupleWithId | None] | None = None,
        block: Callable[[TupleWithId], Any] | None = None,
        iterate: Callable[[Sequence[TupleWithId]], Iterable] | None = None,
        gen_fix: Callable[[Violation], list[Fix]] | None = None,
    ):
        self.rule_id = rule_id
        self._detect = detect
        self._scope = scope
        self._block = block
        self._iterate = iterate
        self._gen_fix = gen_fix

    def scope(self, item: TupleWithId):
        return self._scope(item) if self._scope else item

    def block(self, item: TupleWithId):
        return self._block(item) if self._block else 0

    def iterate(self, block: Sequence[TupleWithId]):
        if self._iterate:
            return iter(self._iterate(block))
        return super().iterate(block)

    def detect(self, candidate) -> list[Violation]:
        return self._detect(candidate)

    def gen_fix(self, violation: Violation) -> list[Fix]:
        return self._gen_fix(violation) if self._gen_fix else []
