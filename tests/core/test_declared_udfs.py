"""Declared UDFs and record fields on the row path.

The declared UDF types (``ColumnPredicate``, ``ColumnwiseReduce``) and
the introspection that recognises them are independent of the columnar
representation; so is ``Record`` field access.  These tests pin the row
path's contract without building a ``ColumnarBatch``:

* ``ColumnwiseReduce`` compiles its pairwise combine once; the compiled
  combine equals the per-column generator it replaced (kept below as
  the oracle), bit for bit, and a singleton group keeps its quantum;
* ``batch_filter`` runs a declared single-column predicate as one mask
  pass and equals ``list(filter(p, data))``, including the row at
  which a raising predicate stops;
* ``Record[...]`` resolves a name in one dict lookup and otherwise
  behaves exactly as the int and name paths it replaced;
* ``Schema.project`` is memoised per field tuple and the memo is never
  pickled: schemas and records pickle to the same bytes as before and
  older pickles still load and resolve names.
"""

from __future__ import annotations

import copyreg
import pickle
from functools import reduce
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.cleaning import DCRule, FDRule, Predicate
from repro.core.physical import kernels
from repro.core.physical.columnar import (
    ColumnPredicate,
    ColumnwiseReduce,
    key_column,
    predicate_spec,
    projection_indices,
)
from repro.core.physical.compiled import batch_filter, drain_kernel_note
from repro.core.types import Record, Schema
from repro.errors import ValidationError

RULES = ("key", "sum", "min", "max")

_ORACLE_OPS = {"sum": lambda a, b: a + b, "min": min, "max": max}


def oracle_combine(spec, a, b):
    """The per-call generator ``ColumnwiseReduce.__call__`` used to run."""
    return tuple(
        a[j] if rule == "key" else _ORACLE_OPS[rule](a[j], b[j])
        for j, rule in enumerate(spec)
    )


def same(x, y):
    """Bit-identical for our values: type, NaN, signed zero and all."""
    return repr(x) == repr(y)


# ----------------------------------------------------------------------
# eligibility introspection
# ----------------------------------------------------------------------
class TestIntrospection:
    def test_itemgetter_projection_indices(self):
        assert projection_indices(itemgetter(2)) == (2,)
        assert projection_indices(itemgetter(3, 1, 0)) == (3, 1, 0)
        assert projection_indices(itemgetter(-1, 0)) == (-1, 0)

    def test_non_projections_are_rejected(self):
        assert projection_indices(lambda t: t[0]) is None
        assert projection_indices(itemgetter("a")) is None
        assert projection_indices(itemgetter(0, "a")) is None

    def test_predicate_spec_variants(self):
        fn = (3).__lt__
        assert predicate_spec(ColumnPredicate(2, fn)) == (2, fn)
        # a bare itemgetter used as predicate means column truthiness
        assert predicate_spec(itemgetter(1)) == (1, None)
        assert predicate_spec(itemgetter(0, 1)) is None
        assert predicate_spec(lambda t: t[0] > 3) is None

    def test_key_column(self):
        assert key_column(itemgetter(0)) == 0
        assert key_column(itemgetter(1, 0)) is None
        assert key_column(lambda t: t[0]) is None

    def test_column_predicate_row_semantics(self):
        predicate = ColumnPredicate(1, (2.0).__gt__)  # 2.0 > value
        assert predicate((9, 1.5)) is True
        assert predicate((9, 3.5)) is False

    def test_columnwise_reduce_row_semantics(self):
        reducer = ColumnwiseReduce(("key", "sum", "min", "max"))
        assert reducer((1, 10, 5, 5), (9, 3, 2, 7)) == (1, 13, 2, 7)

    def test_columnwise_reduce_rejects_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown columnwise combine"):
            ColumnwiseReduce(("key", "mean"))


# ----------------------------------------------------------------------
# the compiled combine
# ----------------------------------------------------------------------
values = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def reduce_cases(draw):
    """``(spec, rows)``: rows at least as wide as the spec, as tuples or lists."""
    spec = tuple(draw(st.lists(st.sampled_from(RULES), max_size=5)))
    width = len(spec) + draw(st.integers(min_value=0, max_value=2))
    row = st.lists(values, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    if draw(st.booleans()):
        rows = [tuple(r) for r in rows]
    return spec, rows


class TestCompiledCombine:
    def test_spec_compiles_to_one_flat_function(self):
        reducer = ColumnwiseReduce(("key", "sum"))
        assert reducer.combine.__code__.co_filename == "ColumnwiseReduce(('key', 'sum'))"
        assert reducer.combine((1, 2, 99), (5, 3, 99)) == (1, 5)
        assert ColumnwiseReduce(("max",)).combine((1,), (4,)) == (4,)
        assert ColumnwiseReduce(()).combine((1,), (2,)) == ()

    @settings(max_examples=200, deadline=None)
    @given(reduce_cases())
    def test_pairwise_equals_the_generator(self, case):
        spec, rows = case
        reducer = ColumnwiseReduce(spec)
        for a, b in zip(rows, rows[1:]):
            assert same(reducer(a, b), oracle_combine(spec, a, b))
            assert same(reducer.combine(a, b), oracle_combine(spec, a, b))

    @settings(max_examples=200, deadline=None)
    @given(reduce_cases())
    def test_folds_equal_the_generator(self, case):
        spec, rows = case
        reducer = ColumnwiseReduce(spec)
        oracle = lambda a, b: oracle_combine(spec, a, b)  # noqa: E731
        expected = reduce(oracle, rows)
        assert same(kernels.global_reduce(rows, reducer), [expected])
        assert same(kernels.global_reduce(iter(rows), reducer), [expected])
        if spec:
            key = itemgetter(spec.index("key")) if "key" in spec else itemgetter(0)
            groups: dict = {}
            for row in rows:
                groups[key(row)] = (
                    oracle(groups[key(row)], row) if key(row) in groups else row
                )
            assert same(
                kernels.hash_reduce_by(rows, key, reducer), list(groups.values())
            )

    def test_singleton_group_keeps_its_quantum(self):
        reducer = ColumnwiseReduce(("key", "sum"))
        rows = [(1, 2, "wide"), [2, 3], (1, 4, "wide")]
        out = kernels.hash_reduce_by(rows, itemgetter(0), reducer)
        assert out == [(1, 6), [2, 3]]
        assert out[1] is rows[1]
        single = [(7, 8)]
        assert kernels.global_reduce(single, reducer)[0] is single[0]

    def test_combine_errors_surface_unchanged(self):
        reducer = ColumnwiseReduce(("key", "sum"))
        with pytest.raises(TypeError):
            reducer((1, "a"), (1, 2))
        with pytest.raises(IndexError):
            kernels.hash_reduce_by([(1, 2), (1,)], itemgetter(0), reducer)

    def test_pickles_by_spec(self):
        reducer = ColumnwiseReduce(("key", "min"))
        clone = pickle.loads(pickle.dumps(reducer))
        assert clone.spec == reducer.spec
        assert clone((1, 5), (1, 3)) == (1, 3)


# ----------------------------------------------------------------------
# batch_filter's mask pass
# ----------------------------------------------------------------------
falsy_or_not = st.sampled_from([0, 0.0, "", None, 1, -2.5, "x", (), (0,)])
rows_3 = st.lists(st.tuples(falsy_or_not, falsy_or_not, falsy_or_not), max_size=30)
column_fns = [bool, lambda v: v is None, lambda v: not v, str, repr]


def declared_predicates():
    return st.one_of(
        st.builds(
            ColumnPredicate, st.integers(min_value=-3, max_value=2),
            st.sampled_from(column_fns),
        ),
        st.integers(min_value=-3, max_value=2).map(itemgetter),
    )


class TestBatchFilter:
    @settings(max_examples=200, deadline=None)
    @given(rows_3, declared_predicates(), st.booleans())
    def test_equals_filter(self, rows, predicate, as_generator):
        expected = list(filter(predicate, rows))
        data = iter(rows) if as_generator else rows
        assert batch_filter(predicate, data) == expected
        assert drain_kernel_note() == "filter.batch"

    def test_keeps_the_row_objects(self):
        rows = [(1, "a"), (0, "b"), (2, "c")]
        out = batch_filter(ColumnPredicate(0, bool), rows)
        assert out == [rows[0], rows[2]]
        assert out[0] is rows[0]

    def test_records_and_undeclared_predicates(self):
        schema = Schema(["a", "b"])
        records = [schema.record(i, -i) for i in range(6)]
        assert batch_filter(ColumnPredicate(0, (2).__lt__), records) == records[3:]
        assert batch_filter(lambda r: r["b"] > -2, records) == records[:2]

    @pytest.mark.parametrize("as_generator", [False, True])
    def test_raises_at_the_same_row(self, as_generator):
        rows = [(1,), (5,), (9,), (5,), (2,)]

        def run(apply):
            seen = []

            def fn(value):
                seen.append(value)
                if value == 9:
                    raise ValueError(f"bad {value}")
                return value > 1

            with pytest.raises(ValueError, match="bad 9"):
                apply(ColumnPredicate(0, fn))
            return seen

        data = (lambda: iter(rows)) if as_generator else (lambda: rows)
        expected = run(lambda p: list(filter(p, data())))
        assert run(lambda p: batch_filter(p, data())) == expected == [1, 5, 9]

    def test_short_row_raises_like_the_wrapper(self):
        rows = [(1, 2), (3,)]
        predicate = ColumnPredicate(1, bool)
        with pytest.raises(IndexError) as expected:
            list(filter(predicate, rows))
        with pytest.raises(IndexError) as got:
            batch_filter(predicate, rows)
        assert str(got.value) == str(expected.value)


# ----------------------------------------------------------------------
# record fields
# ----------------------------------------------------------------------
SCHEMA = Schema(["well", "depth", "pressure"])
RECORD = SCHEMA.record(3, 12.5, 101.0)


def old_getitem(record, field):
    """``Record.__getitem__`` before names resolved in one lookup."""
    if isinstance(field, int):
        return record.values[field]
    return record.values[record.schema.index_of(field)]


def outcome(fn, field):
    try:
        return ("value", fn(RECORD, field))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))


class TestRecordFields:
    @pytest.mark.parametrize(
        "field",
        ["well", "pressure", 0, 2, -1, -3, True, False, slice(0, 2),
         "nope", 3, -4, 10**20],
    )
    def test_matches_the_int_and_name_paths(self, field):
        assert outcome(Record.__getitem__, field) == outcome(old_getitem, field)

    def test_errors(self):
        with pytest.raises(ValidationError, match="unknown field 'nope'"):
            RECORD["nope"]
        with pytest.raises(IndexError):
            RECORD[3]
        with pytest.raises(IndexError):
            RECORD[-4]

    def test_values(self):
        assert RECORD["depth"] == RECORD[1] == RECORD[-2] == 12.5
        assert RECORD[True] == 12.5

    def test_ints_are_positions_even_with_int_field_names(self):
        record = Schema([1, 0]).record("first", "second")
        assert record[1] == "second"
        assert record[0] == "first"
        assert record[True] == "second"  # bool is a position, not name 1
        assert record[False] == "first"


# ----------------------------------------------------------------------
# projections
# ----------------------------------------------------------------------
class TestProjection:
    def test_schema_project_is_memoised_per_field_tuple(self):
        schema = Schema(["a", "b", "c"])
        first = schema.project(["c", "a"])
        assert first == Schema(["c", "a"])
        assert schema.project(("c", "a")) is first
        assert schema.project(["a"]) is not first

    def test_record_project_reads_bound_positions(self):
        record = Schema(["a", "b", "c"]).record(1, 2, 3)
        projected = record.project(["c", "a"])
        assert projected.values == (3, 1)
        assert projected.schema.fields == ("c", "a")
        assert projected["a"] == 1

    def test_errors_keep_their_precedence(self):
        schema = Schema(["a", "b"])
        with pytest.raises(ValidationError, match="unknown field"):
            schema.project(["zz", "zz"])
        with pytest.raises(ValidationError, match="duplicate"):
            schema.project(["a", "a"])
        with pytest.raises(ValidationError):
            schema.project([])
        assert schema.project(["b"]).fields == ("b",)

    def test_rule_scopes_bind_their_fields_once(self):
        schema = Schema(["zip", "city", "state", "salary", "tax"])
        item = (4, schema.record("10001", "NYC", "NY", 100, 7))
        fd = FDRule("fd", lhs=["zip"], rhs=["city"])
        dc = DCRule("dc", [
            Predicate("state", "==", "state"),
            Predicate("salary", ">", "salary"),
            Predicate("tax", "<", "tax"),
        ])
        tid, scoped = fd.scope(item)
        assert (tid, scoped.schema.fields, scoped.values) == (4, ("zip", "city"), ("10001", "NYC"))
        assert fd.scope(item)[1].schema is scoped.schema
        _, scoped = dc.scope(item)
        assert scoped.schema.fields == ("state", "salary", "tax")
        assert scoped.values == ("NY", 100, 7)


# ----------------------------------------------------------------------
# pickles
# ----------------------------------------------------------------------
#: ``pickle.dumps([RECORD, SCHEMA.record(7, 0.0, 99.5)], protocol=4)`` as
#: written before the lookup table and projection memo existed
OLD_BLOB = (
    b"\x80\x04\x95\xd6\x00\x00\x00\x00\x00\x00\x00]\x94(\x8c\x10repro.core.types"
    b"\x94\x8c\x06Record\x94\x93\x94)\x81\x94N}\x94(\x8c\x06schema\x94h\x01\x8c"
    b"\x06Schema\x94\x93\x94)\x81\x94N}\x94(\x8c\x07_fields\x94\x8c\x04well\x94"
    b"\x8c\x05depth\x94\x8c\x08pressure\x94\x87\x94\x8c\x06_index\x94}\x94(h\x0c"
    b"K\x00h\rK\x01h\x0eK\x02uu\x86\x94b\x8c\x06values\x94K\x03G@)\x00\x00\x00"
    b"\x00\x00\x00G@Y@\x00\x00\x00\x00\x00\x87\x94u\x86\x94bh\x03)\x81\x94N}\x94("
    b"h\x06h\th\x13K\x07G\x00\x00\x00\x00\x00\x00\x00\x00G@X\xe0\x00\x00\x00\x00"
    b"\x00\x87\x94u\x86\x94be."
)


class _OldSchema:
    """Pickles as a ``Schema`` with only the two defining slots as state."""

    def __init__(self, fields):
        self.fields = tuple(fields)

    def __reduce_ex__(self, protocol):
        index = {name: i for i, name in enumerate(self.fields)}
        return (
            copyreg._reconstructor, (Schema, object, None),
            (None, {"_fields": self.fields, "_index": index}),
        )


class TestPickles:
    def test_older_blob_loads_and_resolves_names(self):
        first, second = pickle.loads(OLD_BLOB)
        assert first == RECORD and first["pressure"] == 101.0
        assert second["well"] == 7 and second[-1] == 99.5
        assert first.schema is second.schema
        assert first.project(["pressure", "well"]).values == (101.0, 3)
        with pytest.raises(ValidationError):
            first["nope"]

    def test_new_pickles_are_byte_identical_to_older_ones(self):
        rows = [RECORD, SCHEMA.record(7, 0.0, 99.5)]
        RECORD.project(["well"])  # fill the memo: it must not be pickled
        assert pickle.dumps(rows, protocol=4) == OLD_BLOB

    # protocols 0 and 1 never pickled a slotted Record
    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_slot_state_built_through_copyreg(self, protocol):
        schema = pickle.loads(
            pickle.dumps(_OldSchema(["a", "b"]), protocol=protocol)
        )
        assert type(schema) is Schema and schema == Schema(["a", "b"])
        record = pickle.loads(
            pickle.dumps(Record(schema, (1, 2)), protocol=protocol)
        )
        assert record["b"] == 2 and record[0] == 1
        assert record.project(["b"]).values == (2,)
