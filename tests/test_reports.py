import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgverify import InequalityReport, RatioReport, Uncertain, canonical_json, make_report
from sgverify.reports import reports_to_csv, to_jsonable

F = Fraction


def test_rational_mode_requires_exact_nonnegative_slack():
    rep = make_report("demo", {}, F(1, 3), F(1, 2))
    assert rep.engine["arithmetic"] == "rational"
    assert rep.slack == F(1, 6) and rep.holds
    rep = make_report("demo", {}, F(1, 2), F(1, 2) - F(1, 10**15))
    assert not rep.holds  # any negative rational slack fails, however small


def test_float_mode_tolerance():
    rep = make_report("demo", {}, 1.0, 1.0 - 1e-13)
    assert rep.engine["arithmetic"] == "float"
    assert rep.holds
    rep = make_report("demo", {}, 1.0, 1.0 - 1e-9)
    assert not rep.holds


def test_degenerate_reports_hold_with_infinite_rhs():
    rep = make_report("demo", {}, F(1), math.inf, degenerate="no mass")
    assert rep.holds and rep.degenerate == "no mass"
    assert rep.slack == math.inf


def test_mc_mode_z_score():
    lhs = Uncertain(0.5, 0.0001)
    rhs = Uncertain(0.52, 0.0001)
    rep = make_report("demo", {}, lhs, rhs, engine={"kind": "mc", "trials": 10})
    assert rep.engine["arithmetic"] == "mc"
    assert rep.engine["z"] == rep.slack / rep.engine["se"]
    assert rep.holds
    bad = make_report("demo", {}, Uncertain(0.9, 1e-8), Uncertain(0.1, 1e-8))
    assert not bad.holds


def test_uncertain_arithmetic():
    x = Uncertain(2.0, 0.04)
    y = Uncertain(3.0, 0.09)
    assert (x + y).value == 5.0
    assert (x + y).var == 0.13
    assert (x * y).value == 6.0
    assert (x * y).var == 9 * 0.04 + 4 * 0.09
    assert (x**2).value == 4.0
    assert (x**2).var == 16 * 0.04
    assert (x / 2).value == 1.0
    ratio = x / y
    assert ratio.value == 2.0 / 3.0
    assert (1 - x).value == -1.0


def test_jsonable_fractions_and_infinities():
    blob = to_jsonable({"a": F(1, 3), "b": math.inf, "c": (1, F(2))})
    assert blob == {"a": "1/3", "b": "inf", "c": [1, "2"]}


def test_report_json_forms_leave_out_empty_optional_fields():
    assert make_report("x", {"t": F(1, 2)}, F(1, 3), F(1, 2)).to_jsonable() == {
        "name": "x",
        "params": {"t": "1/2"},
        "lhs": "1/3",
        "rhs": "1/2",
        "slack": "1/6",
        "holds": True,
        "engine": {"kind": "exact", "arithmetic": "rational"},
    }
    full = make_report("y", {}, 1.0, math.inf, degenerate="d", components={"c": F(1)}, note="n")
    assert full.to_jsonable() == {
        "name": "y",
        "params": {},
        "lhs": 1.0,
        "rhs": "inf",
        "slack": "inf",
        "holds": True,
        "engine": {"kind": "exact", "arithmetic": "degenerate"},
        "degenerate": "d",
        "components": {"c": "1"},
        "note": "n",
    }
    ratio = RatioReport("r", {}, 0.5)
    assert ratio.to_jsonable() == {"name": "r", "params": {}, "ratio": 0.5, "components": {}}


def test_canonical_json_deterministic():
    payload = {"b": F(1, 2), "a": [3, 2.5]}
    assert canonical_json(payload) == canonical_json(payload)
    parsed = json.loads(canonical_json(payload))
    assert parsed == {"a": [3, 2.5], "b": "1/2"}


def test_csv_export_includes_every_column():
    reports = [
        make_report("one", {"t": F(1, 2)}, F(0), F(1)),
        make_report("two", {}, 1.0, 2.0),
    ]
    text = reports_to_csv(reports)
    lines = text.strip().splitlines()
    assert lines[0].startswith("name,params,lhs,rhs,slack,holds")
    assert len(lines) == 3


def test_csv_rows_are_written_as_they_come():
    out = io.StringIO()
    reports = [make_report("one", {"t": F(1, 2)}, F(0), F(1)), make_report("two", {}, 1.0, 2.0)]

    def one_by_one():
        yield reports[0]
        assert out.getvalue().count("\n") == 2  # the header and the first row
        yield reports[1]

    assert reports_to_csv(one_by_one(), out) is None
    assert out.getvalue() == reports_to_csv(reports)


def test_csv_header_of_mixed_report_kinds():
    mixed = [make_report("one", {}, 1.0, 2.0), RatioReport("r", {}, 0.5)]
    # a list is read twice, so its header has every key of its rows
    lines = reports_to_csv(mixed).splitlines()
    assert lines[0] == "name,params,lhs,rhs,slack,holds,degenerate,engine,ratio"
    assert lines[2] == "r,{},,,,,,,0.5"
    # a stream is read once: its header is the first row's, and a row with
    # a key outside it is refused rather than written without that column
    with pytest.raises(ValueError, match="ratio"):
        reports_to_csv(iter(mixed), io.StringIO())


class FloatSub(float):
    pass


class IntSub(int):
    pass


class Opaque:
    """Written by its repr, as to_jsonable writes what it does not know."""

    def __repr__(self):
        return "Opaque(\u00e9)"


class RawPayload:
    """A `to_jsonable()` whose value json.dumps writes by its own rules:
    raw non-finite floats, non-str keys."""

    def __init__(self, payload):
        self.payload = payload

    def to_jsonable(self):
        return self.payload


def json_dumps_of_to_jsonable(x) -> str:
    return json.dumps(to_jsonable(x), sort_keys=True, indent=2) + "\n"


floats = st.floats(allow_nan=True, allow_infinity=True)
texts = st.text() | st.sampled_from(['"', "\\", "\n", "\x00", "\u2028", "\ud800", "\u00e9", "\u2603"])
numbers = st.integers() | st.fractions() | floats
# what json.dumps writes as it is, keys of one sortable kind per object
raw = st.recursive(
    st.none() | st.booleans() | st.integers() | floats | texts,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(texts, inner, max_size=3)
    | st.dictionaries(st.integers() | floats | st.booleans(), inner, max_size=3),
    max_leaves=8,
)
leaves = (
    st.none() | st.booleans() | numbers | texts
    | floats.map(FloatSub) | floats.map(np.float64) | st.integers().map(IntSub)
    | st.builds(Uncertain, floats, floats)
    | st.frozensets(st.integers(), max_size=3) | st.frozensets(texts, max_size=3)
    | st.frozensets(st.fractions(), max_size=3)
    | st.builds(RawPayload, raw) | st.just(Opaque())
)
keys = texts | st.integers() | st.fractions() | floats | st.booleans() | st.none()
trees = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(texts, inner, max_size=4)
    | st.dictionaries(keys, inner, max_size=4)
    | st.builds(
        make_report, texts, st.dictionaries(texts, inner, max_size=3), numbers, numbers,
        degenerate=st.none() | texts, components=st.none() | st.dictionaries(texts, inner),
        note=st.none() | texts,
    )
    | st.builds(
        make_report, texts, st.just({}), st.builds(Uncertain, floats, floats), numbers
    )
    | st.builds(
        InequalityReport, texts, st.just({}), numbers, numbers, numbers, st.booleans(),
        st.dictionaries(texts, inner, max_size=3),
    )
    | st.builds(
        RatioReport, texts, st.dictionaries(texts, inner, max_size=3), numbers,
        st.dictionaries(keys, inner, max_size=3), st.none() | texts, st.none() | texts,
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(trees)
def test_canonical_json_is_json_dumps_of_to_jsonable(tree):
    assert canonical_json(tree) == json_dumps_of_to_jsonable(tree)
