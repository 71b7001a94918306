import io
import json
import math
from fractions import Fraction

import pytest

from sgverify import RatioReport, Uncertain, canonical_json, make_report
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
