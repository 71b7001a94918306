"""Report types, the tolerance ladder, and JSON/CSV serialization.

Tolerance ladder: checks whose left and right sides are both rational must
have slack >= 0 exactly; float-valued checks allow slack >= -1e-12; Monte
Carlo checks report a z-score (slack / propagated standard error) and are
flagged only below -3.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .laws import is_rational

FLOAT_SLACK_TOL = 1e-12
MC_Z_FLAG = 3.0


class Uncertain:
    """A float with a variance, propagated by the delta method.

    Estimated factors are treated as independent, so composite variances are
    approximate (typically conservative for slacks of co-moving tails).
    """

    __slots__ = ("value", "var")

    def __init__(self, value: float, var: float = 0.0):
        self.value = float(value)
        self.var = max(float(var), 0.0)

    @property
    def se(self) -> float:
        return math.sqrt(self.var)

    @staticmethod
    def wrap(x) -> "Uncertain":
        return x if isinstance(x, Uncertain) else Uncertain(float(x))

    def __add__(self, other):
        o = Uncertain.wrap(other)
        return Uncertain(self.value + o.value, self.var + o.var)

    __radd__ = __add__

    def __sub__(self, other):
        o = Uncertain.wrap(other)
        return Uncertain(self.value - o.value, self.var + o.var)

    def __rsub__(self, other):
        o = Uncertain.wrap(other)
        return Uncertain(o.value - self.value, self.var + o.var)

    def __neg__(self):
        return Uncertain(-self.value, self.var)

    def __mul__(self, other):
        o = Uncertain.wrap(other)
        var = o.value**2 * self.var + self.value**2 * o.var
        return Uncertain(self.value * o.value, var)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Uncertain.wrap(other)
        if o.value == 0:
            return Uncertain(math.inf, math.inf)
        val = self.value / o.value
        var = self.var / o.value**2 + (self.value**2 / o.value**4) * o.var
        return Uncertain(val, var)

    def __rtruediv__(self, other):
        return Uncertain.wrap(other) / self

    def __pow__(self, k):
        k = float(k)
        val = self.value**k
        grad = k * self.value ** (k - 1) if self.value != 0 else 0.0
        return Uncertain(val, grad**2 * self.var)

    def __repr__(self):
        return f"Uncertain({self.value!r}, se={self.se!r})"


class _Report:
    """The JSON form of a report: the fields named in `json_keys` (sorted,
    the order `canonical_json` writes them in), less the `optional` ones
    that are empty.  `to_jsonable` and `canonical_json` convert each value
    but those of the fields `as_is`, which they write as `json.dumps` does."""

    as_is = frozenset({"degenerate", "holds", "name", "note"})

    def json_fields(self) -> list:
        """(key, value, convert) of each field of the JSON form."""
        fields = [(key, getattr(self, key)) for key in self.json_keys]
        return [(k, v, k not in self.as_is) for k, v in fields if k not in self.optional or v]

    def to_jsonable(self) -> dict:
        return {key: to_jsonable(v) if convert else v for key, v, convert in self.json_fields()}


@dataclass(frozen=True)
class InequalityReport(_Report):
    """Outcome of one lhs <= rhs check."""

    name: str
    params: dict
    lhs: object
    rhs: object
    slack: object
    holds: bool
    engine: dict
    degenerate: str | None = None
    components: dict | None = None
    note: str | None = None

    json_keys = (
        "components", "degenerate", "engine", "holds", "lhs", "name", "note", "params", "rhs",
        "slack",
    )
    optional = frozenset({"components", "degenerate", "note"})

    def row(self) -> dict:
        return {
            "name": self.name,
            "params": compact_json(self.params),
            "lhs": _csv_number(self.lhs),
            "rhs": _csv_number(self.rhs),
            "slack": _csv_number(self.slack),
            "holds": self.holds,
            "degenerate": self.degenerate or "",
            "engine": compact_json(self.engine),
        }


@dataclass(frozen=True)
class RatioReport(_Report):
    """A recorded (not asserted) ratio, for corpus aggregation."""

    name: str
    params: dict
    ratio: object
    components: dict = field(default_factory=dict)
    degenerate: str | None = None
    note: str | None = None

    json_keys = ("components", "degenerate", "name", "note", "params", "ratio")
    optional = frozenset({"degenerate", "note"})

    def row(self) -> dict:
        return {
            "name": self.name,
            "params": compact_json(self.params),
            "ratio": _csv_number(self.ratio),
            "degenerate": self.degenerate or "",
        }


@dataclass(frozen=True)
class ConstantEstimate:
    """Supremal required constant over a corpus, with its witness."""

    name: str
    value: float
    witness: dict
    corpus_size: int
    grid_size: int
    seed: int | None
    skipped_degenerate: int = 0

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "value": to_jsonable(self.value),
            "witness": to_jsonable(self.witness),
            "corpus_size": self.corpus_size,
            "grid_size": self.grid_size,
            "seed": self.seed,
            "skipped_degenerate": self.skipped_degenerate,
        }


def make_report(
    name: str,
    params: dict,
    lhs,
    rhs,
    engine: dict | None = None,
    degenerate: str | None = None,
    components: dict | None = None,
    note: str | None = None,
) -> InequalityReport:
    """Assemble a report, choosing the tolerance rung from the value types."""
    engine = dict(engine or {"kind": "exact"})
    if degenerate is not None or (isinstance(rhs, float) and math.isinf(rhs)):
        engine.setdefault("arithmetic", "degenerate")
        return InequalityReport(
            name=name,
            params=params,
            lhs=lhs,
            rhs=rhs,
            slack=math.inf,
            holds=True,
            engine=engine,
            degenerate=degenerate or "infinite-right-side",
            components=components,
            note=note,
        )
    if isinstance(lhs, Uncertain) or isinstance(rhs, Uncertain):
        slack = Uncertain.wrap(rhs) - Uncertain.wrap(lhs)
        se = slack.se
        if se == 0.0:
            z = 0.0 if slack.value >= 0 else -math.inf
        else:
            z = slack.value / se
        engine["kind"] = "mc"
        engine["arithmetic"] = "mc"
        engine["se"] = se
        engine["z"] = z
        return InequalityReport(
            name=name,
            params=params,
            lhs=lhs.value if isinstance(lhs, Uncertain) else lhs,
            rhs=rhs.value if isinstance(rhs, Uncertain) else rhs,
            slack=slack.value,
            holds=z >= -MC_Z_FLAG,
            engine=engine,
            components=components,
            note=note,
        )
    if is_rational(lhs) and is_rational(rhs):
        slack = rhs - lhs
        engine["arithmetic"] = "rational"
        holds = slack >= 0
    else:
        slack = float(rhs) - float(lhs)
        engine["arithmetic"] = "float"
        holds = slack >= -FLOAT_SLACK_TOL
    return InequalityReport(
        name=name,
        params=params,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        holds=holds,
        engine=engine,
        components=components,
        note=note,
    )


def to_jsonable(x):
    """Canonical JSON-safe form: Fractions as 'p/q' strings, inf as 'inf'."""
    if x is None or isinstance(x, (bool, str, int)):
        return x
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Uncertain):
        return {"value": x.value, "se": x.se}
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    if isinstance(x, frozenset):
        return sorted(to_jsonable(v) for v in x)
    if hasattr(x, "to_jsonable"):
        return x.to_jsonable()
    return repr(x)


_FIELD_TYPES = {"int": (int, "an integer"), "str": (str, "a string"), "tuple": (tuple, "a list")}


def check_field_types(config) -> None:
    """Raise a ValueError that names the first field of the dataclass
    `config` declared int, str or tuple whose value has another type, as a
    hand-edited JSON config can give (a bool is not an int).  The
    annotations are strings under `from __future__ import annotations`."""
    for f in fields(config):
        if f.type in _FIELD_TYPES:
            kind, name = _FIELD_TYPES[f.type]
            value = getattr(config, f.name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"{f.name!r} must be {name}, not {value!r}")


def compact_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    """Deterministic pretty JSON used for all file outputs: the text of
    `json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\\n"`, written
    in one pass over `obj` without the copy.  Keys are sorted, the indent is
    two spaces and strings use ASCII escapes; Fractions are "p/q" strings and
    non-finite floats "inf", "-inf" or "nan".  What `to_jsonable` does not
    convert itself (the value of a `to_jsonable()` method, an `Uncertain`,
    a frozenset's sorted list) is written by `json.dumps`'s own rules."""
    out: list = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


_escape = json.encoder.encode_basestring_ascii


def _write(x, nl: str, write) -> None:
    """Write `to_jsonable(x)` as `json.dumps` with indent 2 would, at the
    indent `nl` (a newline and the current indent)."""
    t = type(x)
    if t is str:
        write(_escape(x))
    elif t is Fraction:
        write(f'"{x!s}"')
    elif t is int:
        write(int.__repr__(x))
    elif t is float and math.isfinite(x):
        write(float.__repr__(x))
    elif isinstance(x, _Report):
        _write_report(x, nl, write)
    elif isinstance(x, dict):
        if not x:
            write("{}")
            return
        if not all(type(key) is str for key in x):
            x = {str(key): v for key, v in x.items()}
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(x):
            write(sep + _escape(key) + ": ")
            _write(x[key], inner, write)
            sep = "," + inner
        write(nl + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            write("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in x:
            write(sep)
            _write(v, inner, write)
            sep = "," + inner
        write(nl + "]")
    else:
        write(_as_is(to_jsonable(x), nl))


def _write_report(report: _Report, nl: str, write) -> None:
    """Write the JSON form of `report`, which always has a field; a value
    not marked convert is written as it is."""
    inner = nl + "  "
    sep = "{" + inner
    for key, v, convert in report.json_fields():
        write(f'{sep}"{key}": ')
        if convert:
            _write(v, inner, write)
        else:
            write(_as_is(v, inner))
        sep = "," + inner
    write(nl + "}")


def _as_is(x, nl: str) -> str:
    """`x` as `json.dumps` with indent 2 writes it, at the indent `nl`: its
    newlines are all indentation, as JSON strings escape theirs."""
    if type(x) is str:
        return _escape(x)
    if x is None or type(x) is bool:
        return "null" if x is None else "true" if x else "false"
    return json.dumps(x, sort_keys=True, indent=2).replace("\n", nl)


def _csv_number(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def reports_to_csv(reports, out=None) -> str | None:
    """One CSV row per report, for inequality and ratio reports.

    Rows are written to the text stream `out` as `reports` yields them, or
    returned as one string when `out` is None.  The header of a list of
    reports is every key of its rows, in order of first appearance (a
    check mixes report kinds); any other iterable, such as a sweep's
    stream of rows, is read once, so its header is the first row's keys
    and a later row with a key outside it raises ValueError rather than
    lose a column.
    """
    if out is None:
        buf = io.StringIO()
        reports_to_csv(reports, buf)
        return buf.getvalue()
    header = None
    if isinstance(reports, list):
        header = list(dict.fromkeys(key for r in reports for key in r.row()))
    rows = (r.row() for r in reports)
    first = next(rows, None)
    if first is not None:
        writer = csv.DictWriter(out, fieldnames=header or list(first), lineterminator="\n")
        writer.writeheader()
        writer.writerow(first)
        writer.writerows(rows)
    return None
