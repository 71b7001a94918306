import json
import math
import random
from fractions import Fraction

import pytest

from sgverify import (
    ADJOINED_IDENTITY,
    CarrierMismatchError,
    CompletedMonoid,
    CyclicGroup,
    GraphGroup,
    InstanceSpecError,
    IntegerAdditive,
    NotAGroupError,
    PositiveRationalsAdditive,
    RealVectorGroup,
    SymmetricGroup,
    TorusGroup,
    adjoin_identity,
    parse_instance,
)

F = Fraction


def test_cyclic_compose_and_distance():
    cyc = CyclicGroup(6)
    assert cyc.compose(2, 5) == 1
    assert cyc.distance(0, 4) == 2
    assert cyc.distance(1, 5) == 2
    assert cyc.inverse(2) == 4


def test_symmetric_group_involution_and_hamming():
    sym = SymmetricGroup(3)
    swap = (1, 0, 2)
    assert sym.compose(swap, swap) == sym.identity
    assert sym.distance(sym.identity, swap) == 2
    three_cycle = (1, 2, 0)
    assert sym.distance(sym.identity, three_cycle) == 3
    assert sym.compose(sym.inverse(three_cycle), three_cycle) == sym.identity


def test_graph_group_two_torsion_and_hamming():
    g = GraphGroup(3)
    a = frozenset({(0, 1)})
    assert g.compose(a, g.identity) == a
    assert g.compose(a, a) == g.identity
    assert g.distance(g.identity, frozenset({(0, 1), (0, 2)})) == 2
    assert g.carrier_size() == 8
    for x in g.elements():
        assert g.compose(x, x) == g.identity


def test_torus_wraparound_metric():
    tor = TorusGroup(1)
    assert tor.distance((0.1,), (0.9,)) == pytest.approx(0.2, abs=1e-12)
    assert tor.compose((0.7,), (0.6,)) == pytest.approx((0.3,))
    sup = TorusGroup(2, "sup")
    assert sup.distance((0.1, 0.4), (0.9, 0.5)) == pytest.approx(0.2, abs=1e-12)
    assert tor.element_from_json([1.25]) == (0.25,)
    assert tor.element_from_json(-0.75) == (0.25,)


def test_positive_rationals_has_no_identity():
    pos = PositiveRationalsAdditive()
    assert not pos.has_identity
    assert pos.compose(F(1, 2), F(1, 3)) == F(5, 6)
    assert not pos.contains(F(-1))
    assert not pos.contains(0.5)


def test_completion_distance_is_the_magnitude():
    mono = adjoin_identity(PositiveRationalsAdditive())
    assert mono.distance(ADJOINED_IDENTITY, F(7, 2)) == F(7, 2)
    assert mono.distance(F(7, 2), ADJOINED_IDENTITY) == F(7, 2)
    assert mono.distance(ADJOINED_IDENTITY, ADJOINED_IDENTITY) == 0
    assert mono.compose(ADJOINED_IDENTITY, F(3)) == F(3)
    assert mono.compose(F(3), ADJOINED_IDENTITY) == F(3)


def test_completion_probe_independent():
    # magnitude d(a, a*z) must not depend on the probe a
    pos = PositiveRationalsAdditive()
    rng = random.Random(5)
    for _ in range(1000):
        a, b, z = (pos.random_element(rng) for _ in range(3))
        assert pos.distance(a, pos.compose(a, z)) == pos.distance(b, pos.compose(b, z))
    for probe in (F(1, 10), F(7), F(1000)):
        mono = CompletedMonoid(pos, probe=probe)
        assert mono.distance(ADJOINED_IDENTITY, F(7, 2)) == F(7, 2)


def test_completion_idempotent():
    mono = adjoin_identity(PositiveRationalsAdditive())
    assert adjoin_identity(mono) is mono
    cyc = CyclicGroup(6)
    assert adjoin_identity(cyc) is cyc
    with pytest.raises(InstanceSpecError):
        CompletedMonoid(cyc)


def test_carrier_mismatch_errors():
    cyc = CyclicGroup(6)
    with pytest.raises(CarrierMismatchError):
        cyc.require_element(6)
    with pytest.raises(CarrierMismatchError):
        SymmetricGroup(3).require_element((0, 1))
    with pytest.raises(CarrierMismatchError):
        GraphGroup(3).require_element(frozenset({(0, 5)}))
    for bad in (math.inf, -math.inf, math.nan, 10**400, True):
        with pytest.raises(CarrierMismatchError):
            RealVectorGroup(1).require_element((bad,))


@pytest.mark.parametrize(
    "spec, j",
    [
        ("int", 1.5),
        ("int", True),
        ("int", "7"),
        ("int", [1]),
        ("int", None),
        ("broken:subint", 2.0),
        ("cyclic:6", 2.9),
        ("sym:3", [0, 1.9, 2]),
        ("sym:3", "012"),
        ("graphgroup:3", [[0, 1.5]]),
        ("graphgroup:3", [[0]]),
        ("graphgroup:3", [0, 1]),
        ("posreal", 1.5),
        ("posreal", "1/0"),
        ("broken:mulreal", "x"),
        ("real:1", "1"),
        ("real:1", [True]),
        ("real:1", [math.inf]),
        ("real:1", [math.nan]),
        ("real:1", [10**400]),
        ("real:2", 1.0),
        ("torus:1", [math.nan]),
        ("torus:1", [-math.inf]),
        ("posreal+1", 0),
    ],
)
def test_element_from_json_rejects_other_json_values(spec, j):
    with pytest.raises(CarrierMismatchError):
        parse_instance(spec).element_from_json(j)


SPECS = (
    "cyclic:6",
    "sym:4",
    "graphgroup:3",
    "int",
    "posreal",
    "posreal+1",
    "real:2:sup",
    "torus:1",
    "broken:mulreal",
    "broken:subint",
    "wordmetric:sym:3",
)


def test_parse_instance_round_trip():
    for spec in SPECS:
        inst = parse_instance(spec)
        assert inst.spec == spec or spec in ("torus:1",)  # torus gains its norm tag
        again = parse_instance(inst.spec)
        assert again.name == inst.name


def test_parse_instance_rejects_garbage():
    for bad in ("cyclic", "cyclic:x", "ring:4", "torus:2:manhattan", "", 5, None):
        with pytest.raises(InstanceSpecError):
            parse_instance(bad)


def test_element_json_round_trip():
    rng = random.Random(11)
    for spec in (*SPECS, "sym:3", "torus:2"):
        inst = parse_instance(spec)
        for _ in range(25):
            x = inst.random_element(rng)
            j = json.loads(json.dumps(inst.element_to_json(x)))
            back = inst.element_from_json(j)
            assert inst.elements_equal(x, back, tol=1e-15)


def test_integer_line_is_a_group():
    line = IntegerAdditive()
    assert line.distance(-3, 4) == 7
    assert line.inverse(5) == -5
    assert line.identity == 0


@pytest.mark.parametrize(
    "spec, flags, identity",
    [
        ("int", (True, True, True, True, True), 0),
        ("broken:subint", (False, False, False, False, True), None),
        ("posreal", (True, True, False, False, True), None),
        ("broken:mulreal", (True, True, True, True, True), F(1)),
        ("real:2", (True, True, True, True, False), (0.0, 0.0)),
        ("torus:2", (True, True, True, True, False), (0.0, 0.0)),
    ],
)
def test_carrier_families_keep_their_flags(spec, flags, identity):
    inst = parse_instance(spec)
    kinds = (inst.is_associative, inst.is_abelian, inst.has_identity, inst.is_group, inst.is_exact)
    assert kinds == flags and not inst.is_finite
    if identity is None:
        with pytest.raises(NotAGroupError):
            inst.identity
        with pytest.raises(NotAGroupError):
            inst.inverse(inst.random_element(random.Random(0)))
    else:
        assert inst.identity == identity
        x = inst.random_element(random.Random(0))
        assert inst.elements_equal(inst.compose(x, inst.inverse(x)), identity, tol=1e-12)
