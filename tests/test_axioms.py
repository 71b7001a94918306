import math
import random
from fractions import Fraction

import pytest

from sgverify import NotAGroupError, parse_instance, standard_word_metric_sym3, verify_axioms

from law_oracles import classify_group_metric, telescoping_slack

FINITE_CATALOG = ("cyclic:6", "sym:3", "graphgroup:3")


@pytest.mark.parametrize("spec", FINITE_CATALOG)
def test_exhaustive_axioms_pass_exactly(spec):
    report = verify_axioms(parse_instance(spec))
    assert report.mode == "exhaustive"
    assert report.tol == 0
    assert report.ok, report.violations


@pytest.mark.parametrize("spec", ("int", "posreal", "posreal+1"))
def test_sampled_axioms_exact_instances(spec):
    report = verify_axioms(parse_instance(spec), samples=300, seed=3)
    assert report.ok, report.violations


@pytest.mark.parametrize("spec", ("torus:2", "real:1:sup", "real:2"))
def test_sampled_axioms_real_instances(spec):
    report = verify_axioms(parse_instance(spec), samples=2000, seed=7, tol=1e-12)
    assert report.ok, report.violations


def test_broken_multiplicative_witness():
    # d(ac, bc) = c*d(a, b): the explicit witness (a, b, c) = (1, 2, 2)
    broken = parse_instance("broken:mulreal")
    a, b, c = Fraction(1), Fraction(2), Fraction(2)
    assert broken.distance(broken.compose(a, c), broken.compose(b, c)) == 2
    assert broken.distance(a, b) == 1
    report = verify_axioms(broken, samples=1000, seed=7)
    assert not report.ok
    assert report.violations["left-invariance"] + report.violations["right-invariance"] > 0
    worst = report.worst["right-invariance"] or report.worst["left-invariance"]
    assert worst.deviation > 0


def test_broken_subtraction_fails_associativity():
    report = verify_axioms(parse_instance("broken:subint"), samples=500, seed=2)
    assert report.violations["associativity"] > 0


@pytest.mark.parametrize(
    "spec",
    (
        "cyclic:6",
        "sym:4",
        "graphgroup:3",
        "int",
        "posreal",
        "posreal+1",
        "real:2",
        "real:2:sup",
        "torus:1",
        "torus:1:sup",
        "broken:mulreal",
        "broken:subint",
        "wordmetric:sym:3",
    ),
)
def test_associativity_flag_agrees_with_the_axiom_check(spec):
    # and so does the magnitude-invariance flag; a finite carrier is
    # checked exhaustively
    inst = parse_instance(spec)
    report = verify_axioms(inst, **({} if inst.is_finite else {"samples": 500, "seed": 5}))
    assert inst.is_associative == (report.violations["associativity"] == 0)
    assert inst.is_magnitude_invariant == (report.violations["magnitude-independence"] == 0)


def test_exhaustive_requires_finite():
    with pytest.raises(ValueError):
        verify_axioms(parse_instance("int"))


def test_report_jsonable_shape():
    report = verify_axioms(parse_instance("cyclic:6"))
    blob = report.to_jsonable()
    assert blob["ok"] is True
    assert set(blob["violations"]) == set(blob["checked"])


@pytest.mark.parametrize("spec", ("cyclic:6", "sym:3", "graphgroup:3"))
def test_catalog_groups_have_all_four_properties(spec):
    cls = classify_group_metric(parse_instance(spec))
    assert cls.property_set() == frozenset({1, 2, 3, 4})
    assert cls.product_triangle
    assert cls.consistent


def test_integer_line_classification_sampled():
    cls = classify_group_metric(parse_instance("int"), samples=400, seed=1)
    assert cls.property_set() == frozenset({1, 2, 3, 4})


def test_word_metric_is_left_invariant_only():
    cls = classify_group_metric(standard_word_metric_sym3())
    assert cls.property_set() == frozenset({1})
    assert cls.consistent  # one property held: the two-imply-all rule is vacuous
    # the product bound is the reformulation of the inverse-isometry property
    assert cls.product_triangle == cls.inverse_isometry == False  # noqa: E712


@pytest.mark.parametrize(
    "spec, kwargs, message",
    [
        ("int", {"samples": 0}, "samples must be a positive integer"),
        ("int", {"samples": -3}, "samples must be a positive integer"),
        ("cyclic:3", {"tol": math.nan}, "tolerance must be a finite number >= 0"),
        ("cyclic:3", {"tol": math.inf}, "tolerance must be a finite number >= 0"),
        ("cyclic:3", {"tol": -1.0}, "tolerance must be a finite number >= 0"),
        ("cyclic:3", {"tol": "nan"}, "tolerance must be a finite number >= 0"),
    ],
)
@pytest.mark.parametrize("check", [verify_axioms, classify_group_metric])
def test_bad_samples_and_tolerances_are_rejected(check, spec, kwargs, message):
    with pytest.raises(ValueError, match=message):
        check(parse_instance(spec), **kwargs)


def test_classify_rejects_non_groups():
    with pytest.raises(NotAGroupError):
        classify_group_metric(parse_instance("posreal"))


def test_property_count_never_two_or_three():
    for spec in FINITE_CATALOG:
        cls = classify_group_metric(parse_instance(spec))
        assert len(cls.property_set()) in (0, 1, 4)
    assert len(classify_group_metric(standard_word_metric_sym3()).property_set()) in (0, 1, 4)


def test_telescoping_bound_on_random_tuples():
    rng = random.Random(17)
    for spec in ("cyclic:6", "sym:3", "graphgroup:3", "int", "posreal"):
        inst = parse_instance(spec)
        for _ in range(200):
            head = [inst.random_element(rng) for _ in range(rng.randint(1, 3))]
            tail = [inst.random_element(rng) for _ in range(rng.randint(1, 4))]
            assert telescoping_slack(inst, head, tail) >= 0


def test_magnitude_translation_independence_exhaustive():
    # d(a, a*g) == d(b, b*g) across the whole carrier
    for spec in FINITE_CATALOG:
        inst = parse_instance(spec)
        elems = list(inst.elements())
        for g in elems:
            mags = {inst.distance(a, inst.compose(a, g)) for a in elems}
            assert len(mags) == 1
