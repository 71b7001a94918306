"""Slow reference constructions that the exact engine is checked against.

`enumerate_outcomes` walks the joint support; `product_magnitude_laws` and
`product_step_peak_law` build the step magnitudes from each variable's atoms
and the step peak as the product of their CDFs, the construction the
push-forward replaced.
"""

import itertools
import math
from fractions import Fraction

from sgverify import EnumerationCapError, ScalarLaw
from sgverify.laws import DEFAULT_ENUMERATION_CAP


def enumerate_outcomes(seq, cap=DEFAULT_ENUMERATION_CAP):
    """Yield (outcome, probability) over the joint support."""
    if not seq.is_exact:
        raise ValueError("exact enumeration needs finitely supported variables")
    count = seq.outcome_count
    if count > cap:
        raise EnumerationCapError(f"{count} joint outcomes exceed the cap {cap}")
    supports = [var.atoms for var in seq.variables]
    for combo in itertools.product(*supports):
        outcome = tuple(e for e, _ in combo)
        prob = math.prod((p for _, p in combo), start=Fraction(1))
        yield outcome, prob


def product_magnitude_laws(seq):
    """Law of each step's magnitude d(z0, z0 * x), merged by `from_pairs`."""
    inst, z0 = seq.instance, seq.z0
    return tuple(
        ScalarLaw.from_pairs(
            (inst.distance(z0, inst.compose(z0, e)), p) for e, p in var.atoms
        )
        for var in seq.variables
    )


def product_step_peak_law(seq):
    """Law of the largest step magnitude: independent steps, so its CDF is
    the product of the magnitudes' CDFs."""
    magnitudes = product_magnitude_laws(seq)
    grid = sorted({v for law in magnitudes for v in law.values})
    pairs = []
    prev_cdf = 0
    for y in grid:
        cdf = math.prod(law.prob_le(y) for law in magnitudes)
        mass = cdf - prev_cdf
        if mass > 0:
            pairs.append((y, mass))
        prev_cdf = cdf
    return ScalarLaw.from_pairs(pairs)
