"""Slow reference constructions that the exact engine is checked against.

`enumerate_outcomes` walks the joint support; `product_magnitude_laws` and
`product_step_peak_law` build the step magnitudes from each variable's atoms
and the step peak as the product of their CDFs, the construction the
push-forward replaced; `pair_pass_stay` gives the Mogulskii stay
probabilities by a pass over pairs per window index, the construction the
backward pass over suffix products replaced.
"""

import itertools
import math
from fractions import Fraction

from sgverify import EnumerationCapError, ScalarLaw
from sgverify.laws import DEFAULT_ENUMERATION_CAP, _advance, _exact_weights, _product


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


def pair_pass_stay(seq, m, b, cap=DEFAULT_ENUMERATION_CAP):
    """[P(d(s_k, s_n) <= b) for k = m..n]: at each window index k the law of
    s_k is pushed forward as pairs (s_k, s_j) from j = k to n, with the
    weights of the exact engine; an empty sum stays the int 0."""
    inst = seq.instance
    start, product, _ = _product(inst)

    def pair_step(state, x):
        return state[0], product(state[1], x)

    one, columns, denominator = _exact_weights(seq.variables)
    states = {start: one}
    stay = []
    for k, atoms in enumerate(columns, 1):
        states = _advance(states, atoms, product, k, cap)
        if k < m:
            continue
        pairs = {(s, s): w for s, w in states.items()}
        for j in range(k, seq.n):
            pairs = _advance(pairs, columns[j], pair_step, j + 1, cap)
        total = sum(w for (s_k, s_n), w in pairs.items() if inst.distance(s_k, s_n) <= b)
        stay.append(Fraction(total, denominator) if denominator and total else total)
    return stay
