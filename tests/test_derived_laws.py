"""Laws derived from a sequence are built once per sequence and equal the
laws built from scratch.

The caches live in the sequence's (or the law's) own __dict__, so a copy made
by `dataclasses.replace` starts cold; the benchmark relies on that.
"""

import dataclasses
import math
from fractions import Fraction

from sgverify import (
    DiscreteDistribution,
    IndependentSequence,
    IntegerAdditive,
    check_spike_moment_bound,
    check_truncated_quantile_shift,
    parse_instance,
    tail_sum_inverse,
    truncate,
    truncate_upper,
)
from sgverify.inequalities import _capped_walk_law, _identity_frame
from sgverify.rearrange import aggregate_tail

F = Fraction

# C07's moment orders and spike levels; its eta only picks a quantile of the
# same capped law.
C07_ORDERS = (0.5, 1, 2)
C07_SPIKES = (F(3, 10), F(9, 10))


def same(a, b):
    return a == b and repr(a) == repr(b)


def from_scratch(seq, transform, cut):
    """The walk-peak law of the identity frame after `transform` at `cut`,
    on a frame with nothing cached."""
    frame, _ = _identity_frame(dataclasses.replace(seq))
    inst = frame.instance
    return frame.with_variables([transform(v, cut, inst) for v in frame.variables]).walk_peak_law


def test_replace_copy_rebuilds_its_laws():
    posreal = parse_instance("posreal")
    var = DiscreteDistribution.of([(F(1, 2), F(1, 3)), (F(3), F(2, 3))])
    seq = IndependentSequence.build(posreal, [var, var, var])
    check_truncated_quantile_shift(seq, 1)
    check_spike_moment_bound(seq, F(9, 10), 1)
    seq.walk_peak_law.moment(2)
    copy = dataclasses.replace(seq)
    assert not {"walk_peak_law", "magnitude_laws", "_derived"} & set(copy.__dict__)
    assert "_moments" not in dataclasses.replace(seq.walk_peak_law).__dict__
    assert copy.walk_peak_law is not seq.walk_peak_law
    assert same(copy.walk_peak_law, seq.walk_peak_law)
    assert aggregate_tail(copy) is not aggregate_tail(seq)
    assert _identity_frame(copy)[0] is not _identity_frame(seq)[0]
    # the posreal frame is completed once per sequence, then reused
    assert _identity_frame(seq)[0] is _identity_frame(seq)[0]
    assert same(
        check_spike_moment_bound(copy, F(9, 10), 1), check_spike_moment_bound(seq, F(9, 10), 1)
    )


def test_truncation_that_replaces_no_step_keeps_the_frame_law():
    line = IntegerAdditive()
    seq = IndependentSequence.build(
        line, [DiscreteDistribution.of([(1, F(1, 2)), (-3, F(1, 2))])] * 3
    )
    kept = _capped_walk_law(seq, truncate, 3)
    assert kept is seq.walk_peak_law
    cut = _capped_walk_law(seq, truncate, 2)
    assert cut is _capped_walk_law(seq, truncate, 2)
    assert same(cut, from_scratch(seq, truncate, 2))
    assert not same(cut, kept)


def test_cached_capped_laws_equal_laws_built_from_scratch_on_default_corpus(fresh_corpus):
    unchanged = 0
    for seq in fresh_corpus:
        frame, _ = _identity_frame(seq)
        mags = aggregate_tail(frame)
        for p in C07_ORDERS:
            cut = tail_sum_inverse(mags, math.exp(-p) / 8)
            law = _capped_walk_law(frame, truncate, cut)
            assert same(law, from_scratch(seq, truncate, cut)), (seq.label, p)
            unchanged += law is frame.walk_peak_law
        for r in C07_SPIKES:
            cut = tail_sum_inverse(mags, r)
            law = _capped_walk_law(frame, truncate_upper, cut)
            assert same(law, from_scratch(seq, truncate_upper, cut)), (seq.label, r)
    assert unchanged > 0
