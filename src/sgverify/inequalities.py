"""Checkers for the maximal, tail, and moment inequalities, plus estimators
for the universal constants they involve.

Every checker evaluates both sides of one inequality on a given sequence and
returns a report.  With exact laws and rational parameters the slack is an
exact Fraction and a negative value is a hard counterexample (these are
theorems; a violation is an implementation bug).  Checkers built around
truncations compare walks from the identity, the frame in which truncation
is defined; sequences on identity-free carriers are completed first and the
report carries a note.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction

from .laws import (
    DEFAULT_ENUMERATION_CAP,
    STEP_PEAK,
    WALK_PEAK,
    EnumerationCapError,
    IndependentSequence,
    ScalarLaw,
    _advance,
    _exact_weights,
    _product,
    is_rational,
    monte_carlo_law,
    sequence_to_config,
)
from .rearrange import (
    _excess_intervals,
    aggregate_tail,
    excess_tail_moment,
    pow_value,
    rearrangement_at,
    tail_sum_inverse,
    tail_sum_inverse_law,
    truncate,
    truncate_upper,
)
from .reports import (
    FLOAT_SLACK_TOL,
    ConstantEstimate,
    InequalityReport,
    RatioReport,
    Uncertain,
    make_report,
)
from .rng import derive_seed
from .semigroups import adjoin_identity


# ---------------------------------------------------------------------------
# parameters and law plumbing


@dataclass(frozen=True)
class HJParameters:
    """Block sizes n_1..n_k, thresholds t_1..t_k, and the shift s."""

    block_sizes: tuple
    thresholds: tuple
    shift: object

    def __post_init__(self):
        if len(self.block_sizes) != len(self.thresholds):
            raise ValueError("need one threshold per block")
        if not self.block_sizes:
            raise ValueError("need at least one block")
        for n_i in self.block_sizes:
            if not isinstance(n_i, int) or n_i < 1:
                raise ValueError(f"block sizes must be positive integers, got {n_i}")
        for t_i in self.thresholds:
            if t_i < 0:
                raise ValueError("thresholds must be nonnegative")
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")

    @property
    def total_size(self) -> int:
        return sum(self.block_sizes)

    def to_params(self) -> dict:
        return {
            "block_sizes": list(self.block_sizes),
            "thresholds": list(self.thresholds),
            "shift": self.shift,
        }


def _peak_laws(seq: IndependentSequence, engine: str, trials: int, seed: int):
    """(walk-peak law, step-peak law, engine info) for the chosen engine."""
    if engine == "exact":
        return seq.walk_peak_law, seq.step_peak_law, {"kind": "exact"}
    if engine == "mc":
        walk = monte_carlo_law(seq, WALK_PEAK, trials=trials, seed=seed)
        step = monte_carlo_law(
            seq, STEP_PEAK, trials=trials, seed=derive_seed(seed, "step-peak")
        )
        return walk, step, {"kind": "mc", "trials": trials, "seed": seed}
    raise ValueError(f"unknown engine {engine!r} (use 'exact' or 'mc')")


def _probability(law: ScalarLaw, prob):
    """A probability read from `law`; wrapped with its binomial variance when
    the law is empirical."""
    if law.is_empirical:
        p = float(prob)
        return Uncertain(p, p * (1.0 - p) / law.trials)
    return prob


def _separated_basepoints_note(seq: IndependentSequence) -> str | None:
    """The block bound observes the walk from its own start; with separated
    basepoints and thresholds below their distance it can fail."""
    if seq.z0 == seq.z1:
        return None
    return "basepoints differ; the block bound presumes a common basepoint"


def _is_zero(value) -> bool:
    return value.value == 0 if isinstance(value, Uncertain) else value == 0


def _chain_report(name, params, links, note=None):
    """Report for a chain q_0 <= q_1 <= ... <= q_m; slack is the worst link.

    A link whose two ends are the same float infinity (both beyond the float
    range) cannot be compared and is skipped; when the other links hold, the
    report is degenerate.  Any other nan link fails the chain."""
    values = [v for _, v in links]
    gaps = [
        b - a
        for a, b in zip(values, values[1:])
        if not (isinstance(a, float) and math.isinf(a) and a == b)
    ]
    nan = any(isinstance(g, float) and math.isnan(g) for g in gaps)
    slack = math.nan if nan else min(gaps, default=math.inf)
    rational = all(is_rational(v) for v in values)
    if rational:
        holds = slack >= 0
        arithmetic = "rational"
    else:
        slack = float(slack)
        holds = slack >= -FLOAT_SLACK_TOL
        arithmetic = "float"
    return InequalityReport(
        name=name,
        params=params,
        lhs=values[0],
        rhs=values[-1],
        slack=slack,
        holds=holds,
        engine={"kind": "exact", "arithmetic": arithmetic},
        degenerate="infinite-links" if holds and len(gaps) < len(links) - 1 else None,
        components=dict(links),
        note=note,
    )


# Largest integer order at which a bound takes exact powers v^p (of a law
# with rational values), whose size grows without limit in p: v^(10^400)
# never returns.  The walk-moment bound keeps every order below it, since
# its scale 2^(1+2p) leaves the float range above p = 511.5.
MAX_EXACT_ORDER = 500

ROOTS_NOTE = "p-th roots compared: the p-th moments leave the float range"


def _check_order(p, name="moment order", exact_powers=True):
    """Reject an order the bound cannot be evaluated at: one that is not
    positive or lies beyond the float range, and, where the bound takes
    exact powers v^p, an integer above MAX_EXACT_ORDER."""
    if p <= 0:
        raise ValueError(f"{name} must be positive")
    if p > sys.float_info.max:
        raise ValueError(f"{name} lies beyond the float range")
    if exact_powers and isinstance(p, int) and p > MAX_EXACT_ORDER:
        raise ValueError(
            f"{name} is an integer above {MAX_EXACT_ORDER}, "
            "where exact powers v^p are not evaluated"
        )


def _identity_frame(seq: IndependentSequence):
    """The sequence viewed from the identity (truncation frame).

    Completes the instance when it has no identity and resets both
    basepoints to the identity; returns (sequence, note or None).  A
    rebuilt frame is built once per sequence, so its laws are too.
    """
    inst = seq.instance
    if inst.has_identity:
        e = inst.identity
        if seq.z0 == e and seq.z1 == e:
            return seq, None

        def rebuild():
            return seq.with_basepoints(e, e), "basepoints reset to the identity"

    else:

        def rebuild():
            completed = adjoin_identity(inst)
            rebased = IndependentSequence.build(
                completed,
                seq.variables,
                z0=completed.identity,
                z1=completed.identity,
                label=seq.label,
            )
            return rebased, f"instance completed to {completed.name}"

    return seq.derived("identity_frame", rebuild)


# ---------------------------------------------------------------------------
# the block maximal inequality and its single-threshold consequence


def tight_block_set(walk_law: ScalarLaw, params: HJParameters) -> frozenset:
    """Blocks whose plain tail-power factor beats the factorial-ratio factor:
    {i : P(peak <= t_i)^(n_i - [i==1]) <= 1/n_i!} (1-based indices)."""
    out = []
    for i, (n_i, t_i) in enumerate(zip(params.block_sizes, params.thresholds), start=1):
        exponent = n_i - (1 if i == 1 else 0)
        stay = walk_law.prob_le(t_i)
        if stay**exponent <= Fraction(1, math.factorial(n_i)):
            out.append(i)
    return frozenset(out)


def check_hj(
    seq: IndependentSequence,
    params: HJParameters,
    engine: str = "exact",
    trials: int = 100_000,
    seed: int = 0,
) -> InequalityReport:
    """Hoffmann-Jorgensen block inequality for the walk peak.

    P(peak > (2*n_1 - 1)*t_1 + 2*sum_{i>=2} n_i*t_i + (sum_i n_i - 1)*s)
    is bounded by P(step peak > s) plus a product of per-block tail factors;
    blocks in the tight set contribute P(peak > t_i)^n_i, the others
    (1/n_i!) * (P(peak > t_i)/P(peak <= t_i))^n_i, and the leading factor
    P(peak <= t_1) appears only when block 1 is not tight.
    """
    if params.total_size > seq.n + 1:
        raise ValueError(f"block sizes sum to {params.total_size}, above n+1 = {seq.n + 1}")
    walk, step, engine_info = _peak_laws(seq, engine, trials, seed)
    sizes, thresholds = params.block_sizes, params.thresholds
    threshold = (
        (2 * sizes[0] - 1) * thresholds[0]
        + 2 * sum(n_i * t_i for n_i, t_i in zip(sizes[1:], thresholds[1:]))
        + (params.total_size - 1) * params.shift
    )
    tight = tight_block_set(walk, params)
    report_params = params.to_params() | {"tight_blocks": sorted(tight)}

    lhs = _probability(walk, walk.tail(threshold))
    product = 1
    degenerate = None
    for i, (n_i, t_i) in enumerate(zip(sizes, thresholds), start=1):
        if i in tight:
            product = product * _probability(walk, walk.tail(t_i)) ** n_i
        else:
            stay = _probability(walk, walk.prob_le(t_i))
            if _is_zero(stay):
                degenerate = f"zero stay probability at threshold {t_i}"
                break
            ratio = _probability(walk, walk.tail(t_i)) / stay
            product = product * ratio**n_i * Fraction(1, math.factorial(n_i))
    if degenerate is None and 1 not in tight:
        product = _probability(walk, walk.prob_le(thresholds[0])) * product

    if degenerate is not None:
        return make_report("hj", report_params, lhs, math.inf, engine_info, degenerate)
    rhs = _probability(step, step.tail(params.shift)) + product
    return make_report(
        "hj",
        report_params,
        lhs,
        rhs,
        engine=engine_info,
        components={"threshold": threshold},
        note=_separated_basepoints_note(seq),
    )


def check_hj_simple(
    seq: IndependentSequence,
    repeats: int,
    t,
    engine: str = "exact",
    trials: int = 100_000,
    seed: int = 0,
) -> InequalityReport:
    """Single-threshold consequence of the block inequality:

    P(peak > (3K-1)t) <= (1/K!) * (P(peak > t)/P(peak <= t))^K
                          + P(step peak > t)   for every K >= 1, t > 0.
    """
    if not isinstance(repeats, int) or repeats < 1:
        raise ValueError("repeat count must be a positive integer")
    if t <= 0:
        raise ValueError("threshold must be positive")
    walk, step, engine_info = _peak_laws(seq, engine, trials, seed)
    params = {"repeats": repeats, "t": t}
    lhs = _probability(walk, walk.tail((3 * repeats - 1) * t))
    stay = _probability(walk, walk.prob_le(t))
    if _is_zero(stay):
        degenerate = f"zero stay probability at threshold {t}"
        return make_report("hj-simple", params, lhs, math.inf, engine_info, degenerate)
    ratio = _probability(walk, walk.tail(t)) / stay
    step_tail = _probability(step, step.tail(t))
    rhs = ratio**repeats * Fraction(1, math.factorial(repeats)) + step_tail
    return make_report(
        "hj-simple",
        params,
        lhs,
        rhs,
        engine=engine_info,
        note=_separated_basepoints_note(seq),
    )


# ---------------------------------------------------------------------------
# minimal/maximal partial-product inequalities


def check_mogulskii(seq: IndependentSequence, m: int, a, b):
    """Mogulskii-Ottaviani-Skorohod inequalities over window indices m..n.

    (1) P(min_k d(z1, z0*s_k) <= a) * min_k P(d(s_k, s_n) <= b)
            <= P(d(z1, z0*s_n) <= a + b)
    (2) P(max_k d(z1, z0*s_k) >= a) * min_k P(d(s_k, s_n) <= b)
            <= P(d(z1, z0*s_n) >= a - b)

    Returns the pair of reports, computed exactly from one forward and one
    backward pass (`_mogulskii_probabilities`); a carrier whose composition
    is not associative is refused with a ValueError.
    """
    reach_min, reach_max, end_le, end_ge, stay = _mogulskii_probabilities(seq, m, a, b)
    params, stay_prob = {"m": m, "a": a, "b": b}, min(stay)
    return tuple(
        make_report(name, params, reach * stay_prob, rhs,
                    components={"reach_prob": reach, "stay_prob": stay_prob})
        for name, reach, rhs in (
            ("mogulskii-min", reach_min, end_le),
            ("mogulskii-max", reach_max, end_ge),
        )
    )


def _mogulskii_probabilities(seq: IndependentSequence, m: int, a, b) -> tuple:
    """(P(min_k d(z1, z0*s_k) <= a), P(max_k ... >= a), P(d(z1, z0*s_n) <= a + b),
    P(... >= a - b), [stay_k = P(d(s_k, s_n) <= b) for k = m..n]).

    A backward pass gives the laws of the suffix products g_k = x_{k+1}...x_n
    (None is the empty one), a forward pass those of (s_k, window min <= a
    seen, window max >= a seen), both in the weights of `_exact_weights`.
    As the composition is associative, s_n = s_k*g_k with g_k independent of
    s_k, so stay_k sums w*v over the s_k of weight w and the g_k of weight v
    with g_k empty or d(s_k, s_k*g_k) <= b.  Other carriers are refused.
    """
    n, inst = seq.n, seq.instance
    if not 1 <= m <= n:
        raise ValueError(f"window start must be in 1..{n}, got {m}")
    if a < 0 or b < 0:
        raise ValueError("radii must be nonnegative")
    if not inst.is_associative:
        raise ValueError(f"Mogulskii needs an associative composition; {inst.name} is not")
    compose, distance, z0, z1 = inst.compose, inst.distance, seq.z0, seq.z1
    _, product, _ = _product(inst)

    def shifted(s):
        return distance(z1, compose(z0, s))

    def before_window(state, x):
        return product(state[0], x), False, False

    def in_window(state, x):
        s = product(state[0], x)
        dist = shifted(s)
        return s, state[1] or dist <= a, state[2] or dist >= a

    def prepend(g, x):
        return x if g is None else compose(x, g)

    cap = DEFAULT_ENUMERATION_CAP
    one, columns, denominator = _exact_weights(seq.variables)

    def prob(total):
        """A sum of weights as a probability; an empty sum stays the int 0."""
        return Fraction(total, denominator) if denominator and total else total

    tails = [((None,), [one])]
    for k in range(n, m, -1):
        tails.append(_advance(tails[-1], columns[k - 1], prepend, k, cap))
    states = ((None, False, False),), [one]
    heads = []
    for k, column in enumerate(columns, 1):
        states = _advance(states, column, in_window if k >= m else before_window, k, cap)
        if k >= m:
            heads.append({})
            for (s, _, _), w in zip(*states):
                heads[-1][s] = heads[-1].get(s, 0) + w
    stay = []
    for k, head, (suffixes, weights) in zip(range(m, n + 1), heads, reversed(tails)):
        if len(head) * len(suffixes) > cap:
            raise EnumerationCapError(
                f"{len(head)} partial products at window index {k} times "
                f"{len(suffixes)} suffix products would exceed the state cap {cap}"
            )
        stay.append(prob(sum(
            w * v for s, w in head.items() for g, v in zip(suffixes, weights)
            if g is None or distance(s, compose(s, g)) <= b
        )))
    ends = [(shifted(s), low, high, w) for (s, low, high), w in zip(*states)]
    return (
        prob(sum(w for _, low, _, w in ends if low)),
        prob(sum(w for _, _, high, w in ends if high)),
        prob(sum(w for end, _, _, w in ends if end <= a + b)),
        prob(sum(w for end, _, _, w in ends if end >= a - b)),
        stay,
    )


# ---------------------------------------------------------------------------
# step-peak sandwiches


def check_step_quantile_chain(seq: IndependentSequence, t) -> InequalityReport:
    """Chain linking the aggregate step quantile and the step-peak
    rearrangement: agg(2t) <= agg(t/(1-t)) <= peak*(t) <= agg(t), t in (0,1)."""
    if not 0 < t < 1:
        raise ValueError("t must lie in (0, 1)")
    mags = aggregate_tail(seq)
    links = [
        ("agg_quantile_2t", tail_sum_inverse(mags, 2 * t)),
        ("agg_quantile_shifted", tail_sum_inverse(mags, t / (1 - t))),
        ("step_peak_quantile", rearrangement_at(seq.step_peak_law, t)),
        ("agg_quantile_t", tail_sum_inverse(mags, t)),
    ]
    return _chain_report("step-quantile-chain", {"t": t}, links)


def check_step_moment_sandwich(seq: IndependentSequence, t, p) -> InequalityReport:
    """Two-sided bound for E[step peak^p] via the aggregate quantile L and the
    excess tail moment R: (t*L^p + R)/(1+t) <= E[peak^p] <= L^p + R.

    When a side leaves the float range, the p-th roots of the three are
    compared instead, each as M * (its value / M^p)^(1/p) with M the larger
    of the step peak's largest value and L, as `ScalarLaw.moment_root`
    rescales."""
    if t <= 0:
        raise ValueError("t must be positive")
    _check_order(p)
    mags = aggregate_tail(seq)
    step = seq.step_peak_law
    cut = tail_sum_inverse(mags, t)
    extra = excess_tail_moment(mags, t, p)
    cut_p = pow_value(cut, p)
    links = [
        ("lower", (t * cut_p + extra) / (1 + t)),
        ("step_peak_moment", step.moment(p)),
        ("upper", cut_p + extra),
    ]
    note = None
    if math.inf in [value for _, value in links]:
        top, r = max(step.max_value, cut), float(p)
        cut_p = float(cut / top) ** r
        extra = sum(
            float(tau) * (float(b / top) ** r - float(a / top) ** r)
            for tau, a, b in _excess_intervals(mags, cut)
        )
        links = [
            ("lower", float(top) * ((float(t) * cut_p + extra) / (1 + float(t))) ** (1 / r)),
            ("step_peak_moment", step.moment_root(p)),
            ("upper", float(top) * (cut_p + extra) ** (1 / r)),
        ]
        note = ROOTS_NOTE
    return _chain_report("step-moment-sandwich", {"t": t, "p": p}, links, note)


# ---------------------------------------------------------------------------
# walk-peak quantile comparison (log-ratio constant)


def check_walk_quantile_ratio(seq: IndependentSequence, t, s) -> RatioReport:
    """Constant required by the quantile comparison

        peak*(t) <= c * log(1/t)/max(log(1/s), log log(4/t))
                      * (peak*(s) + step_peak*(t/2)),  0 < t <= s <= 1/2.

    Reports the per-instance required c (ratio form); never asserted.
    """
    if not 0 < t <= s or s > Fraction(1, 2):
        raise ValueError("need 0 < t <= s <= 1/2")
    walk = seq.walk_peak_law
    step = seq.step_peak_law
    peak_t = rearrangement_at(walk, t)
    peak_s = rearrangement_at(walk, s)
    step_half = rearrangement_at(step, t / 2)
    params = {"t": t, "s": s}
    components = {
        "walk_quantile_t": peak_t,
        "walk_quantile_s": peak_s,
        "step_quantile_half_t": step_half,
    }
    denom_sum = peak_s + step_half
    if denom_sum == 0:
        if peak_t == 0:
            return RatioReport("walk-quantile-ratio", params, 0.0, components)
        degenerate = "zero denominator with a nonzero quantile"
        return RatioReport("walk-quantile-ratio", params, math.inf, components, degenerate)
    numer = float(peak_t) * max(math.log(1 / float(s)), math.log(math.log(4 / float(t))))
    denom = math.log(1 / float(t)) * float(denom_sum)
    return RatioReport("walk-quantile-ratio", params, numer / denom, components)


# ---------------------------------------------------------------------------
# truncation-based comparisons (identity frame)


def _capped_walk_law(frame: IndependentSequence, transform, cut) -> ScalarLaw:
    """Walk-peak law of the identity frame after `transform` replaces steps
    by the identity: `truncate` those of magnitude > cut, `truncate_upper`
    those of magnitude <= cut.

    Built once per sequence and (transform, cut).  A truncation that
    replaces no step leaves the sequence as it is, and so the frame's own law.
    """

    def build():
        inst = frame.instance
        e = inst.identity
        # `truncate` replaces exactly the atoms with distance(e, x) > cut
        if transform is truncate and all(
            inst.distance(e, x) <= cut for var in frame.variables for x in var.support
        ):
            return frame.walk_peak_law
        capped = [transform(var, cut, inst) for var in frame.variables]
        return frame.with_variables(capped).walk_peak_law

    return frame.derived((transform, cut), build)


def check_moment_vs_quantile(seq: IndependentSequence, p):
    """The two approximation ratios comparing E[peak^p]^(1/p) with
    peak*(e^-p/4) + E[agg^p]^(1/p), plain and with large steps removed.

    Returns (plain ratio report, truncated ratio report); ratios are
    recorded for corpus aggregation, not asserted.
    """
    _check_order(p)
    frame, note = _identity_frame(seq)
    mags = aggregate_tail(frame)
    walk = frame.walk_peak_law
    agg_root = tail_sum_inverse_law(mags).moment_root(p)
    walk_root = walk.moment_root(p)
    quarter = math.exp(-float(p)) / 4
    eighth = math.exp(-float(p)) / 8
    params = {"p": p}

    def ratio_report(name, quantile, extra):
        denom = float(quantile) + float(agg_root)
        components = {
            "walk_moment_root": walk_root,
            "quantile_term": quantile,
            "agg_moment_root": agg_root,
        } | extra
        if denom == 0:
            return RatioReport(
                name,
                params,
                1.0,
                components,
                degenerate="identically zero walk",
                note=note,
            )
        return RatioReport(name, params, float(walk_root) / denom, components, note=note)

    plain = ratio_report("moment-vs-quantile", rearrangement_at(walk, quarter), {})
    cut = tail_sum_inverse(mags, eighth)
    capped_quantile = rearrangement_at(_capped_walk_law(frame, truncate, cut), quarter)
    truncated = ratio_report(
        "moment-vs-quantile-truncated", capped_quantile, {"cutoff": cut}
    )
    return plain, truncated


def check_truncated_quantile_shift(
    seq: IndependentSequence, p, eta=None
) -> InequalityReport:
    """Removing steps above the aggregate quantile at r = e^-p/8 shifts walk
    quantiles by at most r:  capped_peak*(eta) <= peak*(eta - r), eta >= r."""
    _check_order(p, exact_powers=False)
    r = math.exp(-float(p)) / 8
    if eta is None:
        eta = math.exp(-float(p)) / 4
    if not r <= eta <= 1:
        raise ValueError(f"eta must lie in [{r}, 1]")
    frame, note = _identity_frame(seq)
    cut = tail_sum_inverse(aggregate_tail(frame), r)
    lhs = rearrangement_at(_capped_walk_law(frame, truncate, cut), eta)
    rhs = rearrangement_at(frame.walk_peak_law, eta - r)
    return make_report(
        "truncated-quantile-shift",
        {"p": p, "eta": eta},
        lhs,
        rhs,
        components={"cutoff": cut, "shift": r},
        note=note,
    )


def check_walk_moment_bound(seq: IndependentSequence, p) -> InequalityReport:
    """Moment bound for the walk peak by the step peak and one quantile:

        E[peak^p] <= 2^(1+2p) * (E[step peak^p] + peak*(2^(-1-2p))^p).

    When a side leaves the float range, their p-th roots are compared
    instead, the right one as 2^((1+2p)/p) * M * (E[(step peak/M)^p] +
    (peak*/M)^p)^(1/p) with M the larger of the step peak's largest value
    and the quantile, as `ScalarLaw.moment_root` rescales.
    """
    _check_order(p)
    if p > MAX_EXACT_ORDER:
        raise ValueError(
            f"moment order is above {MAX_EXACT_ORDER}, "
            "where the scale 2^(1+2p) is not evaluated"
        )
    walk = seq.walk_peak_law
    step = seq.step_peak_law
    if isinstance(p, int):
        level = Fraction(1, 2 ** (1 + 2 * p))
        scale = 2 ** (1 + 2 * p)
    else:
        level = 2.0 ** (-1.0 - 2.0 * p)
        scale = 2.0 ** (1.0 + 2.0 * p)
    quantile = rearrangement_at(walk, level)
    lhs = walk.moment(p)
    rhs = scale * (step.moment(p) + pow_value(quantile, p))
    note = None
    if math.inf in (lhs, rhs):
        top, r = max(step.max_value, quantile), float(p)
        scaled = sum(float(q) * float(v / top) ** r for v, q in zip(step.values, step.probs))
        scaled += float(quantile / top) ** r
        lhs = walk.moment_root(p)
        rhs = 2.0 ** ((1.0 + 2.0 * r) / r) * float(top) * scaled ** (1.0 / r)
        note = ROOTS_NOTE
    return make_report(
        "walk-moment-bound",
        {"p": p},
        lhs,
        rhs,
        components={"quantile_level": level, "walk_quantile": quantile},
        note=note,
    )


def check_spike_moment_bound(seq: IndependentSequence, r, p) -> InequalityReport:
    """Keeping only steps above the aggregate quantile at r, the walk peak's
    p-th moment root is at most 2 * e^(2^p * r / p) * E[agg^p]^(1/p)."""
    if not 0 < r < 1:
        raise ValueError("r must lie in (0, 1)")
    _check_order(p)
    frame, note = _identity_frame(seq)
    mags = aggregate_tail(frame)
    cut = tail_sum_inverse(mags, r)
    lhs = _capped_walk_law(frame, truncate_upper, cut).moment_root(p)
    agg_root = tail_sum_inverse_law(mags).moment_root(p)
    try:
        rhs = 2.0 * math.exp(2.0 ** float(p) * float(r) / float(p)) * agg_root
    except OverflowError:
        # e^(2^p * r / p) lies beyond the float range: the bound is infinite
        # unless the moment it multiplies is zero
        rhs = math.inf if agg_root else 0.0
    return make_report(
        "spike-moment-bound",
        {"r": r, "p": p},
        lhs,
        rhs,
        components={"cutoff": cut},
        note=note,
    )


# ---------------------------------------------------------------------------
# moment growth in the order (universal constants c, c')


def moment_growth_factor(p, q, eps) -> float:
    return float(q) / max(float(p), math.log(float(eps) + float(q)))


def moment_growth_multiplier(p0, eps) -> float:
    """Factor turning a constant for the first growth bound into one for the
    second: 8^(1/p0) * e + max(1, log(eps + p0)/p0)."""
    p0 = float(p0)
    return 8.0 ** (1.0 / p0) * math.e + max(1.0, math.log(float(eps) + p0) / p0)


def _validate_growth_params(p0, p, q, eps, second: bool):
    _check_order(p0, "threshold p0", exact_powers=False)
    _check_order(p, "moment order p")
    _check_order(q, "moment order q")
    # A non-integer order may come as a float; compare all three as floats
    # then, so that p = float(1/3) and p0 = Fraction(1, 3) count as equal.
    orders = (q, p, p0)
    if any(isinstance(x, float) for x in orders):
        q, p, p0 = map(float, orders)
    if not q >= p >= p0:
        raise ValueError("need q >= p >= p0")
    if not -q < eps <= math.log(16):
        raise ValueError("need eps in (-q, log 16]")
    if second and eps < min(1.0, math.e - float(p0)):
        raise ValueError(
            "second growth bound needs eps >= min(1, e - p0); "
            f"got eps = {eps} with p0 = {p0}"
        )


def moment_growth_components(seq: IndependentSequence, p, q) -> dict:
    walk = seq.walk_peak_law
    step = seq.step_peak_law
    return {
        "walk_root_q": walk.moment_root(q),
        "walk_root_p": walk.moment_root(p),
        "step_quantile": rearrangement_at(step, math.exp(-float(q)) / 8),
        "step_root_q": step.moment_root(q),
    }


def _combined_growth_sides(parts: dict) -> tuple:
    """The second growth bound reads left <= c' * q/max(p, log(eps+q)) * base;
    (left, base) from the components of the first bound at p and q."""
    return float(parts["walk_root_q"]), float(parts["walk_root_p"]) + float(parts["step_root_q"])


def _combined_growth_report(sides, p0, p, q, eps, cprime, components=None) -> InequalityReport:
    """The second growth bound at c' on the (left, base) that
    `_combined_growth_sides` gives; the parameters are taken as validated."""
    lhs, base = sides
    return make_report(
        "moment-growth-combined",
        {"p0": p0, "p": p, "q": q, "eps": eps, "cprime": cprime},
        lhs,
        float(cprime) * moment_growth_factor(p, q, eps) * base,
        components=components,
    )


def check_moment_growth(seq: IndependentSequence, p0, p, q, eps, c, cprime=None):
    """The two moment-growth bounds with explicit constants:

    (1) E[peak^q]^(1/q) <= c * q/max(p, log(eps+q))
            * (E[peak^p]^(1/p) + step_peak*(e^-q/8)) + c * E[step^q]^(1/q)
    (2) E[peak^q]^(1/q) <= c' * q/max(p, log(eps+q))
            * (E[peak^p]^(1/p) + E[step^q]^(1/q)),   eps >= min(1, e - p0).

    When `cprime` is omitted it is derived from c by the standard multiplier.
    Returns (first report, second report).
    """
    _validate_growth_params(p0, p, q, eps, second=True)
    if cprime is None:
        cprime = float(c) * moment_growth_multiplier(p0, eps)
    parts = moment_growth_components(seq, p, q)
    factor = moment_growth_factor(p, q, eps)
    rhs = float(c) * factor * (
        float(parts["walk_root_p"]) + float(parts["step_quantile"])
    ) + float(c) * float(parts["step_root_q"])
    first = make_report(
        "moment-growth",
        {"p0": p0, "p": p, "q": q, "eps": eps, "c": c},
        float(parts["walk_root_q"]),
        rhs,
        components=parts,
    )
    sides = _combined_growth_sides(parts)
    return first, _combined_growth_report(sides, p0, p, q, eps, cprime, components=parts)


# ---------------------------------------------------------------------------
# corpus estimators: one pass over any iterable of sequences, keeping no item
# once past it, on the reports one function gives per item and constant


DEFAULT_PQ_GRID = ((1, 1), (1, 2), (2, 4), (1, 8))
DEFAULT_T_GRID = (Fraction(1, 100), Fraction(1, 20), Fraction(1, 10))
DEFAULT_S_GRID = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2))


def quantile_ratio_reports(
    seq: IndependentSequence, t_grid=DEFAULT_T_GRID, s_grid=DEFAULT_S_GRID
):
    """The constant the quantile comparison requires of `seq` at each grid
    point with t <= s."""
    for t in t_grid:
        for s in s_grid:
            if t <= s:
                yield check_walk_quantile_ratio(seq, t, s)


def moment_vs_quantile_reports(seq: IndependentSequence, p_grid=(1, 2)):
    """Both approximation ratios of `seq` at each order of the grid."""
    for p in p_grid:
        yield from check_moment_vs_quantile(seq, p)


def moment_growth_reports(seq: IndependentSequence, p0, eps, pq_grid=DEFAULT_PQ_GRID):
    """The constant the first growth bound requires of `seq` at each (p, q),
    with the components it comes from; inf, and degenerate, when both sides
    are identically zero."""
    for p, q in pq_grid:
        _validate_growth_params(p0, p, q, eps, second=False)
        parts = moment_growth_components(seq, p, q)
        denom = moment_growth_factor(p, q, eps) * (
            float(parts["walk_root_p"]) + float(parts["step_quantile"])
        ) + float(parts["step_root_q"])
        yield RatioReport(
            "moment-growth-required",
            {"p0": p0, "p": p, "q": q},
            float(parts["walk_root_q"]) / denom if denom else math.inf,
            parts,
            degenerate=None if denom else "identically zero denominators",
        )


def _supremum(name, corpus, item_reports, grid_size, seed, extra_params=None):
    """The largest ratio among the non-degenerate reports `item_reports(seq)`
    gives over one pass of the corpus, with a witness for the first report
    that reached it; the witness params are the report's plus `extra_params`."""
    best = -1.0
    witness: dict = {}
    skipped = size = 0
    for index, seq in enumerate(corpus):
        size = index + 1
        for rep in item_reports(seq):
            if rep.degenerate:
                skipped += 1
            elif rep.ratio > best:
                best = rep.ratio
                witness = {
                    "corpus_index": index,
                    "sequence": sequence_to_config(seq),
                    "params": rep.params | (extra_params or {}),
                    "ratio": rep.ratio,
                }
    return ConstantEstimate(
        name=name,
        value=best,
        witness=witness,
        corpus_size=size,
        grid_size=grid_size,
        seed=seed,
        skipped_degenerate=skipped,
    )


def estimate_quantile_ratio_constant(
    corpus,
    t_grid=DEFAULT_T_GRID,
    s_grid=DEFAULT_S_GRID,
    seed: int | None = None,
) -> ConstantEstimate:
    """Supremal required constant for the walk-quantile comparison over a
    corpus and a (t, s) grid; monotone under corpus inclusion."""
    t_grid, s_grid = tuple(t_grid), tuple(s_grid)
    return _supremum(
        "walk-quantile-ratio-constant",
        corpus,
        lambda seq: quantile_ratio_reports(seq, t_grid, s_grid),
        sum(t <= s for t in t_grid for s in s_grid),
        seed,
    )


def sweep_moment_growth(corpus, p0, eps, seed: int | None = None) -> dict:
    """Estimate c as the supremal required constant of the first growth bound
    over the corpus and the default (p, q) grid (monotone under corpus
    inclusion), then check the second growth bound at c' = c * multiplier on
    every item and grid point, from the sides recorded in the same pass."""
    for p, q in DEFAULT_PQ_GRID:
        _validate_growth_params(p0, p, q, eps, second=True)
    sides = {pq: array("d") for pq in DEFAULT_PQ_GRID}  # flat (left, base) pairs

    def item_reports(seq):
        for rep in moment_growth_reports(seq, p0, eps):
            pq = rep.params["p"], rep.params["q"]
            sides[pq].extend(_combined_growth_sides(rep.components))
            yield rep

    estimate = _supremum(
        "moment-growth-constant", corpus, item_reports, len(DEFAULT_PQ_GRID), seed, {"eps": eps}
    )
    multiplier = moment_growth_multiplier(p0, eps)
    cprime = estimate.value * multiplier
    checked = violations = 0
    for (p, q), flat in sides.items():
        for pair in zip(flat[::2], flat[1::2]):
            checked += 1
            violations += not _combined_growth_report(pair, p0, p, q, eps, cprime).holds
    return {
        "estimate": estimate,
        "multiplier": multiplier,
        "cprime": cprime,
        "second_bound_checked": checked,
        "second_bound_violations": violations,
    }


def sweep_moment_vs_quantile(corpus, p_grid=(1, 2), seed: int | None = None) -> dict:
    """Record the range of the two approximation ratios over a corpus.

    Both ratios stay bounded and positive; the extremes are reported with
    witnesses but no bound is asserted (no numeric constants exist to pin).
    """
    names = ("moment-vs-quantile", "moment-vs-quantile-truncated")
    stats = {name: {"min": math.inf, "max": -math.inf} for name in names}
    witnesses: dict = {}
    degenerate = size = 0
    for index, seq in enumerate(corpus):
        size = index + 1
        for rep in moment_vs_quantile_reports(seq, p_grid):
            if rep.degenerate:
                degenerate += 1
                continue
            entry = stats[rep.name]
            for end, beats in (("max", rep.ratio > entry["max"]),
                               ("min", rep.ratio < entry["min"])):
                if beats:
                    entry[end] = rep.ratio
                    witnesses[f"{rep.name}-{end}"] = {
                        "corpus_index": index,
                        "params": rep.params,
                        "ratio": rep.ratio,
                    }
    return {
        "ratios": stats,
        "witnesses": witnesses,
        "corpus_size": size,
        "p_grid": list(p_grid),
        "seed": seed,
        "skipped_degenerate": degenerate,
    }


# ---------------------------------------------------------------------------
# the table of inequalities: one row per `sgverify check --ineq` name


@dataclass(frozen=True)
class Sweep:
    """`sgverify sweep --constant <constant>`: `item_reports(seq, p0, eps)`
    yields one item's reports over the sweep's grid, the rows of a CSV sweep;
    `estimate(corpus, p0, eps, seed)` returns (JSON results, bound violated)."""

    constant: str
    item_reports: Callable
    estimate: Callable


@dataclass(frozen=True)
class Inequality:
    """One `--ineq` name.  `required` and `optional` map the flags it reads
    to their kinds: int, Fraction (rational) or float (finite).
    `reports(seq, flags)` returns its reports, and takes engine, trials and
    seed too when `takes_mc`; `--ineq all` checks it at each point (a dict of
    flags) of `defaults(seq)`."""

    required: dict
    optional: dict
    reports: Callable
    defaults: Callable
    takes_mc: bool = False
    sweep: Sweep | None = None

    @property
    def flags(self) -> dict:
        return self.required | self.optional


# Flags that every check config carries, at these values when not given.
FLAG_DEFAULTS = {"p0": Fraction(1), "eps": math.log(16)}


def _exponent(value):
    """A moment order: integers stay ints, so that exact arithmetic applies."""
    frac = Fraction(value)
    return int(frac) if frac.denominator == 1 else float(frac)


def _p(flags: dict):
    """The moment order --p, 1 when it is not given."""
    return _exponent(flags.get("p", 1))


def _median(law: ScalarLaw):
    return law.values[(len(law.values) - 1) // 2]


def _hj_reports(seq, flags: dict, **mc) -> list:
    """The block bound at blocks --n1/--t1, --n2/--t2, ... with no gap, and
    the shift --s (0 when not given)."""
    k = max(i for i in (1, 2, 3) if f"n{i}" in flags or f"t{i}" in flags)
    missing = [f"--{x}{i}" for i in range(1, k + 1) for x in "nt" if f"{x}{i}" not in flags]
    if missing:
        raise ValueError(f"hj needs {' and '.join(missing)} for {k} blocks")
    if "k" in flags and flags["k"] != k:
        raise ValueError(f"--k {flags['k']} does not match {k} block sizes")
    sizes, thresholds = ([flags[f"{x}{i}"] for i in range(1, k + 1)] for x in "nt")
    params = HJParameters(tuple(sizes), tuple(thresholds), flags.get("s", Fraction(0)))
    return [check_hj(seq, params, **mc)]


def _hj_defaults(seq) -> list:
    block = {"n1": 2, "t1": _median(seq.walk_peak_law), "s": _median(seq.step_peak_law)}
    return [block] + ([block | {"n2": 2, "t2": block["t1"]}] if seq.n >= 3 else [])


def _moment_growth_reports(seq, flags: dict) -> list:
    """Both growth bounds at --c (and --cprime) when --c is given, else the
    constant the first bound requires at p0, p, q and eps."""
    p0, p, q, eps = flags["p0"], _exponent(flags["p"]), _exponent(flags["q"]), flags["eps"]
    if "c" in flags:
        return list(check_moment_growth(seq, p0, p, q, eps, flags["c"], flags.get("cprime")))
    if "cprime" in flags:
        raise ValueError("--cprime needs --c")
    (rep,) = moment_growth_reports(seq, p0, eps, [(p, q)])
    params = {"p0": p0, "p": flags["p"], "q": flags["q"], "eps": eps}
    return [replace(rep, params=params, components={})]


def _sweep_c(corpus, p0, eps, seed) -> tuple:
    results = sweep_moment_growth(corpus, p0=_exponent(p0), eps=eps, seed=seed)
    return results, results["second_bound_violations"] > 0


# `--ineq all` runs the rows in this order.  A row calls its checkers by
# their names in this module, so that a wrapper set there sees the calls.
INEQUALITIES = {
    "hj": Inequality(
        {"n1": int, "t1": Fraction},
        {"k": int, "n2": int, "t2": Fraction, "n3": int, "t3": Fraction, "s": Fraction},
        _hj_reports, _hj_defaults, takes_mc=True),
    "hj-simple": Inequality(
        {"repeats": int, "t": Fraction}, {},
        lambda seq, f, **mc: [check_hj_simple(seq, f["repeats"], f["t"], **mc)],
        lambda seq: [{"repeats": k, "t": t} for t in [_median(seq.walk_peak_law)] if t > 0
                     for k in (1, 2)],
        takes_mc=True),
    "mogulskii": Inequality(
        {"m": int, "a": Fraction, "b": Fraction}, {},
        lambda seq, f: list(check_mogulskii(seq, f["m"], f["a"], f["b"])),
        lambda seq: [{"m": 1, "a": r, "b": r} for r in [_median(seq.end_distance_law)]]),
    "quantile-chain": Inequality(
        {"t": Fraction}, {}, lambda seq, f: [check_step_quantile_chain(seq, f["t"])],
        lambda seq: [{"t": Fraction(1, 10)}, {"t": Fraction(2, 5)}]),
    "moment-sandwich": Inequality(
        {"t": Fraction, "p": Fraction}, {},
        lambda seq, f: [check_step_moment_sandwich(seq, f["t"], _p(f))],
        lambda seq: [{"t": Fraction(1, 4), "p": 1}, {"t": Fraction(1, 2), "p": 2}]),
    "quantile-ratio": Inequality(
        {"t": Fraction, "s": Fraction}, {},
        lambda seq, f: [check_walk_quantile_ratio(seq, f["t"], f["s"])],
        lambda seq: [{"t": Fraction(1, 10), "s": Fraction(1, 2)}],
        sweep=Sweep("c1", lambda seq, p0, eps: quantile_ratio_reports(seq),
                    lambda corpus, p0, eps, seed: (
                        estimate_quantile_ratio_constant(corpus, seed=seed), False))),
    "moment-vs-quantile": Inequality(
        {}, {"p": Fraction}, lambda seq, f: list(check_moment_vs_quantile(seq, _p(f))),
        lambda seq: [{"p": 1}],
        sweep=Sweep("approx-ratios", lambda seq, p0, eps: moment_vs_quantile_reports(seq),
                    lambda corpus, p0, eps, seed: (
                        sweep_moment_vs_quantile(corpus, seed=seed), False))),
    "trunc-quantile": Inequality(
        {}, {"p": Fraction, "eta": float},
        lambda seq, f: [check_truncated_quantile_shift(seq, _p(f), f.get("eta"))],
        lambda seq: [{"p": 1}]),
    "walk-moment": Inequality(
        {}, {"p": Fraction}, lambda seq, f: [check_walk_moment_bound(seq, _p(f))],
        lambda seq: [{"p": 1}, {"p": 2}]),
    "spike-moment": Inequality(
        {"r": Fraction}, {"p": Fraction},
        lambda seq, f: [check_spike_moment_bound(seq, f["r"], _p(f))],
        lambda seq: [{"r": Fraction(9, 10), "p": 1}]),
    "moment-growth": Inequality(
        {"p": Fraction, "q": Fraction}, {"p0": Fraction, "eps": float, "c": float, "cprime": float},
        _moment_growth_reports,
        lambda seq: [{"p0": 1, "p": 1, "q": 2, "eps": math.log(16)}],
        sweep=Sweep("c", lambda seq, p0, eps: moment_growth_reports(seq, p0, eps), _sweep_c)),
}


def suite_reports(seq: IndependentSequence):
    """The reports of `--ineq all`: each row of the table at each of its
    default points, in table order."""
    for row in INEQUALITIES.values():
        for flags in row.defaults(seq):
            yield from row.reports(seq, flags)
