import math

import pytest

from sgverify import (
    WalkConfig,
    detect_convergence,
    equivalence_experiment,
    make_schedule,
    parse_instance,
    simulate_walk,
)
from sgverify.levy import PointSampler, UniformBoxSampler, traces_to_csv


def test_geometric_walk_converges():
    result = simulate_walk(WalkConfig(seed=5))
    verdict = detect_convergence(result)
    assert verdict.verdict == "converging"
    assert verdict.inconclusive_fraction == 0.0
    # the tail of the step sizes bounds every Cauchy gap: sum_{j>w} 3^-j
    for profile in result.gap_profiles:
        for w in result.config.windows:
            assert profile[w] <= 3.0**-w


def test_constant_walk_diverges():
    result = simulate_walk(WalkConfig(schedule="constant:uniform", seed=5))
    verdict = detect_convergence(result)
    assert verdict.verdict == "diverging"


def test_zero_schedule_has_zero_gaps():
    cfg = WalkConfig(schedule="zero", paths=5, horizon=30, windows=(5, 10))
    result = simulate_walk(cfg)
    verdict = detect_convergence(result)
    assert verdict.verdict == "converging"
    assert all(g[10] == 0.0 for g in result.gap_profiles)


def test_gap_dominated_by_twice_endpoint_gap():
    result = simulate_walk(WalkConfig(schedule="constant:uniform", paths=20, seed=9))
    for gaps, ends in zip(result.gap_profiles, result.endpoint_profiles):
        for w in result.config.windows:
            assert gaps[w] <= 2.0 * ends[w] + 1e-12


def test_gaps_nonincreasing_in_window():
    result = simulate_walk(WalkConfig(schedule="constant:uniform", paths=20, seed=3))
    for gaps in result.gap_profiles:
        ordered = [gaps[w] for w in result.config.windows]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))


def test_verdict_deterministic():
    one = detect_convergence(simulate_walk(WalkConfig(seed=7))).to_jsonable()
    two = detect_convergence(simulate_walk(WalkConfig(seed=7))).to_jsonable()
    assert one == two


def test_equivalence_agreement_both_regimes():
    converging = equivalence_experiment(simulate_walk(WalkConfig(paths=40, seed=2)))
    assert converging["agreement_rate"] == 1.0
    assert converging["pathwise_fraction"] == 1.0
    diverging = equivalence_experiment(
        simulate_walk(WalkConfig(schedule="constant:uniform", paths=40, seed=2))
    )
    assert diverging["agreement_rate"] == 1.0
    assert diverging["pathwise_fraction"] == 0.0


def test_equivalence_mixed_schedule_converges_late():
    report = equivalence_experiment(
        simulate_walk(WalkConfig(schedule="mixed:3:50", paths=40, seed=2))
    )
    assert report["verdict"]["verdict"] == "converging"
    assert report["agreement_rate"] == 1.0
    assert report["pathwise_fraction"] == 1.0


def test_generic_instance_gap_path():
    # the non-numeric fallback computes the same profiles as the fast path
    cfg = WalkConfig(paths=3, horizon=40, windows=(5, 10), seed=4)
    result = simulate_walk(cfg)
    inst = parse_instance("torus:1")
    from sgverify.levy import _gap_profiles

    class Opaque:
        is_exact = False

        def distance(self, a, b):
            return inst.distance(a, b)

    for pos, gaps in zip(result.positions, result.gap_profiles):
        generic, _ = _gap_profiles(Opaque(), pos, cfg.windows)
        for w in cfg.windows:
            assert generic[w] == pytest.approx(gaps[w], abs=1e-12)


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(horizon=50, windows=(10, 60))
    with pytest.raises(ValueError):
        WalkConfig(eps_grid=(0.01, 0.1))
    with pytest.raises(ValueError):
        WalkConfig(eps_grid=())
    for grid in ((0.1, math.nan), (math.inf, 0.1), (0.1, "nan")):
        with pytest.raises(ValueError, match="finite, positive and decreasing"):
            WalkConfig(eps_grid=grid)
    with pytest.raises(ValueError):
        WalkConfig.from_config({"instance": "torus:1", "mystery": 2})


def test_schedules():
    tor = parse_instance("torus:1")
    sched = make_schedule(tor, "geometric:3", 5)
    assert [s.halfwidth for s in sched] == pytest.approx([3.0**-j for j in (1, 2, 3, 4, 5)])
    assert all(isinstance(s, UniformBoxSampler) for s in sched)
    zero = make_schedule(tor, "zero", 3)
    assert all(isinstance(s, PointSampler) for s in zero)
    with pytest.raises(Exception):
        make_schedule(tor, "geometric:0.5", 3)
    with pytest.raises(Exception):
        make_schedule(parse_instance("cyclic:6"), "constant:uniform", 3)


def test_trace_csv_shape():
    cfg = WalkConfig(paths=2, horizon=10, windows=(3, 5))
    result = simulate_walk(cfg)
    lines = traces_to_csv(result).strip().splitlines()
    assert lines[0] == "path,j,distance"
    assert len(lines) == 1 + 2 * 10


def test_paths_are_seed_derived_not_order_dependent():
    cfg = WalkConfig(paths=10, horizon=20, windows=(4, 8), seed=11)
    result = simulate_walk(cfg)
    solo = simulate_walk(
        WalkConfig(paths=3, horizon=20, windows=(4, 8), seed=11)
    )
    for p in range(3):
        assert result.positions[p] == solo.positions[p]
