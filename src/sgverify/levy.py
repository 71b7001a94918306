"""Partial-product walks on complete metric groups and the convergence
dichotomy probe.

The probe classifies a walk as converging or diverging from finite data: for
each path it tracks the Cauchy gap delta(w) = sup over w < m < n <= horizon
of d(s_m, s_n) at a ladder of window starts w.  Almost-sure statements are
not decidable from finite horizons, so the verdict is an explicit empirical
proxy (threshold fractions below), labeled as such in reports.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .laws import Sampler
from .rng import derive_seed, uniform_block
from .semigroups import (
    InstanceSpecError,
    MetricSemigroup,
    RealVectorGroup,
    TorusGroup,
    parse_instance,
)

PATH_THRESHOLD = 0.05   # converging: fraction of paths above the finest eps
DIVERGENCE_FLOOR = 0.5  # diverging: fraction above the coarsest eps, all windows


class UniformBoxSampler(Sampler):
    """Uniform draw from a centered box of the given half-width per axis."""

    def __init__(self, instance: MetricSemigroup, halfwidth: float):
        if not isinstance(instance, (TorusGroup, RealVectorGroup)):
            raise InstanceSpecError(
                f"box samplers need a torus or vector instance, not {instance.name}"
            )
        self.instance = instance
        self.halfwidth = float(halfwidth)
        self.width = instance.dim

    def draw(self, u: Sequence[float]):
        coords = ((2.0 * v - 1.0) * self.halfwidth for v in u)
        if isinstance(self.instance, TorusGroup):
            return tuple(c % 1.0 for c in coords)
        return tuple(coords)


class PointSampler(Sampler):
    """Deterministic step; consumes no randomness."""

    width = 0

    def __init__(self, element):
        self.element = element

    def draw(self, u: Sequence[float]):
        return self.element


def make_schedule(instance: MetricSemigroup, schedule: str, horizon: int) -> list:
    """Step samplers for indices 1..horizon.

    ``geometric:B``: step j uniform in a box of half-width B^-j;
    ``constant:uniform``: uniform over the unit box at every index;
    ``mixed:B:J``: unit-box steps through index J, then shrinking as B^-(j-J);
    ``zero``: identity steps.
    """
    parts = schedule.split(":")
    full_width = 0.5 if isinstance(instance, TorusGroup) else 1.0
    if parts[0] == "geometric" and len(parts) == 2:
        base = float(parts[1])
        if base <= 1:
            raise InstanceSpecError("geometric schedule base must be > 1")
        return [
            UniformBoxSampler(instance, base ** -(j + 1)) for j in range(horizon)
        ]
    if parts[0] == "constant" and parts[1:] == ["uniform"]:
        return [UniformBoxSampler(instance, full_width) for _ in range(horizon)]
    if parts[0] == "mixed" and len(parts) == 3:
        base = float(parts[1])
        switch = int(parts[2])
        if base <= 1 or switch < 0:
            raise InstanceSpecError("mixed schedule needs base > 1 and switch >= 0")
        return [
            UniformBoxSampler(
                instance, full_width if j < switch else base ** -(j + 1 - switch)
            )
            for j in range(horizon)
        ]
    if parts == ["zero"]:
        if not instance.has_identity:
            raise InstanceSpecError("zero schedule needs an identity element")
        return [PointSampler(instance.identity) for _ in range(horizon)]
    raise InstanceSpecError(f"unknown schedule {schedule!r}")


@dataclass(frozen=True)
class WalkConfig:
    instance: str = "torus:1"
    schedule: str = "geometric:3"
    horizon: int = 200
    paths: int = 100
    seed: int = 0
    eps_grid: tuple = (0.1, 0.03, 0.01)
    windows: tuple = (10, 25, 50, 100)

    def __post_init__(self):
        if self.horizon < 2 or self.paths < 1:
            raise ValueError("need horizon >= 2 and paths >= 1")
        eps = self.eps_grid
        finite = all(isinstance(e, numbers.Real) and 0 < e < math.inf for e in eps)
        if not eps or not finite or list(eps) != sorted(eps, reverse=True):
            raise ValueError("eps grid must be finite, positive and decreasing")
        if not self.windows or max(self.windows) >= self.horizon or min(self.windows) < 1:
            raise ValueError("window starts must lie in 1..horizon-1")

    def to_jsonable(self) -> dict:
        return {
            "instance": self.instance,
            "schedule": self.schedule,
            "horizon": self.horizon,
            "paths": self.paths,
            "seed": self.seed,
            "eps_grid": list(self.eps_grid),
            "windows": list(self.windows),
        }

    @staticmethod
    def from_config(config: dict) -> "WalkConfig":
        allowed = {"instance", "schedule", "horizon", "paths", "seed", "eps_grid", "windows"}
        unknown = set(config) - allowed
        if unknown:
            raise ValueError(f"unknown walk config keys: {sorted(unknown)}")
        cfg = dict(config)
        for key in ("eps_grid", "windows"):
            if key in cfg:
                cfg[key] = tuple(cfg[key])
        return WalkConfig(**cfg)


@dataclass
class WalkResult:
    config: WalkConfig
    instance: MetricSemigroup
    positions: list          # per path: [s_1, ..., s_horizon]
    distances: list          # per path: [d(e, s_j)] from the identity
    gap_profiles: list       # per path: {window: cauchy gap}
    endpoint_profiles: list  # per path: {window: sup_n d(s_w, s_n)}


def simulate_walk(config: WalkConfig) -> WalkResult:
    """Simulate all paths; path i's randomness derives from (seed, i)."""
    instance = parse_instance(config.instance)
    schedule = make_schedule(instance, config.schedule, config.horizon)
    total_width = sum(s.width for s in schedule)
    identity = instance.identity
    positions = []
    distances = []
    gaps = []
    endpoints = []
    for path in range(config.paths):
        path_seed = derive_seed(config.seed, "path", path)
        u = uniform_block(path_seed, max(total_width, 1), 0, 1)[0]
        col = 0
        cur = identity
        pos = []
        dist = []
        for sampler in schedule:
            step = sampler.draw(u[col : col + sampler.width])
            col += sampler.width
            cur = instance.compose(cur, step)
            pos.append(cur)
            dist.append(instance.distance(identity, cur))
        positions.append(pos)
        distances.append(dist)
        gap, endpoint = _gap_profiles(instance, pos, config.windows)
        gaps.append(gap)
        endpoints.append(endpoint)
    return WalkResult(config, instance, positions, distances, gaps, endpoints)


def _pairwise_row_max(instance: MetricSemigroup, positions: list) -> list:
    """row_max[m] = max over n > m of d(s_m, s_n), 0-based indices."""
    horizon = len(positions)
    if isinstance(instance, (TorusGroup, RealVectorGroup)):
        arr = np.asarray(positions, dtype=float)
        out = []
        for m in range(horizon - 1):
            delta = np.abs(arr[m + 1 :] - arr[m])
            if isinstance(instance, TorusGroup):
                delta = np.minimum(delta, 1.0 - delta)
            if instance.norm == "sup":
                vals = delta.max(axis=1)
            else:
                vals = np.sqrt((delta**2).sum(axis=1))
            out.append(float(vals.max()))
        out.append(0.0)
        return out
    out = []
    for m in range(horizon - 1):
        out.append(
            max(instance.distance(positions[m], positions[n]) for n in range(m + 1, horizon))
        )
    out.append(0.0)
    return out


def _gap_profiles(instance, positions, windows):
    """Cauchy gaps and endpoint gaps at each window start (1-based windows)."""
    row_max = _pairwise_row_max(instance, positions)
    horizon = len(positions)
    suffix = [0.0] * (horizon + 1)
    for m in range(horizon - 1, -1, -1):
        suffix[m] = max(row_max[m], suffix[m + 1])
    gaps = {}
    endpoints = {}
    for w in windows:
        # delta(w) ranges over indices strictly above w; s_j sits at positions[j-1]
        gaps[w] = suffix[w]
        endpoints[w] = row_max[w - 1]
    return gaps, endpoints


@dataclass(frozen=True)
class ConvergenceVerdict:
    verdict: str
    eps_grid: tuple
    windows: tuple
    exceed_fractions: dict   # eps -> [fraction of paths with gap >= eps per window]
    path_classes: tuple
    inconclusive_fraction: float
    max_gap_by_window: dict

    def to_jsonable(self) -> dict:
        return {
            "verdict": self.verdict,
            "eps_grid": list(self.eps_grid),
            "windows": list(self.windows),
            "exceed_fractions": {str(k): v for k, v in self.exceed_fractions.items()},
            "path_classes": list(self.path_classes),
            "inconclusive_fraction": self.inconclusive_fraction,
            "max_gap_by_window": {str(k): v for k, v in self.max_gap_by_window.items()},
            "proxy": "finite-horizon thresholds; not an almost-sure certificate",
        }


def detect_convergence(result: WalkResult) -> ConvergenceVerdict:
    """Threshold-based verdict over the simulated paths.

    converging: at the last window, at most 5% of paths gap above the finest
    eps; diverging: at every window, at least half the paths gap above the
    coarsest eps; inconclusive otherwise.  Per-path classes use the same
    thresholds at the last window.
    """
    cfg = result.config
    windows = cfg.windows
    eps_grid = cfg.eps_grid
    last = windows[-1]
    paths = len(result.gap_profiles)
    exceed = {
        eps: [
            sum(1 for g in result.gap_profiles if g[w] >= eps) / paths for w in windows
        ]
        for eps in eps_grid
    }
    classes = []
    for g in result.gap_profiles:
        final_gap = g[last]
        if final_gap < min(eps_grid):
            classes.append("converging")
        elif final_gap >= max(eps_grid):
            classes.append("diverging")
        else:
            classes.append("inconclusive")
    inconclusive = classes.count("inconclusive") / paths
    if all(exceed[eps][-1] <= PATH_THRESHOLD for eps in eps_grid):
        verdict = "converging"
    elif all(
        frac >= DIVERGENCE_FLOOR for frac in exceed[max(eps_grid)]
    ):
        verdict = "diverging"
    else:
        verdict = "inconclusive"
    max_gap = {w: max(g[w] for g in result.gap_profiles) for w in windows}
    return ConvergenceVerdict(
        verdict=verdict,
        eps_grid=eps_grid,
        windows=windows,
        exceed_fractions=exceed,
        path_classes=tuple(classes),
        inconclusive_fraction=inconclusive,
        max_gap_by_window=max_gap,
    )


def equivalence_experiment(result: WalkResult) -> dict:
    """Compare the in-probability proxy with the pathwise Cauchy proxy.

    The pathwise criterion checks the Cauchy gap at the last window; the
    in-probability criterion checks the endpoint displacement d(s_w, s_n)
    at the horizon.  Stochastic and almost-sure convergence coincide for
    these walks, so the two indicators should agree on almost every path.
    """
    config = result.config
    verdict = detect_convergence(result)
    eps = min(config.eps_grid)
    last = config.windows[-1]
    pathwise = [g[last] < eps for g in result.gap_profiles]
    inprob = []
    for pos in result.positions:
        inprob.append(result.instance.distance(pos[last - 1], pos[-1]) < eps)
    agree = sum(1 for a, b in zip(pathwise, inprob) if a == b) / len(pathwise)
    return {
        "config": config.to_jsonable(),
        "verdict": verdict.to_jsonable(),
        "agreement_rate": agree,
        "pathwise_fraction": sum(pathwise) / len(pathwise),
        "inprob_fraction": sum(inprob) / len(inprob),
    }


def traces_to_csv(result: WalkResult) -> str:
    """Rows (path, step index, distance from the identity-based start)."""
    lines = ["path,j,distance"]
    for p, dist in enumerate(result.distances):
        for j, value in enumerate(dist, start=1):
            lines.append(f"{p},{j},{value!r}")
    return "\n".join(lines) + "\n"
