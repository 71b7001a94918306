"""The three benchmark workloads.

Each workload builds its inputs from the workload seed (`build`, part of
set-up) and then runs a fixed unit of work, a round, as often as the run
length allows.  Rounds start from fresh sequence objects, so a law cached
on a sequence by one round is built again by the next.  A round returns its
per-item timings (the same items in the same order every round), its
counts of checks and Monte Carlo trials, the outputs to hash, and the items
that failed.

Corpus workloads take a stratified slice of the seeded default corpus: the
first few items, in corpus order, of every carrier and joint-support size
(exact workloads) or every carrier and length (Monte Carlo).  Those set an
item's cost: a `posreal+1` step costs ten times an `int` step, and the
heaviest 5% of items take a quarter of the time.  Simulated from measured
item costs, the work in a plain prefix of the same size varies about four
times as much from seed to seed as in the `cli-batch` slice.
"""

from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

F = Fraction

SWEEPS = ("c", "c1", "approx-ratios")
# the benchmark's own copy: loosening the package's tolerance leaves it be
FLOAT_SLACK_TOL = 1e-12
# joint-support sizes (products of support sizes <= 3) common in the corpus
OUTCOME_COUNTS = (1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 27, 36, 54)


@dataclasses.dataclass
class Round:
    """What one round did; `outputs` are hashed after the timer stops."""

    item_times: list = dataclasses.field(default_factory=list)
    checks: int = 0
    trials: int = 0
    outputs: list = dataclasses.field(default_factory=list)
    failures: list = dataclasses.field(default_factory=list)


def report_problems(sv, reports) -> list:
    """Violations by the tolerance ladder: a non-degenerate rational check
    with slack < 0, or a float check with slack < -1e-12.  Monte Carlo
    checks are statistical outcomes, never errors."""
    problems = []
    for r in reports:
        if not isinstance(r, sv.reports.InequalityReport) or r.degenerate:
            continue
        arithmetic = r.engine.get("arithmetic")
        if arithmetic == "rational" and r.slack < 0:
            problems.append(f"{r.name}: exact slack {r.slack}")
        elif arithmetic == "float" and r.slack < -FLOAT_SLACK_TOL:
            problems.append(f"{r.name}: float slack {r.slack!r}")
    return problems


def stratified_corpus(sv, seed: int, per_stratum: int, stratum, values, count: int) -> tuple:
    """(corpus spec, [(corpus index, sequence)]): the first `per_stratum`
    items of every (carrier, stratum(seq)) pair, stratum(seq) in `values`,
    from the first `count` items of the default corpus for `seed`.

    `count` is fixed per workload, so set-up does the same work for every
    seed; it is doubled only when a stratum comes up short.
    """
    instances = sv.corpus.CorpusSpec().instances
    while True:
        spec = sv.corpus.CorpusSpec(count=count, seed=seed)
        buckets = {(inst, v): [] for inst in instances for v in values}
        for index, seq in enumerate(sv.corpus.generate_corpus(spec)):
            bucket = buckets.get((seq.instance.spec, stratum(seq)))
            if bucket is not None and len(bucket) < per_stratum:
                bucket.append((index, seq))
        if all(len(b) == per_stratum for b in buckets.values()):
            return spec, sorted(item for bucket in buckets.values() for item in bucket)
        count *= 2


def by_outcomes(sv, seed: int, per_stratum: int) -> tuple:
    """Strata of joint-support size, which sets the cost of exact laws.
    Sizes above 54 are rare (about 5% of items) and left out."""
    return stratified_corpus(
        sv, seed, per_stratum, lambda seq: seq.outcome_count, OUTCOME_COUNTS, 3000
    )


def fresh(seqs) -> list:
    """New sequence objects with no cached laws."""
    return [dataclasses.replace(seq) for seq in seqs]


def _timed_item(rnd: Round, work):
    """Run one item, recording its time and turning an exception into a
    failure; returns the item's result or None."""
    t0 = perf_counter()
    try:
        result = work()
    except Exception as exc:  # one item's failure must not end the run
        rnd.item_times.append(perf_counter() - t0)
        rnd.failures.append(f"{type(exc).__name__}: {exc}")
        rnd.outputs.append({"error": type(exc).__name__})
        return None
    rnd.item_times.append(perf_counter() - t0)
    return result


# ---------------------------------------------------------------------------


class Workload:
    """Defaults for workloads whose state holds the sequences in `seqs`."""

    def prepare(self, state: dict):
        """Per-round inputs, made before the round's timer starts."""
        return fresh(state["seqs"])

    def collect(self, sv, state: dict, rnd: Round):
        """Gather outputs the round left outside `rnd`, after its timer."""


class CliBatch(Workload):
    """In-process `sgverify check` per item, then three sweeps."""

    name = "cli-batch"
    per_stratum = 3

    def build(self, sv, seed: int, workdir: Path) -> dict:
        spec, items = by_outcomes(sv, seed, self.per_stratum)
        workdir.mkdir(parents=True, exist_ok=True)
        configs = [sv.laws.sequence_to_config(seq) for _, seq in items]
        paths = []
        for (index, _), config in zip(items, configs):
            path = workdir / f"item-{index:05d}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            paths.append(path)
        corpus_path = workdir / "corpus.json"
        corpus_path.write_text(
            sv.reports.canonical_json(
                {"command": "corpus", "config": spec.to_jsonable(), "sequences": configs}
            ),
            encoding="utf-8",
        )
        return {"seed": seed, "paths": paths, "corpus": corpus_path, "out": workdir / "out"}

    def prepare(self, state: dict):
        out = state["out"]
        out.mkdir(exist_ok=True)
        for old in out.iterdir():
            old.unlink()
        return None

    def run_round(self, sv, state: dict, _unused, span) -> Round:
        rnd = Round()
        out, corpus, seed = state["out"], str(state["corpus"]), str(state["seed"])
        calls = [
            (out / f"check-{path.stem}.json", ["check", str(path), "--ineq", "all"])
            for path in state["paths"]
        ] + [
            (
                out / f"sweep-{c}.json",
                ["sweep", "--constant", c, "--corpus", corpus, "--seed", seed],
            )
            for c in SWEEPS
        ]
        written = []
        for target, argv in calls:
            argv = argv + ["--out", str(target)]
            with span("bench.item"):
                code = _timed_item(rnd, lambda: sv.cli.main(argv))
            written.append((target, code))
        state["written"] = written
        return rnd

    def collect(self, sv, state: dict, rnd: Round):
        """Read the round's output files."""
        for target, code in state.pop("written"):
            if code is None:
                continue
            if code != 0:
                rnd.failures.append(f"{target.name}: exit code {code}")
            if not target.exists():
                rnd.failures.append(f"{target.name}: no output")
                continue
            data = target.read_bytes()
            rnd.outputs.append({"file": target.name, "exit": code, "bytes": data})
            results = json.loads(data)["results"]
            if target.name.startswith("check-"):
                rnd.checks += len(results)
            elif "estimate" in results:  # sweep c: estimator grid + second bound
                estimate = results["estimate"]
                rnd.checks += estimate["corpus_size"] * estimate["grid_size"]
                rnd.checks += results["second_bound_checked"]
            elif "grid_size" in results:  # sweep c1
                rnd.checks += results["corpus_size"] * results["grid_size"]
            else:  # approx-ratios: two ratio reports per (item, p)
                rnd.checks += 2 * results["corpus_size"] * len(results["p_grid"])


class McAgreement(Workload):
    """C10: Monte Carlo against exact tails on short corpus sequences."""

    name = "mc-agreement"
    per_stratum = 1
    trials = 10_000  # C10 uses 100,000; fewer per item buys more items per round

    def build(self, sv, seed: int, workdir: Path) -> dict:
        max_len = sv.corpus.CorpusSpec().max_len
        _, items = stratified_corpus(
            sv, seed, self.per_stratum, lambda seq: seq.n, range(1, max_len + 1), 400
        )
        return {"seed": seed, "indices": [i for i, _ in items], "seqs": [s for _, s in items]}

    def run_round(self, sv, state: dict, seqs, span) -> Round:
        rnd = Round()
        seed = state["seed"]
        for index, seq in zip(state["indices"], seqs):
            trial_seed = sv.rng.derive_seed(seed, "agree", index)
            with span("bench.item"):
                records = _timed_item(
                    rnd,
                    lambda: sv.laws.mc_tail_agreement(
                        seq, trials=self.trials, seed=trial_seed
                    ),
                )
            if records is not None:
                # one check per item, as C10 counts clean instances; the
                # number of grid points varies with the seed
                rnd.checks += 1
                rnd.trials += self.trials
                rnd.outputs.append(records)
        return rnd


class LongWalk(Workload):
    """Exact laws of long +-1 walks on `int`, and a 200-step Monte Carlo law."""

    name = "long-walk"
    lengths = (10, 12, 14)
    mogulskii_length = 12
    mc_steps = 200
    mc_trials = 10_000

    @staticmethod
    def walk(sv, seed: int, n: int):
        """n independent +-1 steps, P(+1) drawn from {3/10, ..., 7/10}."""
        draws = random.Random(sv.rng.derive_seed(seed, "long-walk", n))
        steps = []
        for _ in range(n):
            up = F(draws.randint(3, 7), 10)
            steps.append(sv.laws.DiscreteDistribution.of([(1, up), (-1, 1 - up)]))
        return sv.laws.IndependentSequence.build(
            sv.semigroups.IntegerAdditive(), steps, label=f"pm1-walk-{n}"
        )

    def build(self, sv, seed: int, workdir: Path) -> dict:
        lengths = sorted(set(self.lengths) | {self.mogulskii_length, self.mc_steps})
        return {"seed": seed, "walks": {n: self.walk(sv, seed, n) for n in lengths}}

    def prepare(self, state: dict):
        return {n: dataclasses.replace(seq) for n, seq in state["walks"].items()}

    def certify(self, sv, seq) -> list:
        """Checks that reuse the walk's laws instead of enumerating again."""
        ineq = sv.inequalities
        walk = seq.walk_peak_law
        t = walk.values[(len(walk.values) - 1) // 2] or walk.values[-1]
        return [
            ineq.check_walk_moment_bound(seq, 1),
            ineq.check_walk_moment_bound(seq, 2),
            ineq.check_hj_simple(seq, 1, t),
            ineq.check_hj_simple(seq, 2, t),
            ineq.check_step_quantile_chain(seq, F(1, 10)),
            ineq.check_step_moment_sandwich(seq, F(1, 4), 1),
        ]

    def run_round(self, sv, state: dict, walks, span) -> Round:
        rnd = Round()

        def item(work):
            with span("bench.item"):
                result = _timed_item(rnd, work)
            if result is not None:
                rnd.outputs.append(result)
            return result

        def checks(reports):
            if reports is not None:
                rnd.checks += len(reports)
                rnd.failures.extend(report_problems(sv, reports))

        for n in self.lengths:
            seq = walks[n]
            item(lambda: seq.walk_peak_law)
            item(lambda: seq.end_distance_law)
            checks(item(lambda: self.certify(sv, seq)))
        seq = walks[self.mogulskii_length]
        ends = seq.end_distance_law.values
        radius = ends[(len(ends) - 1) // 2]
        m = (seq.n + 1) // 2
        checks(item(lambda: list(sv.inequalities.check_mogulskii(seq, m, radius, radius))))
        seq = walks[self.mc_steps]
        trial_seed = sv.rng.derive_seed(state["seed"], "c12")
        law = item(
            lambda: sv.laws.monte_carlo_law(
                seq, "walk_peak", trials=self.mc_trials, seed=trial_seed
            )
        )
        if law is not None:
            rnd.trials += self.mc_trials
        return rnd


WORKLOADS = {w.name: w for w in (CliBatch(), McAgreement(), LongWalk())}
