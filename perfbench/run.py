"""sgverify benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-batch --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The workload runs whole rounds until the next one would
overrun `--seconds`.  Set-up (importing the package, generating inputs,
writing config files) is repeated before every round and its median
reported.  A round's time is reported at each item's fastest over the run's
rounds, which filters out the host's interference (README.md, End-to-end
metrics).

With `--trace 0` the last line of standard output holds the end-to-end
metrics; with `--trace 1` the run spends half its time untraced and half
traced, and the last line holds the per-layer metrics.  The line before it
holds the details: machine facts, quartiles over rounds, digests and
metrics that apply to only some workloads.  Traced runs also write their
spans and per-function times to `.perfbench/trace/`.

Every round's outputs are hashed; the digest must repeat in every round and
match `reference.json` where it lists the seed.  Any mismatch, exception,
non-zero CLI exit or negative exact slack fails the run (exit code 1).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SUBMODULES = (
    "semigroups", "rng", "laws", "rearrange", "reports", "inequalities",
    "corpus", "levy", "axioms", "cli",
)
# set-up time to spend before each round, in repeated set-ups
SETUP_MIN_S = 0.15
# Per-layer metrics of the last output line: the times every workload
# exercises, and the deterministic counts.  README.md lists the rest.
PER_LAYER_TIMES = ("laws.exact_law_s", "laws.self_s", "trace.overhead_s")
PER_LAYER_COUNTS = {
    "semigroups.compose_calls": "count",
    "semigroups.distance_calls": "count",
    "laws.exact_law_calls": "count",
    "laws.outcomes_enumerated": "count",
    "laws.law_builds_per_item": "builds/item",
    "laws.mc_trials": "count",
    "rng.uniforms_drawn": "count",
    "rearrange.tail_sum_inverse_calls": "count",
    "inequalities.checks": "count",
    "inequalities.degenerate": "count",
    "inequalities.failed": "count",
    "reports.bytes_out": "bytes",
    "cli.calls": "count",
    "cli.nonzero_exits": "count",
}


def import_sgverify() -> SimpleNamespace:
    """Import the package (and every submodule) afresh from `src/`."""
    for name in [n for n in sys.modules if n == "sgverify" or n.startswith("sgverify.")]:
        del sys.modules[name]
    package = importlib.import_module("sgverify")
    sv = SimpleNamespace(package=package, MODULES=("package",) + SUBMODULES)
    for name in SUBMODULES:
        setattr(sv, name, importlib.import_module(f"sgverify.{name}"))
    return sv


def machine_facts(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
        "calibration_loop_s": calibration_s(),
        "seed": seed,
    }


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: how fast this machine ran
    plain interpreter code when the run started.  Reported, never used to
    scale a metric."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i % 7
        times.append(perf_counter() - t0)
    return statistics.median(times)


def spread(values) -> dict:
    """Median and quartiles, as statistics.quantiles gives them."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile_with_tail(times: list, q: float):
    """The q-quantile of `times` if at least ten samples lie above it."""
    if len(times) < 2:
        return None
    cut = statistics.quantiles(times, n=1000)[int(q * 1000) - 1]
    beyond = sum(1 for t in times if t > cut)
    return (cut, beyond) if beyond >= 10 else None


class Runner:
    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.sv = None
        self.state = None
        self.tracer = None
        self.reference = None
        self.setup_times = []

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """Import the package afresh and build the inputs; timed.  The
        garbage of the previous set-up is collected outside the timer."""
        t0 = perf_counter()
        sv = import_sgverify()
        state = self.workload.build(sv, self.seed, self.workdir)
        self.setup_times.append(perf_counter() - t0)
        origin = Path(sv.package.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise RuntimeError(f"sgverify imported from {origin}, not from {SRC}")
        self.sv, self.state = sv, state
        gc.collect()

    # -- rounds ------------------------------------------------------------

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def digest(self, outputs) -> str:
        """SHA-256 over the round's outputs in canonical JSON."""
        h = hashlib.sha256()
        canonical_json = self.sv.reports.canonical_json
        for out in outputs:
            if isinstance(out, dict) and "bytes" in out:
                h.update(f"{out['file']}:{out['exit']}\n".encode())
                h.update(out["bytes"])
            else:
                h.update(canonical_json(out).encode("utf-8"))
        return h.hexdigest()

    def one_round(self) -> dict:
        w, tracer = self.workload, self.tracer
        prepared = w.prepare(self.state)
        if tracer:
            first, before = tracer.snapshot()
        with tracer.span("bench.round") if tracer else nullcontext():
            t0 = perf_counter()
            rnd = w.run_round(self.sv, self.state, prepared, self._span)
            wall = perf_counter() - t0
        result = {"wall": wall, "round": rnd}
        if tracer:
            last, after = tracer.snapshot()
            result["summary"] = tracer.summarize(first, last)
            result["counts"] = after - before
            result["spans"] = (first, last)
        with tracer.paused() if tracer else nullcontext():
            w.collect(self.sv, self.state, rnd)
            result["digest"] = self.digest(rnd.outputs)
        rnd.outputs = None  # hashed; holding them would grow memory per round
        return result

    def rounds(self, budget: float, setup: bool) -> list:
        """Whole rounds while the next one is expected to fit in `budget`,
        each after fresh set-ups if `setup`, so that set-up is sampled
        across the run as the rounds are.  Set-up repeats before a round
        until those set-ups took SETUP_MIN_S, so that a set-up of a few
        milliseconds still has enough samples for a steady median."""
        done = []
        start = perf_counter()
        while True:
            if setup:
                spent = 0.0
                while spent < SETUP_MIN_S:
                    self.setup()
                    spent += self.setup_times[-1]
            done.append(self.one_round())
            elapsed = perf_counter() - start
            if elapsed + elapsed / len(done) > budget:
                return done

    # -- checks ------------------------------------------------------------

    def failures(self, rounds: list) -> tuple[int, int, list]:
        """(attempted, failed, messages).  A round whose digest differs from
        the first round's or from the reference fails all its items."""
        expected = self.reference or rounds[0]["digest"]
        attempted = failed = 0
        messages = []
        for k, r in enumerate(rounds):
            items = len(r["round"].item_times)
            attempted += items
            if r["digest"] != expected:
                failed += items
                messages.append(f"round {k}: digest {r['digest']} != {expected}")
            else:
                failed += len(r["round"].failures)
            messages.extend(r["round"].failures)
        return attempted, failed, messages


def best_item_times(rounds: list) -> list:
    """Each item's fastest time over the run's rounds.  Every round runs
    the same items in the same order from the same state (set-up ends with
    a full garbage collection), so the program's own cost repeats; the
    host's interference only ever adds time, and the fastest of a run's
    rounds filters it out item by item."""
    per_round = [r["round"].item_times for r in rounds]
    if len({len(times) for times in per_round}) != 1:
        raise RuntimeError("rounds ran different numbers of items")
    return [min(times) for times in zip(*per_round)]


def end_to_end(rounds: list, setup_times: list) -> tuple[dict, dict]:
    best = best_item_times(rounds)
    wall = sum(best)
    checks = rounds[0]["round"].checks
    items = [t for r in rounds for t in r["round"].item_times]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "checks_per_s": (checks / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    median_wall = statistics.median(r["wall"] for r in rounds)
    detail = {
        "round_wall_s": spread(r["wall"] for r in rounds),
        "setup_s": spread(setup_times),
        "item_ms": spread(t * 1000 for t in items),
        "checks_per_round": checks,
        "items_per_round": len(best),
        "item_p50_ms": statistics.median(best) * 1000,
        "checks_per_s_at_median_round": checks / median_wall,
    }
    tail = percentile_with_tail(items, 0.99)
    if tail is not None:
        detail["item_p99_ms"] = {"value": tail[0] * 1000, "samples": len(items), "beyond": tail[1]}
    trials = rounds[0]["round"].trials
    if trials:
        detail["mc_trials_per_s"] = trials / wall
    return metrics, detail


def per_layer(traced: list, untraced: list) -> tuple[dict, dict]:
    """Per-layer figures of each traced round; medians over rounds."""
    per_round = []
    for r in traced:
        s, counts = r["summary"], r["counts"]
        fn = s["functions"]

        def inclusive(*names):
            return sum(fn[n]["inclusive_s"] for n in names if n in fn)

        row = {
            "laws.exact_law_s": inclusive("laws.exact_functional_law"),
            "laws.mc_law_s": inclusive("laws.monte_carlo_law"),
            "rng.uniform_block_s": inclusive("rng.uniform_block"),
            "rearrange.tail_sum_inverse_s": inclusive("rearrange.tail_sum_inverse"),
            "rearrange.rearrangement_at_s": inclusive("rearrange.rearrangement_at"),
            "rearrange.tail_sum_inverse_law_s": inclusive("rearrange.tail_sum_inverse_law"),
            "rearrange.excess_tail_moment_s": inclusive("rearrange.excess_tail_moment"),
            "rearrange.truncate_s": inclusive("rearrange.truncate", "rearrange.truncate_upper"),
            "reports.canonical_json_s": inclusive("reports.canonical_json"),
        }
        for layer, own in s["layers"].items():
            row[f"{layer}.self_s"] = own
        for name, entry in fn.items():
            if name.startswith("inequalities.check_"):
                row[f"{name}.self_s"] = entry["self_s"]
        for key in PER_LAYER_COUNTS:
            row[key] = counts.get(key, 0)
        items = len(r["round"].item_times)
        row["laws.law_builds_per_item"] = counts.get("laws.exact_law_calls", 0) / items
        per_round.append(row)
    keys = sorted({k for row in per_round for k in row})
    medians = {k: statistics.median(row.get(k, 0) for row in per_round) for k in keys}
    medians["trace.overhead_s"] = statistics.median(
        r["wall"] for r in traced
    ) - statistics.median(r["wall"] for r in untraced)
    counts_repeat = all(
        row[k] == per_round[0][k] for row in per_round for k in PER_LAYER_COUNTS
    )
    metrics = {}
    for key in PER_LAYER_TIMES:
        metrics[key] = (medians.get(key, 0.0), "s")
    for key, unit in PER_LAYER_COUNTS.items():
        metrics[key] = (medians[key], unit)
    detail = {"per_layer": medians, "counts_repeat": counts_repeat, "rounds": len(traced)}
    return metrics, detail


def load_reference(workload: str, seed: int):
    try:
        table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return table.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "sgverify" / "__init__.py").is_file():
        print(f"error: no sgverify sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    facts = machine_facts(args.seed)
    workdir = ROOT / ".perfbench" / "work" / f"{workload.name}-{os.getpid()}"
    runner = Runner(workload, args.seed, workdir)
    runner.reference = load_reference(workload.name, args.seed)
    try:
        if args.trace:
            rounds, metrics, detail = traced_run(runner, args.seconds)
            write_trace(runner, rounds, detail, facts)
        else:
            rounds = runner.rounds(args.seconds, setup=True)
            metrics, detail = end_to_end(rounds, runner.setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, messages = runner.failures(rounds)
    digests = sorted({r["digest"] for r in rounds})
    detail.update(
        {
            "workload": workload.name,
            "machine": facts,
            "rounds": len(rounds),
            "digest": digests[0] if len(digests) == 1 else digests,
            "reference": runner.reference,
            "reference_match": None if runner.reference is None else digests == [runner.reference],
            "error_rate": failed / attempted,
            "failures": messages[:20],
        }
    )
    correct = failed == 0 and len(digests) == 1
    print(json.dumps({"detail": detail}, default=str))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def traced_run(runner, seconds: float) -> tuple[list, dict, dict]:
    """Untraced rounds for half the time, then the tracer, a traced set-up
    and traced rounds for the other half."""
    untraced = runner.rounds(seconds / 2, setup=True)
    tracer = runner.tracer = Tracer()
    tracer.install(runner.sv)
    first, _ = tracer.snapshot()
    with tracer.span("bench.setup"):
        runner.state = runner.workload.build(runner.sv, runner.seed, runner.workdir)
    last, _ = tracer.snapshot()
    generate = tracer.summarize(first, last)["functions"].get("corpus.generate_corpus")
    traced = runner.rounds(seconds / 2, setup=False)
    metrics, detail = per_layer(traced, untraced)
    detail["per_layer"]["corpus.generate_s"] = generate["inclusive_s"] if generate else 0.0
    detail["untraced_wall_s"] = spread(r["wall"] for r in untraced)
    detail["traced_wall_s"] = spread(r["wall"] for r in traced)
    return untraced + traced, metrics, detail


def write_trace(runner, rounds: list, detail: dict, facts: dict):
    out = ROOT / ".perfbench" / "trace"
    out.mkdir(parents=True, exist_ok=True)
    traced = [r for r in rounds if "spans" in r]
    first, last = traced[0]["spans"]
    blob = {
        "workload": runner.workload.name,
        "machine": facts,
        "per_layer": detail["per_layer"],
        "rounds": [r["summary"] for r in traced],
        "first_round_spans": runner.tracer.spans(first, last),
    }
    path = out / f"{runner.workload.name}-seed{runner.seed}.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    detail["trace_file"] = str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
