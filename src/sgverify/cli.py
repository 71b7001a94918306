"""Batch command-line surface: axiom checks, inequality suites, constant
sweeps, corpus generation, and the convergence probe.

Each subcommand is a pair in `COMMANDS`: `config_from_args` resolves the
flags into the configuration that the output embeds, and `run` does the work
from that configuration.  `sgverify replay` on an output file passes its
embedded configuration to the same `run`, so it reproduces the output byte
for byte for all five commands.  A `sweep` embeds its corpus spec, not its
sequences: its replay regenerates the corpus from the spec, which reproduces
sweeps over the default corpus and over files written by `sgverify corpus`,
but not over hand-edited corpus files.  CSV outputs and the `levy
--trace-csv` side file are not replay inputs.

A sweep streams its corpus one item at a time, and reads a corpus file
once; its JSON estimate and its CSV rows are both built from the per-item
reports of `inequalities`, and CSV rows are written as they are made.

Exit codes: 0 all checks pass, 1 a non-degenerate check failed or axiom
violations were found, 2 usage or configuration errors, 3 a resource limit
was hit (an exact law needs more states than the state cap allows).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .axioms import verify_axioms
from .corpus import CorpusSpec, iter_corpus
from .inequalities import (
    HJParameters,
    check_hj,
    check_hj_simple,
    check_mogulskii,
    check_moment_growth,
    check_moment_vs_quantile,
    check_spike_moment_bound,
    check_step_moment_sandwich,
    check_step_quantile_chain,
    check_truncated_quantile_shift,
    check_walk_moment_bound,
    check_walk_quantile_ratio,
    estimate_quantile_ratio_constant,
    moment_growth_reports,
    moment_vs_quantile_reports,
    quantile_ratio_reports,
    sweep_moment_growth,
    sweep_moment_vs_quantile,
)
from .laws import EnumerationCapError, sequence_from_config, sequence_to_config
from .levy import WalkConfig, equivalence_experiment, simulate_walk, traces_to_csv
from .reports import InequalityReport, RatioReport, canonical_json, reports_to_csv, to_jsonable
from .semigroups import InstanceSpecError, parse_instance


def _rational(text) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _finite(text) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


# `check` flags: name -> (type, default, help).  The table adds them to the
# parser, echoes the given ones into the output config, and parses them back
# from that config.
CHECK_FLAGS = {
    "k": (int, None, "number of blocks"),
    "n1": (int, None, None),
    "t1": (_rational, None, None),
    "n2": (int, None, None),
    "t2": (_rational, None, None),
    "n3": (int, None, None),
    "t3": (_rational, None, None),
    "s": (_rational, None, "shift (hj) or s (quantile-ratio)"),
    "t": (_rational, None, None),
    "p": (_rational, None, None),
    "q": (_rational, None, None),
    "p0": (_rational, Fraction(1), None),
    "eps": (_finite, math.log(16), None),
    "c": (_finite, None, None),
    "cprime": (_finite, None, None),
    "eta": (_finite, None, None),
    "r": (_rational, None, None),
    "m": (int, None, None),
    "a": (_rational, None, None),
    "b": (_rational, None, None),
    "repeats": (int, None, "K for hj-simple"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgverify",
        description="Numerical certification of maximal inequalities on metric semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ax = sub.add_parser("axioms", help="check semigroup/metric axioms on an instance")
    ax.add_argument("instance", help="instance spec, e.g. cyclic:6, torus:2, broken:mulreal")
    mode = ax.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", help="iterate the whole carrier")
    mode.add_argument("--samples", type=int, default=None, help="random tuples per axiom")
    ax.add_argument("--seed", type=int, default=0)
    ax.add_argument("--tol", type=_finite, default=None)
    ax.add_argument("--out", default=None)

    ck = sub.add_parser("check", help="evaluate inequalities on a sequence config")
    ck.add_argument("sequence", help="path to a sequence config JSON file")
    ck.add_argument("--ineq", default="all", help="checker name or 'all'")
    ck.add_argument(
        "--grid", choices=("default",), default="default", help="parameter grid for --ineq all"
    )
    ck.add_argument("--engine", choices=("exact", "mc"), default=None)
    ck.add_argument("--trials", type=int, default=None)
    ck.add_argument("--seed", type=int, default=None)
    for name, (kind, default, help_text) in CHECK_FLAGS.items():
        ck.add_argument(f"--{name}", type=kind, default=default, help=help_text)
    ck.add_argument("--out", default=None)
    ck.add_argument("--format", choices=("json", "csv"), default="json")

    sw = sub.add_parser("sweep", help="estimate a universal constant over a corpus")
    sw.add_argument("--constant", choices=("c", "c1", "approx-ratios"), default="c")
    sw.add_argument("--corpus", default="default", help="'default' or a corpus JSON file")
    sw.add_argument("--count", type=int, default=None, help="override corpus size")
    sw.add_argument("--seed", type=int, default=1)
    sw.add_argument("--p0", type=_rational, default=Fraction(1))
    sw.add_argument("--eps", type=_finite, default=math.log(16))
    sw.add_argument("--out", default=None)
    sw.add_argument("--format", choices=("json", "csv"), default="json")

    lv = sub.add_parser("levy", help="simulate a walk and probe the dichotomy")
    lv.add_argument("--instance", default="torus:1")
    lv.add_argument("--schedule", default="geometric:3")
    lv.add_argument("--paths", type=int, default=100)
    lv.add_argument("--horizon", type=int, default=200)
    lv.add_argument("--seed", type=int, default=0)
    lv.add_argument("--eps-grid", default="0.1,0.03,0.01")
    lv.add_argument("--windows", default="10,25,50,100")
    lv.add_argument("--trace-csv", default=None, help="also export per-path traces")
    lv.add_argument("--out", default=None)

    cp = sub.add_parser("corpus", help="generate a reproducible sequence corpus")
    cp.add_argument("--count", type=int, default=100)
    cp.add_argument("--max-len", type=int, default=5)
    cp.add_argument("--max-support", type=int, default=3)
    cp.add_argument("--instances", default=",".join(CorpusSpec().instances))
    cp.add_argument("--seed", type=int, default=1)
    cp.add_argument("--out", default=None)

    rp = sub.add_parser("replay", help="rerun the embedded config of an output file")
    rp.add_argument("output", help="path to a previous output JSON file")
    rp.add_argument("--out", default=None)

    return parser


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_csv(reports, out: str | None):
    """Write CSV rows as `reports` yields them; a file left unfinished by
    an error is removed, as no JSON output is written on one."""
    if not out:
        reports_to_csv(reports, sys.stdout)
        return
    try:
        with open(out, "w", encoding="utf-8") as stream:
            reports_to_csv(reports, stream)
    except BaseException:
        Path(out).unlink(missing_ok=True)
        raise


def _read_json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Each `run(config, args)` below works from the JSON form of its config.
# `args` holds the invoking command's arguments and supplies only what the
# output does not embed: a sweep's corpus file, the output format and the
# levy trace side file.  On replay it holds the replay arguments, so none of
# these apply.  `run` returns (payload fields besides command and config,
# exit code).


# ---------------------------------------------------------------------------
# axioms


def axioms_config(args) -> dict:
    return {
        "instance": args.instance,
        "samples": None if args.exhaustive else args.samples,
        "seed": args.seed,
        "tol": args.tol,
    }


def run_axioms(config: dict, args):
    report = verify_axioms(
        parse_instance(config["instance"]),
        samples=config["samples"],
        seed=config["seed"],
        tol=config["tol"],
    )
    return {"results": report}, 0 if report.ok else 1


# ---------------------------------------------------------------------------
# inequality checks


def _hj_params(flags: dict) -> HJParameters:
    sizes = [flags[n] for n in ("n1", "n2", "n3") if n in flags]
    thresholds = [flags[t] for t in ("t1", "t2", "t3") if t in flags]
    if "k" in flags and flags["k"] != len(sizes):
        raise ValueError(f"--k {flags['k']} does not match {len(sizes)} block sizes")
    if not sizes or len(sizes) != len(thresholds):
        raise ValueError("hj needs matching --n1..--n3 and --t1..--t3 flags")
    return HJParameters(tuple(sizes), tuple(thresholds), flags.get("s", Fraction(0)))


def _exponent(value):
    """Moment orders: keep integers as ints so exact arithmetic applies."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return int(frac)
    return float(frac)


def _p(flags: dict):
    """The moment order --p, 1 when it is not given."""
    return _exponent(flags.get("p", 1))


def _bare(rep: RatioReport, params: dict) -> RatioReport:
    """`rep` with `params` in place of its own, and without components."""
    return RatioReport(rep.name, params, rep.ratio, degenerate=rep.degenerate)


def _growth_required(seq, params: dict, eps) -> RatioReport:
    """The constant the first moment-growth bound needs on `seq`, at the
    p0, p and q of `params`."""
    pq = [(_exponent(params["p"]), _exponent(params["q"]))]
    (rep,) = moment_growth_reports(seq, params["p0"], eps, pq)
    return _bare(rep, params)


def _moment_growth(seq, f: dict) -> list:
    if "c" not in f:
        params = {"p0": f["p0"], "p": f["p"], "q": f["q"], "eps": f["eps"]}
        return [_growth_required(seq, params, f["eps"])]
    return list(
        check_moment_growth(
            seq, f["p0"], _exponent(f["p"]), _exponent(f["q"]), f["eps"], f["c"], f.get("cprime")
        )
    )


def _median(values):
    return values[(len(values) - 1) // 2]


def default_suite(seq) -> list:
    """One report per checker at canonical parameters derived from the laws."""
    walk = seq.walk_peak_law
    step = seq.step_peak_law
    reports = []
    t_u = _median(walk.values)
    s_m = _median(step.values)
    reports.append(check_hj(seq, HJParameters((2,), (t_u,), s_m)))
    if seq.n >= 3:
        reports.append(check_hj(seq, HJParameters((2, 2), (t_u, t_u), s_m)))
    if t_u > 0:
        reports.append(check_hj_simple(seq, 1, t_u))
        reports.append(check_hj_simple(seq, 2, t_u))
    end_med = _median(seq.end_distance_law.values)
    reports.extend(check_mogulskii(seq, 1, end_med, end_med))
    reports.append(check_step_quantile_chain(seq, Fraction(1, 10)))
    reports.append(check_step_quantile_chain(seq, Fraction(2, 5)))
    reports.append(check_step_moment_sandwich(seq, Fraction(1, 4), 1))
    reports.append(check_step_moment_sandwich(seq, Fraction(1, 2), 2))
    reports.append(check_walk_quantile_ratio(seq, Fraction(1, 10), Fraction(1, 2)))
    reports.extend(check_moment_vs_quantile(seq, 1))
    reports.append(check_truncated_quantile_shift(seq, 1))
    reports.append(check_walk_moment_bound(seq, 1))
    reports.append(check_walk_moment_bound(seq, 2))
    reports.append(check_spike_moment_bound(seq, Fraction(9, 10), 1))
    eps = math.log(16)
    reports.append(_growth_required(seq, {"p0": 1, "p": 1, "q": 2, "eps": eps}, eps))
    return reports


# --ineq name: (required flags, takes the Monte Carlo engine, call).  A call
# gets the sequence and the flags, plus engine, trials and seed when the
# Monte Carlo engine was asked for.
CHECKERS = {
    "all": ((), False, lambda seq, f: default_suite(seq)),
    "hj": ((), True, lambda seq, f, **mc: [check_hj(seq, _hj_params(f), **mc)]),
    "hj-simple": (("repeats", "t"), True,
                  lambda seq, f, **mc: [check_hj_simple(seq, f["repeats"], f["t"], **mc)]),
    "mogulskii": (("m", "a", "b"), False,
                  lambda seq, f: list(check_mogulskii(seq, f["m"], f["a"], f["b"]))),
    "quantile-chain": (("t",), False, lambda seq, f: [check_step_quantile_chain(seq, f["t"])]),
    "moment-sandwich": (("t", "p"), False,
                        lambda seq, f: [check_step_moment_sandwich(seq, f["t"], _p(f))]),
    "quantile-ratio": (("t", "s"), False,
                       lambda seq, f: [check_walk_quantile_ratio(seq, f["t"], f["s"])]),
    "moment-vs-quantile": ((), False, lambda seq, f: list(check_moment_vs_quantile(seq, _p(f)))),
    "trunc-quantile": ((), False,
                       lambda seq, f: [check_truncated_quantile_shift(seq, _p(f), f.get("eta"))]),
    "walk-moment": ((), False, lambda seq, f: [check_walk_moment_bound(seq, _p(f))]),
    "spike-moment": (("r",), False,
                     lambda seq, f: [check_spike_moment_bound(seq, f["r"], _p(f))]),
    "moment-growth": (("p", "q"), False, _moment_growth),
}


def _first_given(*values):
    return next(v for v in values if v is not None)


def check_config(args) -> dict:
    seq_config = _read_json(args.sequence)
    seq = sequence_from_config(seq_config)
    # parsed once: `run_check` takes the sequence from here
    args.check_sequence = seq
    # flags win over config-file engine preferences, which win over defaults
    engine = _first_given(args.engine, seq_config.get("engine"), "exact")
    mc = engine == "mc"
    return {
        "sequence": sequence_to_config(seq),
        "ineq": args.ineq,
        "grid": args.grid,
        "engine": engine,
        "trials": _first_given(args.trials, seq_config.get("trials"), 100_000) if mc else None,
        "seed": _first_given(args.seed, seq_config.get("seed"), 0) if mc else None,
        "flags": {k: getattr(args, k) for k in CHECK_FLAGS if getattr(args, k) is not None},
    }


def run_check(config: dict, args):
    name = config["ineq"]
    if name not in CHECKERS:
        raise ValueError(f"unknown inequality {name!r}")
    required, takes_mc, call = CHECKERS[name]
    seq = getattr(args, "check_sequence", None)
    if seq is None:
        seq = sequence_from_config(config["sequence"])
    flags = {key: CHECK_FLAGS[key][0](value) for key, value in config["flags"].items()}
    if any(key not in flags for key in required):
        raise ValueError(f"{name} needs " + " and ".join(f"--{key}" for key in required))
    if config["engine"] == "exact":
        reports = call(seq, flags)
    elif takes_mc:
        reports = call(
            seq, flags, engine=config["engine"], trials=config["trials"], seed=config["seed"]
        )
    else:
        raise ValueError(f"checker {name!r} supports only the exact engine")
    failed = any(
        isinstance(r, InequalityReport) and not r.degenerate and not r.holds for r in reports
    )
    return {"results": reports}, 1 if failed else 0


# ---------------------------------------------------------------------------
# sweeps


def sweep_config(args) -> dict:
    if args.corpus != "default":
        blob = _read_json(args.corpus)
        spec = CorpusSpec.from_config(blob["config"])
        # the file is parsed once: `run_sweep` takes its sequences from here
        args.corpus_sequences = blob["sequences"]
    elif args.count is None:
        spec = CorpusSpec(seed=args.seed)
    else:
        spec = CorpusSpec(count=args.count, seed=args.seed)
    return {
        "constant": args.constant,
        "corpus": spec,
        "p0": args.p0,
        "eps": args.eps,
        "seed": args.seed,
    }


def run_sweep(config: dict, args):
    """One pass over the corpus, which is read one item at a time."""
    sequences = getattr(args, "corpus_sequences", None)
    if sequences is None:
        corpus = iter_corpus(CorpusSpec.from_config(config["corpus"]))
    else:
        corpus = map(sequence_from_config, sequences)
    constant, seed = config["constant"], config["seed"]
    p0, eps = _rational(config["p0"]), float(config["eps"])
    if getattr(args, "format", "json") == "csv":
        # one row per item and grid point; p0 stays a Fraction here, so a row
        # writes it as a string where the JSON witness writes a number
        item_reports = {
            "c": lambda seq: moment_growth_reports(seq, p0, eps),
            "c1": quantile_ratio_reports,
            "approx-ratios": moment_vs_quantile_reports,
        }[constant]
        rows = (
            _bare(rep, rep.params | {"corpus_index": index})
            for index, seq in enumerate(corpus)
            for rep in item_reports(seq)
        )
        return {"results": rows}, 0
    if constant == "c1":
        return {"results": estimate_quantile_ratio_constant(corpus, seed=seed)}, 0
    if constant == "approx-ratios":
        return {"results": sweep_moment_vs_quantile(corpus, seed=seed)}, 0
    results = sweep_moment_growth(corpus, p0=_exponent(p0), eps=eps, seed=seed)
    return {"results": results}, 1 if results["second_bound_violations"] else 0


# ---------------------------------------------------------------------------
# walks and corpora


def levy_config(args) -> WalkConfig:
    return WalkConfig(
        instance=args.instance,
        schedule=args.schedule,
        horizon=args.horizon,
        paths=args.paths,
        seed=args.seed,
        eps_grid=tuple(float(x) for x in args.eps_grid.split(",")),
        windows=tuple(int(x) for x in args.windows.split(",")),
    )


def run_levy(config: dict, args):
    result = simulate_walk(WalkConfig.from_config(config))
    trace_csv = getattr(args, "trace_csv", None)
    if trace_csv:
        Path(trace_csv).write_text(traces_to_csv(result), encoding="utf-8")
    return {"results": equivalence_experiment(result)}, 0


def corpus_config(args) -> CorpusSpec:
    return CorpusSpec(
        count=args.count,
        max_len=args.max_len,
        max_support=args.max_support,
        instances=tuple(args.instances.split(",")),
        seed=args.seed,
    )


def run_corpus(config: dict, args):
    corpus = iter_corpus(CorpusSpec.from_config(config))
    return {"sequences": [sequence_to_config(seq) for seq in corpus]}, 0


# name: (config_from_args, run)
COMMANDS = {
    "axioms": (axioms_config, run_axioms),
    "check": (check_config, run_check),
    "sweep": (sweep_config, run_sweep),
    "levy": (levy_config, run_levy),
    "corpus": (corpus_config, run_corpus),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            blob = _read_json(args.output)
            command = blob.get("command")
            if command not in COMMANDS:
                raise ValueError(f"replay does not support command {command!r}")
            config = blob["config"]
        else:
            command = args.command
            config = to_jsonable(COMMANDS[command][0](args))
        fields, code = COMMANDS[command][1](config, args)
        if getattr(args, "format", "json") == "csv":
            _emit_csv(fields["results"], args.out)
        else:
            _emit(canonical_json({"command": command, "config": config, **fields}), args.out)
        return code
    except EnumerationCapError as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 3
    except (
        InstanceSpecError,
        ValueError,
        KeyError,
        OSError,
        json.JSONDecodeError,
        argparse.ArgumentTypeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
