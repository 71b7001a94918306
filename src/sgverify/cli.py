"""Batch command-line surface: axiom checks, inequality suites, constant
sweeps, corpus generation, and the convergence probe.

Every output embeds its fully resolved configuration; `sgverify replay` on
an output file reruns that configuration and reproduces the output byte for
byte.  Exit codes: 0 all checks pass, 1 a non-degenerate check failed or
axiom violations were found, 2 usage or configuration errors, 3 a resource
limit was hit (an exact law needs more states than the state cap allows).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .axioms import verify_axioms
from .corpus import CorpusSpec, generate_corpus
from .inequalities import (
    DEFAULT_PQ_GRID,
    DEFAULT_S_GRID,
    DEFAULT_T_GRID,
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
    estimate_moment_growth_constant,
    estimate_quantile_ratio_constant,
    moment_growth_multiplier,
    required_moment_growth_constant,
    sweep_moment_vs_quantile,
)
from .laws import (
    EnumerationCapError,
    sequence_engine_defaults,
    sequence_from_config,
    sequence_to_config,
)
from .levy import WalkConfig, equivalence_experiment, simulate_walk, traces_to_csv
from .reports import InequalityReport, RatioReport, canonical_json, reports_to_csv, to_jsonable
from .semigroups import InstanceSpecError, parse_instance


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


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
    ax.add_argument("--tol", type=float, default=None)
    ax.add_argument("--out", default=None)
    ax.set_defaults(func=cmd_axioms)

    ck = sub.add_parser("check", help="evaluate inequalities on a sequence config")
    ck.add_argument("sequence", help="path to a sequence config JSON file")
    ck.add_argument("--ineq", default="all", help="checker name or 'all'")
    ck.add_argument(
        "--grid", choices=("default",), default="default", help="parameter grid for --ineq all"
    )
    ck.add_argument("--engine", choices=("exact", "mc"), default=None)
    ck.add_argument("--trials", type=int, default=None)
    ck.add_argument("--seed", type=int, default=None)
    ck.add_argument("--k", type=int, default=None, help="number of blocks")
    for i in (1, 2, 3):
        ck.add_argument(f"--n{i}", type=int, default=None)
        ck.add_argument(f"--t{i}", type=_rational, default=None)
    ck.add_argument("--s", type=_rational, default=None, help="shift (hj) or s (quantile-ratio)")
    ck.add_argument("--t", type=_rational, default=None)
    ck.add_argument("--p", type=_rational, default=None)
    ck.add_argument("--q", type=_rational, default=None)
    ck.add_argument("--p0", type=_rational, default=Fraction(1))
    ck.add_argument("--eps", type=float, default=math.log(16))
    ck.add_argument("--c", type=float, default=None)
    ck.add_argument("--cprime", type=float, default=None)
    ck.add_argument("--eta", type=float, default=None)
    ck.add_argument("--r", type=_rational, default=None)
    ck.add_argument("--m", type=int, default=None)
    ck.add_argument("--a", type=_rational, default=None)
    ck.add_argument("--b", type=_rational, default=None)
    ck.add_argument("--repeats", type=int, default=None, help="K for hj-simple")
    ck.add_argument("--out", default=None)
    ck.add_argument("--format", choices=("json", "csv"), default="json")
    ck.set_defaults(func=cmd_check)

    sw = sub.add_parser("sweep", help="estimate a universal constant over a corpus")
    sw.add_argument("--constant", choices=("c", "c1", "approx-ratios"), default="c")
    sw.add_argument("--corpus", default="default", help="'default' or a corpus JSON file")
    sw.add_argument("--count", type=int, default=None, help="override corpus size")
    sw.add_argument("--seed", type=int, default=1)
    sw.add_argument("--p0", type=_rational, default=Fraction(1))
    sw.add_argument("--eps", type=float, default=math.log(16))
    sw.add_argument("--out", default=None)
    sw.add_argument("--format", choices=("json", "csv"), default="json")
    sw.set_defaults(func=cmd_sweep)

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
    lv.set_defaults(func=cmd_levy)

    cp = sub.add_parser("corpus", help="generate a reproducible sequence corpus")
    cp.add_argument("--count", type=int, default=100)
    cp.add_argument("--max-len", type=int, default=5)
    cp.add_argument("--max-support", type=int, default=3)
    cp.add_argument("--instances", default=",".join(CorpusSpec().instances))
    cp.add_argument("--seed", type=int, default=1)
    cp.add_argument("--out", default=None)
    cp.set_defaults(func=cmd_corpus)

    rp = sub.add_parser("replay", help="rerun the embedded config of an output file")
    rp.add_argument("output", help="path to a previous output JSON file")
    rp.add_argument("--out", default=None)
    rp.set_defaults(func=cmd_replay)

    return parser


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _payload(command: str, config: dict, results) -> str:
    return canonical_json({"command": command, "config": config, "results": results})


# ---------------------------------------------------------------------------
# axioms


def cmd_axioms(args) -> int:
    inst = parse_instance(args.instance)
    samples = args.samples
    if args.exhaustive:
        samples = None
    config = {
        "instance": args.instance,
        "samples": samples,
        "seed": args.seed,
        "tol": args.tol,
    }
    report = verify_axioms(inst, samples=samples, seed=args.seed, tol=args.tol)
    _emit(_payload("axioms", config, report.to_jsonable()), args.out)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# inequality checks


def _hj_params_from_args(args) -> HJParameters:
    sizes = [n for n in (args.n1, args.n2, args.n3) if n is not None]
    thresholds = [t for t in (args.t1, args.t2, args.t3) if t is not None]
    if args.k is not None and args.k != len(sizes):
        raise ValueError(f"--k {args.k} does not match {len(sizes)} block sizes")
    if not sizes or len(sizes) != len(thresholds):
        raise ValueError("hj needs matching --n1..--n3 and --t1..--t3 flags")
    shift = args.s if args.s is not None else Fraction(0)
    return HJParameters(tuple(sizes), tuple(thresholds), shift)


def _run_single_check(seq, args) -> list:
    name = args.ineq
    if name == "hj":
        return [
            check_hj(seq, _hj_params_from_args(args), engine=args.engine,
                     trials=args.trials, seed=args.seed)
        ]
    if name == "hj-simple":
        if args.repeats is None or args.t is None:
            raise ValueError("hj-simple needs --repeats and --t")
        return [
            check_hj_simple(seq, args.repeats, args.t, engine=args.engine,
                            trials=args.trials, seed=args.seed)
        ]
    if args.engine != "exact":
        raise ValueError(f"checker {name!r} supports only the exact engine")
    if name == "mogulskii":
        if args.m is None or args.a is None or args.b is None:
            raise ValueError("mogulskii needs --m, --a and --b")
        return list(check_mogulskii(seq, args.m, args.a, args.b))
    if name == "quantile-chain":
        if args.t is None:
            raise ValueError("quantile-chain needs --t")
        return [check_step_quantile_chain(seq, args.t)]
    if name == "moment-sandwich":
        if args.t is None or args.p is None:
            raise ValueError("moment-sandwich needs --t and --p")
        return [check_step_moment_sandwich(seq, args.t, _exponent(args.p))]
    if name == "quantile-ratio":
        if args.t is None or args.s is None:
            raise ValueError("quantile-ratio needs --t and --s")
        return [check_walk_quantile_ratio(seq, args.t, args.s)]
    if name == "moment-vs-quantile":
        return list(check_moment_vs_quantile(seq, _exponent(args.p or Fraction(1))))
    if name == "trunc-quantile":
        return [
            check_truncated_quantile_shift(
                seq, _exponent(args.p or Fraction(1)), args.eta
            )
        ]
    if name == "walk-moment":
        return [check_walk_moment_bound(seq, _exponent(args.p or Fraction(1)))]
    if name == "spike-moment":
        if args.r is None:
            raise ValueError("spike-moment needs --r")
        return [
            check_spike_moment_bound(seq, args.r, _exponent(args.p or Fraction(1)))
        ]
    if name == "moment-growth":
        if args.p is None or args.q is None:
            raise ValueError("moment-growth needs --p and --q")
        if args.c is None:
            required, _ = required_moment_growth_constant(
                seq, args.p0, _exponent(args.p), _exponent(args.q), args.eps
            )
            return [
                RatioReport(
                    "moment-growth-required",
                    {"p0": args.p0, "p": args.p, "q": args.q, "eps": args.eps},
                    math.inf if required is None else required,
                    degenerate="identically zero denominators" if required is None else None,
                )
            ]
        return list(
            check_moment_growth(
                seq, args.p0, _exponent(args.p), _exponent(args.q), args.eps,
                args.c, args.cprime,
            )
        )
    raise ValueError(f"unknown inequality {name!r}")


def _exponent(value):
    """Moment orders: keep integers as ints so exact arithmetic applies."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return int(frac)
    return float(frac)


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
    required, _ = required_moment_growth_constant(seq, 1, 1, 2, math.log(16))
    reports.append(
        RatioReport(
            "moment-growth-required",
            {"p0": 1, "p": 1, "q": 2, "eps": math.log(16)},
            math.inf if required is None else required,
            degenerate="identically zero denominators" if required is None else None,
        )
    )
    return reports


def _first_given(*values):
    return next(v for v in values if v is not None)


def cmd_check(args) -> int:
    seq_config = json.loads(Path(args.sequence).read_text(encoding="utf-8"))
    seq = sequence_from_config(seq_config)
    defaults = sequence_engine_defaults(seq_config)
    # flags win over config-file engine preferences, which win over defaults
    args.engine = _first_given(args.engine, defaults["engine"], "exact")
    args.trials = _first_given(args.trials, defaults["trials"], 100_000)
    args.seed = _first_given(args.seed, defaults["seed"], 0)
    if args.ineq == "all":
        if args.engine != "exact":
            raise ValueError("--ineq all runs on the exact engine")
        reports = default_suite(seq)
    else:
        reports = _run_single_check(seq, args)
    config = {
        "sequence": sequence_to_config(seq),
        "ineq": args.ineq,
        "grid": args.grid,
        "engine": args.engine,
        "trials": args.trials if args.engine == "mc" else None,
        "seed": args.seed if args.engine == "mc" else None,
        "flags": _flag_echo(args),
    }
    if args.format == "csv":
        _emit(reports_to_csv(reports), args.out)
    else:
        _emit(
            _payload("check", config, [r.to_jsonable() for r in reports]),
            args.out,
        )
    failed = [
        r
        for r in reports
        if isinstance(r, InequalityReport) and not r.degenerate and not r.holds
    ]
    return 1 if failed else 0


_FLAG_NAMES = (
    "k", "n1", "n2", "n3", "t1", "t2", "t3", "s", "t", "p", "q",
    "p0", "eps", "c", "cprime", "eta", "r", "m", "a", "b", "repeats",
)


def _flag_echo(args) -> dict:
    out = {}
    for name in _FLAG_NAMES:
        value = getattr(args, name, None)
        if value is not None:
            out[name] = value
    return out


# ---------------------------------------------------------------------------
# sweeps


def _load_corpus(args):
    if args.corpus == "default":
        spec = CorpusSpec(seed=args.seed)
        if args.count is not None:
            spec = CorpusSpec(count=args.count, seed=args.seed)
        return spec.to_jsonable(), generate_corpus(spec)
    blob = json.loads(Path(args.corpus).read_text(encoding="utf-8"))
    spec = CorpusSpec.from_config(blob["config"])
    corpus = [sequence_from_config(c) for c in blob["sequences"]]
    return spec.to_jsonable(), corpus


def _sweep_rows(args, corpus) -> list:
    """One ratio report per (instance, grid point) for CSV export."""
    rows = []
    if args.constant == "c1":
        for index, seq in enumerate(corpus):
            for t in DEFAULT_T_GRID:
                for s in DEFAULT_S_GRID:
                    if t <= s:
                        rep = check_walk_quantile_ratio(seq, t, s)
                        rows.append(
                            RatioReport(
                                rep.name,
                                rep.params | {"corpus_index": index},
                                rep.ratio,
                                degenerate=rep.degenerate,
                            )
                        )
    elif args.constant == "approx-ratios":
        for index, seq in enumerate(corpus):
            for p in (1, 2):
                for rep in check_moment_vs_quantile(seq, p):
                    rows.append(
                        RatioReport(
                            rep.name,
                            rep.params | {"corpus_index": index},
                            rep.ratio,
                            degenerate=rep.degenerate,
                        )
                    )
    else:
        p0 = _exponent(args.p0)
        for index, seq in enumerate(corpus):
            for p, q in DEFAULT_PQ_GRID:
                required, _ = required_moment_growth_constant(seq, p0, p, q, args.eps)
                rows.append(
                    RatioReport(
                        "moment-growth-required",
                        {"p0": args.p0, "p": p, "q": q, "corpus_index": index},
                        math.inf if required is None else required,
                        degenerate="identically zero denominators"
                        if required is None
                        else None,
                    )
                )
    return rows


def cmd_sweep(args) -> int:
    spec_json, corpus = _load_corpus(args)
    config = {
        "constant": args.constant,
        "corpus": spec_json,
        "p0": args.p0,
        "eps": args.eps,
        "seed": args.seed,
    }
    if args.format == "csv":
        _emit(reports_to_csv(_sweep_rows(args, corpus)), args.out)
        return 0
    exit_code = 0
    if args.constant == "c1":
        estimate = estimate_quantile_ratio_constant(corpus, seed=args.seed)
        results = estimate.to_jsonable()
    elif args.constant == "approx-ratios":
        results = to_jsonable(sweep_moment_vs_quantile(corpus, seed=args.seed))
    else:
        p0 = _exponent(args.p0)
        estimate = estimate_moment_growth_constant(
            corpus, p0=p0, eps=args.eps, seed=args.seed
        )
        multiplier = moment_growth_multiplier(p0, args.eps)
        cprime = estimate.value * multiplier
        violations = 0
        checked = 0
        for seq in corpus:
            for p, q in DEFAULT_PQ_GRID:
                _, second = check_moment_growth(
                    seq, p0, p, q, args.eps, estimate.value, cprime
                )
                checked += 1
                if not second.holds:
                    violations += 1
        results = {
            "estimate": estimate.to_jsonable(),
            "multiplier": multiplier,
            "cprime": cprime,
            "second_bound_checked": checked,
            "second_bound_violations": violations,
        }
        if violations:
            exit_code = 1
    _emit(_payload("sweep", config, results), args.out)
    return exit_code


# ---------------------------------------------------------------------------
# walks and corpora


def cmd_levy(args) -> int:
    eps_grid = tuple(float(x) for x in args.eps_grid.split(","))
    windows = tuple(int(x) for x in args.windows.split(","))
    config = WalkConfig(
        instance=args.instance,
        schedule=args.schedule,
        horizon=args.horizon,
        paths=args.paths,
        seed=args.seed,
        eps_grid=eps_grid,
        windows=windows,
    )
    result = simulate_walk(config)
    report = equivalence_experiment(result)
    if args.trace_csv:
        Path(args.trace_csv).write_text(traces_to_csv(result), encoding="utf-8")
    _emit(_payload("levy", config.to_jsonable(), report), args.out)
    return 0


def cmd_corpus(args) -> int:
    spec = CorpusSpec(
        count=args.count,
        max_len=args.max_len,
        max_support=args.max_support,
        instances=tuple(args.instances.split(",")),
        seed=args.seed,
    )
    corpus = generate_corpus(spec)
    payload = canonical_json(
        {
            "command": "corpus",
            "config": spec.to_jsonable(),
            "sequences": [sequence_to_config(seq) for seq in corpus],
        }
    )
    _emit(payload, args.out)
    return 0


def cmd_replay(args) -> int:
    blob = json.loads(Path(args.output).read_text(encoding="utf-8"))
    command = blob.get("command")
    config = blob.get("config", {})
    if command == "axioms":
        argv = ["axioms", config["instance"], "--seed", str(config["seed"])]
        if config.get("samples") is not None:
            argv += ["--samples", str(config["samples"])]
        else:
            argv += ["--exhaustive"]
        if config.get("tol") is not None:
            argv += ["--tol", repr(config["tol"])]
    elif command == "levy":
        argv = [
            "levy",
            "--instance", config["instance"],
            "--schedule", config["schedule"],
            "--paths", str(config["paths"]),
            "--horizon", str(config["horizon"]),
            "--seed", str(config["seed"]),
            "--eps-grid", ",".join(repr(e) for e in config["eps_grid"]),
            "--windows", ",".join(str(w) for w in config["windows"]),
        ]
    elif command == "corpus":
        argv = [
            "corpus",
            "--count", str(config["count"]),
            "--max-len", str(config["max_len"]),
            "--max-support", str(config["max_support"]),
            "--instances", ",".join(config["instances"]),
            "--seed", str(config["seed"]),
        ]
    else:
        raise ValueError(f"replay does not support command {command!r}")
    if args.out:
        argv += ["--out", args.out]
    return main(argv)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationCapError as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 3
    except (InstanceSpecError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
