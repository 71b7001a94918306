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

`check` and `sweep` read each inequality, with its flags, its default points
and its sweep, from the table `inequalities.INEQUALITIES`.  A sweep streams
its corpus one item at a time, and reads a corpus file once; its JSON
estimate and its CSV rows are both built from the per-item reports of
`inequalities`, and CSV rows are written as they are made.

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
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .axioms import verify_axioms
from .corpus import CorpusSpec, iter_corpus
from .inequalities import FLAG_DEFAULTS, INEQUALITIES, Inequality, suite_reports
from .laws import EnumerationCapError, sequence_from_config, sequence_to_config
from .levy import WalkConfig, equivalence_experiment, simulate_walk, traces_to_csv
from .reports import InequalityReport, canonical_json, reports_to_csv, to_jsonable
from .semigroups import InstanceSpecError, is_integer, parse_instance


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


# The argument type of each kind of check flag the table of inequalities names.
FLAG_TYPES = {int: int, Fraction: _rational, float: _finite}


def _check_flags() -> dict:
    """Every `check` flag, name -> kind: those the rows of the table read."""
    return {name: kind for row in INEQUALITIES.values() for name, kind in row.flags.items()}


def _sweeps() -> dict:
    """Every `sweep --constant`, name -> its `Sweep` in the table."""
    return {row.sweep.constant: row.sweep for row in INEQUALITIES.values() if row.sweep}


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
    ck.add_argument("--ineq", default="all", help=f"one of {', '.join(INEQUALITIES)}, or 'all'")
    ck.add_argument(
        "--grid", choices=("default",), default="default", help="parameter grid for --ineq all"
    )
    ck.add_argument("--engine", choices=("exact", "mc"), default=None)
    ck.add_argument("--trials", type=int, default=None)
    ck.add_argument("--seed", type=int, default=None)
    for name, kind in _check_flags().items():
        ck.add_argument(f"--{name}", type=FLAG_TYPES[kind], default=FLAG_DEFAULTS.get(name))
    ck.add_argument("--out", default=None)
    ck.add_argument("--format", choices=("json", "csv"), default="json")

    sw = sub.add_parser("sweep", help="estimate a universal constant over a corpus")
    sw.add_argument("--constant", choices=tuple(_sweeps()), default="c")
    sw.add_argument("--corpus", default="default", help="'default' or a corpus JSON file")
    sw.add_argument("--count", type=int, default=None, help="override corpus size")
    sw.add_argument("--seed", type=int, default=1)
    sw.add_argument("--p0", type=_rational, default=FLAG_DEFAULTS["p0"])
    sw.add_argument("--eps", type=_finite, default=FLAG_DEFAULTS["eps"])
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


class _ReplayConfig(dict):
    """A replayed config: a key that `run` needs and the file lacks is a
    usage error that names the key."""

    def __missing__(self, key):
        raise ValueError(f"replay config lacks {key!r}")


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


# `--ineq all`: every row of the table at its default points; it reads no flag.
_ALL = Inequality({}, {}, lambda seq, flags: list(suite_reports(seq)), lambda seq: [])


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
        "flags": {k: getattr(args, k) for k in _check_flags() if getattr(args, k) is not None},
    }


def _parse_flags(given) -> dict:
    """Each flag of a check config parsed by the kind the table gives it; an
    int flag must be a JSON integer, and a bad value is named with its flag."""
    if not isinstance(given, dict):
        raise ValueError(f"check 'flags' must be an object, not {given!r}")
    kinds = _check_flags()
    flags = {}
    for key, value in given.items():
        if key not in kinds:
            raise ValueError(f"unknown check flag {key!r}")
        kind = kinds[key]
        try:
            if isinstance(value, bool) or kind is int and not is_integer(value):
                raise TypeError(f"{value!r} is not {'an integer' if kind is int else 'a number'}")
            flags[key] = FLAG_TYPES[kind](value)
        except (TypeError, ValueError, OverflowError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"check flag {key}={value!r}: {exc}") from exc
    return flags


def run_check(config: dict, args):
    name = config["ineq"]
    row = _ALL if name == "all" else INEQUALITIES.get(name) if isinstance(name, str) else None
    if row is None:
        raise ValueError(f"unknown inequality {name!r}")
    seq = getattr(args, "check_sequence", None)
    if seq is None:
        seq = sequence_from_config(config["sequence"])
    flags = _parse_flags(config["flags"])
    for key, value in flags.items():
        if key not in row.flags and (key not in FLAG_DEFAULTS or value != FLAG_DEFAULTS[key]):
            raise ValueError(f"{name} does not read --{key}")
    missing = [f"--{key}" for key in row.required if key not in flags]
    if missing:
        raise ValueError(f"{name} needs {' and '.join(missing)}")
    if config["engine"] == "exact":
        reports = row.reports(seq, flags)
    elif row.takes_mc:
        if not (is_integer(config["trials"]) and is_integer(config["seed"])):
            raise ValueError(
                f"trials and seed must be integers, not {config['trials']!r}, {config['seed']!r}"
            )
        reports = row.reports(
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
        if not (
            isinstance(blob, dict)
            and isinstance(blob.get("config"), dict)
            and isinstance(blob.get("sequences"), list)
        ):
            raise ValueError(
                f"corpus file {args.corpus} must be an object with a 'config' object "
                "and a 'sequences' list"
            )
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
    constant, sweeps = config["constant"], _sweeps()
    if not isinstance(constant, str) or constant not in sweeps:
        raise ValueError(f"unknown sweep constant {constant!r}")
    sequences = getattr(args, "corpus_sequences", None)
    if sequences is None:
        corpus = iter_corpus(CorpusSpec.from_config(config["corpus"]))
    else:
        corpus = map(sequence_from_config, sequences)
    p0, eps = _rational(config["p0"]), float(config["eps"])
    if getattr(args, "format", "json") == "csv":
        # one row per item and grid point; p0 stays a Fraction here, so a row
        # writes it as a string where the JSON witness writes a number
        rows = (
            replace(rep, params=rep.params | {"corpus_index": index})
            for index, seq in enumerate(corpus)
            for rep in sweeps[constant].item_reports(seq, p0, eps)
        )
        return {"results": rows}, 0
    results, violated = sweeps[constant].estimate(corpus, p0, eps, config["seed"])
    return {"results": results}, 1 if violated else 0


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
            if not isinstance(blob, dict):
                raise ValueError(f"replay input must be an output object, not {blob!r}")
            command = blob.get("command")
            if command not in COMMANDS:
                raise ValueError(f"replay does not support command {command!r}")
            if not isinstance(blob.get("config"), dict):
                raise ValueError(f"replay 'config' must be an object, not {blob.get('config')!r}")
            config = _ReplayConfig(blob["config"])
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
