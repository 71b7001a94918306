import hashlib
import json
from fractions import Fraction

import pytest

from sgverify import cli, inequalities, levy
from sgverify.cli import main

F = Fraction

RADEMACHER2 = {
    "instance": "int",
    "variables": [
        {"atoms": [[1, "1/2"], [-1, "1/2"]]},
        {"atoms": [[1, "1/2"], [-1, "1/2"]]},
    ],
    "z0": 0,
    "z1": 0,
}


@pytest.fixture
def seq_file(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(RADEMACHER2))
    return str(path)


def run(argv):
    return main(argv)


def read_json(path):
    return json.loads(path.read_text())


def test_axioms_pass_and_exit_zero(tmp_path, capsys):
    out = tmp_path / "ax.json"
    assert run(["axioms", "graphgroup:3", "--exhaustive", "--out", str(out)]) == 0
    blob = read_json(out)
    assert blob["command"] == "axioms"
    assert blob["results"]["ok"] is True
    assert blob["config"]["instance"] == "graphgroup:3"


def test_axioms_broken_exit_one(tmp_path):
    out = tmp_path / "ax.json"
    code = run(
        ["axioms", "broken:mulreal", "--samples", "1000", "--seed", "7", "--out", str(out)]
    )
    assert code == 1
    assert read_json(out)["results"]["ok"] is False


def test_axioms_sampled_torus(tmp_path):
    out = tmp_path / "ax.json"
    code = run(
        ["axioms", "torus:2", "--samples", "2000", "--seed", "1",
         "--tol", "1e-12", "--out", str(out)]
    )
    assert code == 0


def test_check_hj_flags(seq_file, tmp_path):
    out = tmp_path / "rep.json"
    code = run(
        ["check", seq_file, "--ineq", "hj", "--k", "1", "--n1", "2",
         "--t1", "1", "--s", "1", "--out", str(out)]
    )
    assert code == 0
    rep = read_json(out)["results"][0]
    assert rep["slack"] == "1/4"
    assert rep["holds"] is True


def test_check_mogulskii_flags(seq_file, tmp_path):
    out = tmp_path / "rep.json"
    code = run(
        ["check", seq_file, "--ineq", "mogulskii", "--m", "1", "--a", "1",
         "--b", "1", "--out", str(out)]
    )
    assert code == 0
    reports = read_json(out)["results"]
    assert len(reports) == 2
    assert all(r["holds"] for r in reports)


def test_check_all_suite(seq_file, tmp_path):
    out = tmp_path / "rep.json"
    assert run(["check", seq_file, "--ineq", "all", "--out", str(out)]) == 0
    blob = read_json(out)
    names = {r["name"] for r in blob["results"]}
    assert {"hj", "hj-simple", "mogulskii-min", "step-quantile-chain",
            "walk-moment-bound"} <= names
    assert blob["config"]["sequence"]["instance"] == "int"


def test_check_csv_format(seq_file, capsys):
    assert run(["check", seq_file, "--ineq", "all", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("name,params")
    assert len(lines) > 10


def test_check_missing_flags_is_usage_error(seq_file, capsys):
    assert run(["check", seq_file, "--ineq", "mogulskii"]) == 2
    assert "mogulskii" in capsys.readouterr().err


def test_check_unknown_checker(seq_file, capsys):
    assert run(["check", seq_file, "--ineq", "nope"]) == 2


def test_check_rejects_unknown_config_keys(tmp_path, capsys):
    bad = dict(RADEMACHER2, mystery=1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["check", str(path), "--ineq", "all"]) == 2
    assert "mystery" in capsys.readouterr().err


def test_check_mc_engine(seq_file, tmp_path):
    out = tmp_path / "rep.json"
    code = run(
        ["check", seq_file, "--ineq", "hj-simple", "--repeats", "1", "--t", "1",
         "--engine", "mc", "--trials", "5000", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    rep = read_json(out)["results"][0]
    assert rep["engine"]["kind"] == "mc"
    assert rep["engine"]["trials"] == 5000


def test_check_engine_preferences_from_config_file(tmp_path):
    cfg = dict(RADEMACHER2, engine="mc", trials=4000, seed=9)
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    code = run(
        ["check", str(path), "--ineq", "hj-simple", "--repeats", "1", "--t", "1",
         "--out", str(out)]
    )
    assert code == 0
    rep = read_json(out)["results"][0]
    assert rep["engine"] == rep["engine"] | {"kind": "mc", "trials": 4000, "seed": 9}
    # explicit flags override the file's preferences
    code = run(
        ["check", str(path), "--ineq", "hj-simple", "--repeats", "1", "--t", "1",
         "--engine", "exact", "--out", str(out)]
    )
    assert code == 0
    assert read_json(out)["results"][0]["engine"]["kind"] == "exact"


def test_check_remaining_subcommands(seq_file, tmp_path):
    out = tmp_path / "rep.json"
    cases = [
        ["--ineq", "quantile-chain", "--t", "2/5"],
        ["--ineq", "moment-sandwich", "--t", "1/2", "--p", "2"],
        ["--ineq", "quantile-ratio", "--t", "1/10", "--s", "1/2"],
        ["--ineq", "moment-vs-quantile", "--p", "1"],
        ["--ineq", "trunc-quantile", "--p", "1"],
        ["--ineq", "walk-moment", "--p", "2"],
        ["--ineq", "spike-moment", "--r", "9/10", "--p", "1"],
        ["--ineq", "moment-growth", "--p", "1", "--q", "2"],
        ["--ineq", "moment-growth", "--p", "1", "--q", "2", "--c", "2.0"],
    ]
    for extra in cases:
        assert run(["check", seq_file, *extra, "--out", str(out)]) == 0, extra
        assert read_json(out)["results"], extra


@pytest.mark.parametrize(
    "name", ["walk-moment", "moment-vs-quantile", "trunc-quantile", "spike-moment"]
)
def test_check_zero_moment_order_is_usage_error(seq_file, name, capsys):
    extra = ["--r", "9/10"] if name == "spike-moment" else []
    assert run(["check", seq_file, "--ineq", name, "--p", "0", *extra]) == 2
    assert "moment order must be positive" in capsys.readouterr().err


BEYOND_FLOATS = "lies beyond the float range"
EXACT_POWERS = "is an integer above 500, where exact powers v^p are not evaluated"
HUGE_INT = str(10**300)  # within the float range


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--ineq", "walk-moment", "--p", "1e400"], BEYOND_FLOATS),
        (["--ineq", "walk-moment", "--p", "1001/2"], "where the scale 2^(1+2p) is not evaluated"),
        (["--ineq", "spike-moment", "--r", "1/2", "--p", "1e400"], BEYOND_FLOATS),
        (["--ineq", "spike-moment", "--r", "1/2", "--p", HUGE_INT], EXACT_POWERS),
        (["--ineq", "moment-sandwich", "--t", "1/4", "--p", "1e400"], BEYOND_FLOATS),
        (["--ineq", "moment-sandwich", "--t", "1/4", "--p", HUGE_INT], EXACT_POWERS),
        (["--ineq", "moment-vs-quantile", "--p", "501"], EXACT_POWERS),
        (["--ineq", "trunc-quantile", "--p", "1e400"], BEYOND_FLOATS),
        (["--ineq", "moment-growth", "--p", "1", "--q", "1e400"], BEYOND_FLOATS),
        (["--ineq", "moment-growth", "--p", "1", "--q", HUGE_INT], EXACT_POWERS),
        (["--ineq", "moment-growth", "--p", "1", "--q", "2", "--p0", "1e400"], BEYOND_FLOATS),
    ],
    ids=lambda x: "-".join(a[:10] for a in x[1:2] + x[-2:]) if isinstance(x, list) else "",
)
def test_check_huge_moment_order_is_usage_error(seq_file, extra, message, capsys):
    assert run(["check", seq_file, *extra]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        # p enters only through e^-p
        ["--ineq", "trunc-quantile", "--p", "600"],
        # a non-integer order takes float powers
        ["--ineq", "moment-growth", "--p", "1", "--q", "1201/2"],
        ["--ineq", "moment-vs-quantile", "--p", "1001/2"],
    ],
    ids=lambda extra: "-".join(extra[1:2] + extra[-2:]),
)
def test_check_orders_above_the_exact_limit_without_exact_powers(seq_file, tmp_path, extra):
    out = tmp_path / "rep.json"
    assert run(["check", seq_file, *extra, "--out", str(out)]) == 0
    assert read_json(out)["results"]


@pytest.mark.parametrize("r, p", [("1/2", "20"), ("9/10", "14"), ("1/2", "2001/2")])
def test_check_spike_moment_bound_beyond_the_float_range_is_infinite(seq_file, tmp_path, r, p):
    # e^(2^p * r / p) overflows a float; the bound is infinite and holds
    out = tmp_path / "rep.json"
    assert run(["check", seq_file, "--ineq", "spike-moment", "--r", r, "--p", p, "--out", str(out)]) == 0
    [report] = read_json(out)["results"]
    assert report["rhs"] == "inf" and report["holds"]
    assert report["degenerate"] == "infinite-right-side"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["c", "cprime", "eps", "eta"])
def test_check_non_finite_constants_are_usage_errors(seq_file, flag, value, capsys):
    if flag == "eta":
        argv = ["check", seq_file, "--ineq", "trunc-quantile", "--p", "1"]
    else:
        argv = ["check", seq_file, "--ineq", "moment-growth", "--p", "1", "--q", "2", "--c", "2"]
    with pytest.raises(SystemExit) as err:
        run([*argv, f"--{flag}={value}"])
    assert err.value.code == 2
    assert f"argument --{flag}: not a finite number: '{value}'" in capsys.readouterr().err


def test_sweep_non_finite_eps_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        run(["sweep", "--count", "5", "--eps=nan"])
    assert err.value.code == 2
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("with_c", [[], ["--c", "2.0"]])
def test_check_moment_growth_compares_fractional_orders(seq_file, tmp_path, capsys, with_c):
    out = tmp_path / "rep.json"
    growth = ["check", seq_file, "--ineq", "moment-growth", "--q", "1", *with_c]
    assert run([*growth, "--p", "1/3", "--p0", "1/3", "--out", str(out)]) == 0
    assert read_json(out)["results"]
    assert run([*growth, "--p", "1/2", "--p0", "3/4"]) == 2
    assert "need q >= p >= p0" in capsys.readouterr().err


def test_check_zero_trials_is_usage_error(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(dict(RADEMACHER2, engine="mc", trials=0)))
    code = run(["check", str(path), "--ineq", "hj-simple", "--repeats", "1", "--t", "1"])
    assert code == 2
    assert "trials must be >= 1" in capsys.readouterr().err


def test_check_grid_accepts_only_default(seq_file, tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["check", seq_file, "--grid", "nonsense-value"])
    assert err.value.code == 2
    out = tmp_path / "rep.json"
    assert run(["check", seq_file, "--grid", "default", "--out", str(out)]) == 0
    assert read_json(out)["config"]["grid"] == "default"


def test_state_cap_is_a_resource_limit(seq_file, monkeypatch, capsys):
    # two merged states times two atoms exceed a cap of three before step 2
    monkeypatch.setattr(inequalities, "DEFAULT_ENUMERATION_CAP", 3)
    code = run(
        ["check", seq_file, "--ineq", "mogulskii", "--m", "1", "--a", "1", "--b", "1"]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: resource limit: ")
    assert "2 states reached before step 2" in err
    assert "state cap 3" in err


def test_corpus_and_sweep_round_trip(tmp_path):
    corpus_file = tmp_path / "corpus.json"
    assert run(["corpus", "--count", "10", "--seed", "1", "--out", str(corpus_file)]) == 0
    blob = read_json(corpus_file)
    assert len(blob["sequences"]) == 10
    sweep_out = tmp_path / "sweep.json"
    assert run(
        ["sweep", "--constant", "c1", "--corpus", str(corpus_file), "--out", str(sweep_out)]
    ) == 0
    est = read_json(sweep_out)["results"]
    assert est["corpus_size"] == 10
    assert isinstance(est["value"], float)
    growth_out = tmp_path / "growth.json"
    assert run(
        ["sweep", "--constant", "c", "--corpus", str(corpus_file), "--out", str(growth_out)]
    ) == 0
    growth = read_json(growth_out)["results"]
    assert growth["second_bound_violations"] == 0
    ratios_out = tmp_path / "ratios.json"
    assert run(
        ["sweep", "--constant", "approx-ratios", "--corpus", str(corpus_file),
         "--out", str(ratios_out)]
    ) == 0


def test_corpus_same_seed_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["corpus", "--count", "25", "--seed", "4", "--out", str(a)])
    run(["corpus", "--count", "25", "--seed", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_same_seed_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["sweep", "--constant", "c", "--count", "8", "--seed", "3"]
    run(argv + ["--out", str(a)])
    run(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_levy_converging_and_diverging(tmp_path):
    out = tmp_path / "levy.json"
    code = run(
        ["levy", "--instance", "torus:1", "--schedule", "geometric:3",
         "--paths", "100", "--horizon", "200", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    blob = read_json(out)
    assert blob["results"]["verdict"]["verdict"] == "converging"
    assert blob["results"]["agreement_rate"] == 1.0
    code = run(
        ["levy", "--schedule", "constant:uniform", "--paths", "50",
         "--horizon", "120", "--windows", "10,25,50", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    assert read_json(out)["results"]["verdict"]["verdict"] == "diverging"


def test_levy_zero_schedule(tmp_path):
    out = tmp_path / "levy.json"
    run(
        ["levy", "--schedule", "zero", "--paths", "5", "--horizon", "20",
         "--windows", "4,8", "--out", str(out)]
    )
    blob = read_json(out)
    assert blob["results"]["verdict"]["verdict"] == "converging"


def test_levy_trace_export(tmp_path):
    out = tmp_path / "levy.json"
    csv_path = tmp_path / "trace.csv"
    run(
        ["levy", "--paths", "2", "--horizon", "10", "--windows", "3,5",
         "--out", str(out), "--trace-csv", str(csv_path)]
    )
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "path,j,distance"
    assert len(lines) == 21


def test_levy_trace_export_simulates_once(tmp_path, monkeypatch):
    calls = []

    def counted(config):
        calls.append(config)
        return simulate(config)

    simulate = levy.simulate_walk
    monkeypatch.setattr(levy, "simulate_walk", counted)
    monkeypatch.setattr(cli, "simulate_walk", counted)
    out = tmp_path / "levy.json"
    csv_path = tmp_path / "trace.csv"
    code = run(
        ["levy", "--paths", "6", "--horizon", "40", "--windows", "5,10", "--seed", "3",
         "--trace-csv", str(csv_path), "--out", str(out)]
    )
    assert code == 0
    assert len(calls) == 1
    # digests of the outputs written when every path was simulated twice
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "04cbec23a8df22890007cca81a711ab2e2558ead5b6394b1a07d63e4195d7bb0"
    )
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "3863045821a08286f075fa55aa5d33f6316ce1af38ce038bfb6d72b4443cc960"
    )


def test_replay_reproduces_outputs_byte_for_byte(seq_file, tmp_path):
    mc_file = tmp_path / "seq-mc.json"
    mc_file.write_text(json.dumps(dict(RADEMACHER2, engine="mc", trials=3000, seed=7)))
    corpus_file = tmp_path / "corpus-in.json"
    assert run(["corpus", "--count", "6", "--seed", "3", "--out", str(corpus_file)]) == 0
    cases = [
        ["axioms", "cyclic:6", "--exhaustive"],
        ["corpus", "--count", "8", "--seed", "2"],
        ["levy", "--paths", "10", "--horizon", "30", "--windows", "5,10"],
        ["check", seq_file, "--ineq", "all"],
        ["check", seq_file, "--ineq", "hj", "--n1", "2", "--t1", "1/2", "--s", "3/2"],
        ["check", str(mc_file), "--ineq", "hj-simple", "--repeats", "1", "--t", "1"],
        ["check", seq_file, "--ineq", "moment-growth", "--p", "1", "--q", "2", "--c", "2.0"],
        ["check", seq_file, "--ineq", "mogulskii", "--m", "1", "--a", "1", "--b", "1"],
        ["sweep", "--constant", "c", "--count", "8"],
        ["sweep", "--constant", "c1", "--corpus", str(corpus_file)],
        ["sweep", "--constant", "approx-ratios", "--corpus", str(corpus_file)],
    ]
    for index, argv in enumerate(cases):
        first = tmp_path / f"out-{index}.json"
        again = tmp_path / f"replay-{index}.json"
        code = run(argv + ["--out", str(first)])
        assert code in (0, 1), argv
        assert run(["replay", str(first), "--out", str(again)]) == code, argv
        assert first.read_bytes() == again.read_bytes(), argv
    assert read_json(tmp_path / "out-5.json")["results"][0]["engine"]["kind"] == "mc"


def test_usage_error_exit_two(capsys):
    assert run(["check", "/nonexistent/seq.json", "--ineq", "all"]) == 2
    with pytest.raises(SystemExit) as err:
        run(["not-a-command"])
    assert err.value.code == 2
