import gc
import hashlib
import json
import math
import weakref
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


@pytest.mark.parametrize(
    "argv", [["--ineq", "mogulskii", "--m", "1", "--a", "1", "--b", "1"], ["--ineq", "all"]]
)
def test_check_mogulskii_refuses_a_non_associative_carrier(tmp_path, capsys, argv):
    path = tmp_path / "subint.json"
    step = {"atoms": [[1, "1/2"], [-2, "1/2"]]}
    path.write_text(json.dumps({"instance": "broken:subint", "variables": [step] * 3}))
    assert run(["check", str(path), *argv]) == 2
    err = capsys.readouterr().err
    assert "associative" in err and "broken:subint is not such a carrier" in err


@pytest.mark.parametrize(
    "argv", [["--ineq", "mogulskii", "--m", "1", "--a", "1", "--b", "1"], ["--ineq", "all"]]
)
def test_check_mogulskii_refuses_a_carrier_whose_magnitude_depends_on_the_base_point(
    tmp_path, capsys, argv
):
    path = tmp_path / "mulreal.json"
    step = {"atoms": [[2, "1/2"], [3, "1/2"]]}
    path.write_text(json.dumps({"instance": "broken:mulreal", "variables": [step] * 3}))
    assert run(["check", str(path), *argv]) == 2
    err = capsys.readouterr().err
    assert "associative" in err and "broken:mulreal is not such a carrier" in err


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


@pytest.mark.parametrize(
    "blocks, message",
    [
        (["--n1", "2", "--n2", "1", "--t1", "1", "--t3", "5"], "hj needs --t2 and --n3 for 3 blocks"),
        (["--n1", "2", "--n3", "1", "--t1", "1", "--t3", "1"], "hj needs --n2 and --t2 for 3 blocks"),
        (["--n1", "2"], "hj needs --t1"),
    ],
)
def test_check_hj_blocks_with_a_gap_are_usage_errors(seq_file, capsys, blocks, message):
    assert run(["check", seq_file, "--ineq", "hj", *blocks]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_cprime_without_c_is_usage_error(seq_file, capsys):
    argv = ["check", seq_file, "--ineq", "moment-growth", "--p", "1", "--q", "2", "--cprime", "3"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: --cprime needs --c\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--ineq", "quantile-chain", "--t", "1/10", "--q", "7"], "q"),
        (["--ineq", "hj-simple", "--repeats", "1", "--t", "1", "--s", "1"], "s"),
        (["--ineq", "all", "--p", "2"], "p"),
        (["--ineq", "quantile-chain", "--t", "1/10", "--p0", "2"], "p0"),
        (["--ineq", "mogulskii", "--m", "1", "--a", "1", "--b", "1", "--eps", "1"], "eps"),
        (["--ineq", "all", "--p0", "2"], "p0"),
        (["--ineq", "all", "--eps", "1"], "eps"),
    ],
)
def test_check_flags_the_inequality_does_not_read_are_usage_errors(
    seq_file, tmp_path, capsys, argv, flag
):
    name = argv[1]
    assert run(["check", seq_file, *argv]) == 2
    assert capsys.readouterr().err == f"error: {name} does not read --{flag}\n"
    # the same config, replayed with the unread flag added, is refused too
    out, edited = tmp_path / "out.json", tmp_path / "edited.json"
    assert run(["check", seq_file, *argv[:-2], "--out", str(out)]) == 0
    blob = read_json(out)
    blob["config"]["flags"][flag] = argv[-1]
    edited.write_text(json.dumps(blob))
    assert run(["replay", str(edited)]) == 2
    assert capsys.readouterr().err == f"error: {name} does not read --{flag}\n"


def test_check_p0_and_eps_are_echoed_for_every_inequality(seq_file, tmp_path):
    out = tmp_path / "out.json"
    argv = ["--ineq", "quantile-chain", "--t", "1/10", "--p0", "1", "--eps", str(math.log(16))]
    assert run(["check", seq_file, *argv, "--out", str(out)]) == 0
    flags = {"t": "1/10", "p0": "1", "eps": math.log(16)}
    assert read_json(out)["config"]["flags"] == flags
    assert run(["check", seq_file, *argv[:4], "--out", str(out)]) == 0
    assert read_json(out)["config"]["flags"] == flags


def test_a_row_added_to_the_table_is_checked_alone_and_in_all(seq_file, tmp_path, monkeypatch):
    # one row and one report function, with flags the table already has
    row = inequalities.Inequality(
        {"t": F}, {},
        lambda seq, f: [inequalities.check_step_quantile_chain(seq, f["t"] / 2)],
        lambda seq: [{"t": F(1, 3)}],
    )
    monkeypatch.setitem(inequalities.INEQUALITIES, "half-chain", row)
    one, suite = tmp_path / "one.json", tmp_path / "all.json"
    assert run(["check", seq_file, "--ineq", "half-chain", "--t", "1/3", "--out", str(one)]) == 0
    [report] = read_json(one)["results"]
    assert report["name"] == "step-quantile-chain" and report["params"] == {"t": "1/6"}
    assert run(["check", seq_file, "--ineq", "all", "--out", str(suite)]) == 0
    assert read_json(suite)["results"][-1] == report
    assert run(["check", seq_file, "--ineq", "half-chain", "--p", "1"]) == 2


def test_check_unknown_checker(seq_file, capsys):
    assert run(["check", seq_file, "--ineq", "nope"]) == 2


def test_check_rejects_unknown_config_keys(tmp_path, capsys):
    bad = dict(RADEMACHER2, mystery=1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["check", str(path), "--ineq", "all"]) == 2
    assert "mystery" in capsys.readouterr().err


def test_check_rejects_foreign_elements(tmp_path, capsys):
    bad = {"instance": "cyclic:3", "variables": [{"atoms": [[1, "1/2"], [7, "1/2"]]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["check", str(path), "--ineq", "all"]) == 2
    assert "7 is not an element of" in capsys.readouterr().err


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


# the README's sequence config, and one with float probabilities
README_INT = {
    "instance": "int",
    "variables": [
        {"atoms": [[1, "1/2"], [-1, "1/2"]]},
        {"atoms": [[1, "3/10"], [-2, "7/10"]]},
    ],
    "z0": 0,
    "z1": 0,
}
FLOAT_INT = {
    "instance": "int",
    "variables": [
        {"atoms": [[1, 0.3], [-2, 0.7]]},
        {"atoms": [[2, 0.25], [-1, 0.5], [0, 0.25]]},
        {"atoms": [[1, 0.5], [-1, 0.5]]},
    ],
}

# SHA-256 of each `check` output, recorded at commit 8ac1240; they hold only
# while the growth bounds' floats keep their evaluation order.  The float
# `all` digest was re-recorded when the Mogulskii stay probabilities came to
# be summed over the suffix products alone: its stay probability 7/8 now
# reads 0.875 instead of 0.8749999999999999.
CHECK_DIGESTS = {
    ("int", "all"): "e178b5b908a92806fb6eb366544a3d31748a6a42dd9719ae99db97783f053b2b",
    ("int", "hj", "--k", "1", "--n1", "2", "--t1", "1", "--s", "1"):
        "b57bd63cca14e57417f2a9b1b2b433cb8fb78d27127b6240de66686174d900f0",
    ("int", "hj-simple", "--repeats", "2", "--t", "1"):
        "f26c72359380e4c11c9c5f6008d5a3f706eb5fcfbd7c1c9eec1645581730dc9b",
    ("int", "mogulskii", "--m", "1", "--a", "1", "--b", "1"):
        "855b615eb35795adadd3be853cf608864f8eb21ba9ee0fc1580166cf6adbd12b",
    ("int", "quantile-chain", "--t", "1/10"):
        "e37b455154a1553868c874e1c2a18b93dbffdd525888be78381b86a0188f5c16",
    ("int", "moment-sandwich", "--t", "1/2", "--p", "2"):
        "ddec9ff30ef29b0a3fd2c3b03a847fdcf852cd922dbc4093ded7f52ff26af0b0",
    ("int", "quantile-ratio", "--t", "1/10", "--s", "1/2"):
        "b22c12ec7240fa84deb2b3ceabdd935bba24031303a88c592616b8a6c5312cee",
    ("int", "moment-vs-quantile", "--p", "2"):
        "fd4ce1187a93a84e3baf1d1b7fea43a3457796425a15676db7398c503ef9dec8",
    ("int", "trunc-quantile", "--p", "1"):
        "5f3f2c53141a5eb1d19ac06b1439a8ee4d4b2383e1ce398a7051052603860bbb",
    ("int", "walk-moment", "--p", "2"):
        "474f0a22ca71a2d5170cca274aa76afbaa72304d46b4c2c7b86b692261e93f3e",
    ("int", "spike-moment", "--r", "9/10", "--p", "1"):
        "7a42a3354fbaeb38720715bddd6d908766df63ee7be1d133f1a3b6fba3492e05",
    ("int", "moment-growth", "--p", "1", "--q", "2"):
        "6bf57e68544ad5013ce1f36c51d25d1c3c7841b49c7b9a4ff0fd5c65fb3b788b",
    ("int", "moment-growth", "--p", "1", "--q", "2", "--c", "1.5"):
        "83aac401ff91d6326a8581419056d5be894adaaa94d6841a08245bf2a16f55bd",
    ("int", "moment-growth", "--p", "1/2", "--q", "3/2", "--p0", "1/2"):
        "1f76686467708ba9c17eba9e0f585b4704de632f16cb871ea9eff52b0a6b8092",
    ("int", "moment-growth", "--p", "2", "--q", "4", "--c", "0.7", "--cprime", "3"):
        "f69cfb9d1e107d55e77422d83d328fb80329309b73cea13f00c448f0d97864d9",
    ("int", "hj-simple", "--repeats", "2", "--t", "1",
     "--engine", "mc", "--trials", "1000", "--seed", "3"):
        "32dbf41f918c69e79d8e4de43e99cc118993f51dcd8a76ede57fca2212703d88",
    ("int", "all", "--format", "csv"):
        "329d6b2ac2726e4cb4bfe5c9a7fc5c6c9d61029b81530507d4987087fa882b1d",
    ("float", "all"): "b31622f802ee4dfd7aa74e14f978aa07d39495ad00f7d3ad429b84abf8dbe70e",
    ("float", "moment-growth", "--p", "1", "--q", "2"):
        "2ff082f797e2fe254a6255bf929c948a0ff83be019daf031877b842a3667b5c3",
    ("float", "moment-growth", "--p", "1", "--q", "2", "--c", "1.5"):
        "cc4b82c43b69fcb6085e100ed5fedbd7a5d32ea990e182d6e609fe1476c62fc0",
}


def test_check_outputs_keep_their_digests(tmp_path):
    configs = {"int": README_INT, "float": FLOAT_INT}
    for (source, name, *extra), digest in CHECK_DIGESTS.items():
        path, out = tmp_path / f"{source}.json", tmp_path / "out"
        path.write_text(json.dumps(configs[source]))
        assert run(["check", str(path), "--ineq", name, *extra, "--out", str(out)]) == 0, extra
        assert sha256(out) == digest, (source, name, *extra)


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


@pytest.mark.parametrize(
    "atoms, argv",
    [
        ([20, -20], ["--ineq", "moment-growth", "--p", "1", "--q", "501/2"]),
        ([20, -20], ["--ineq", "moment-growth", "--p", "1", "--q", "501/2", "--c", "2"]),
        ([20, -20], ["--ineq", "moment-vs-quantile", "--p", "301"]),
        ([20, -20], ["--ineq", "walk-moment", "--p", "401/2"]),
        ([20, -20], ["--ineq", "moment-sandwich", "--t", "1/2", "--p", "501/2"]),
        ([20, -30], ["--ineq", "moment-sandwich", "--t", "1", "--p", "501/2"]),
    ],
)
def test_check_moments_beyond_the_float_range(tmp_path, atoms, argv):
    # On a walk with steps of size 20 or 30, E[X^p] leaves the float range
    # at these orders; moment roots stay finite, and a bound that compares
    # infinite floats is degenerate
    path = tmp_path / "walk.json"
    step = {"atoms": [[atoms[0], "1/2"], [atoms[1], "1/2"]]}
    path.write_text(json.dumps({"instance": "int", "variables": [step, step]}))
    out = tmp_path / "rep.json"
    assert run(["check", str(path), *argv, "--out", str(out)]) == 0
    for report in read_json(out)["results"]:
        if report.get("degenerate"):
            assert report["degenerate"] in ("infinite-right-side", "infinite-links")
            assert report["rhs"] == "inf" and report["holds"]
        else:
            assert '"inf"' not in json.dumps(report)
            assert report.get("holds", True)
        assert '"nan"' not in json.dumps(report)


def test_check_walk_moment_beyond_the_float_range_compares_roots(tmp_path):
    # E[peak^p] of a 3-step +-20 walk overflows a float at p = 401/2; the
    # bound is checked on p-th roots instead of reported as degenerate
    path = tmp_path / "walk.json"
    step = {"atoms": [[20, "1/2"], [-20, "1/2"]]}
    path.write_text(json.dumps({"instance": "int", "variables": [step] * 3}))
    out = tmp_path / "rep.json"
    argv = ["check", str(path), "--ineq", "walk-moment", "--p", "401/2", "--out", str(out)]
    assert run(argv) == 0
    [report] = read_json(out)["results"]
    assert "degenerate" not in report and report["holds"]
    assert 0 < report["lhs"] <= 60 < report["rhs"] < 250


def test_check_moment_sandwich_beyond_the_float_range_compares_roots(tmp_path):
    # E[step peak^p] of a 3-step +-20 walk overflows a float at p = 501/2;
    # the chain is checked on p-th roots instead of reported as degenerate
    path = tmp_path / "walk.json"
    step = {"atoms": [[20, "1/2"], [-20, "1/2"]]}
    path.write_text(json.dumps({"instance": "int", "variables": [step] * 3}))
    out = tmp_path / "rep.json"
    argv = ["check", str(path), "--ineq", "moment-sandwich", "--t", "1/2", "--p", "501/2"]
    assert run([*argv, "--out", str(out)]) == 0
    [report] = read_json(out)["results"]
    assert "degenerate" not in report and report["holds"]
    assert "roots" in report["note"]
    # every step peak is 20: the middle and upper roots are 20 itself
    assert report["components"]["step_peak_moment"] == report["rhs"] == 20.0
    assert report["lhs"] == pytest.approx(20 * (1 / 3) ** (2 / 501), rel=1e-12)


def test_check_parses_its_sequence_once(seq_file, tmp_path, monkeypatch):
    calls = []
    parse = cli.sequence_from_config
    monkeypatch.setattr(cli, "sequence_from_config", lambda c: calls.append(c) or parse(c))
    out = tmp_path / "all.json"
    assert run(["check", seq_file, "--ineq", "all", "--out", str(out)]) == 0
    assert len(calls) == 1
    # replay has no parsed sequence to reuse: it parses the embedded config
    replayed = tmp_path / "replayed.json"
    assert run(["replay", str(out), "--out", str(replayed)]) == 0
    assert len(calls) == 2
    assert replayed.read_bytes() == out.read_bytes()


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


def test_long_corpus_walks_are_swept_exactly(tmp_path):
    # 3^20 joint outcomes may exceed the state cap; the merged states of
    # each law stay far below it, so the spec is not refused
    corpus_file = tmp_path / "corpus.json"
    argv = ["corpus", "--count", "5", "--max-len", "20", "--max-support", "3"]
    assert run(argv + ["--out", str(corpus_file)]) == 0
    blob = read_json(corpus_file)
    assert blob["config"]["max_len"] == 20 and len(blob["sequences"]) == 5
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--constant", "c1", "--corpus", str(corpus_file), "--out", str(out)]) == 0
    results = read_json(out)["results"]
    assert results["corpus_size"] == 5 and results["skipped_degenerate"] == 0
    assert results["value"] == results["witness"]["ratio"] > 0


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


# SHA-256 of each sweep's output over the first 300 default-corpus items and
# over a 40-item `sgverify corpus` file, recorded before sweeps became one
# streaming pass; CSV rows keep their own quirks (p0 as the string "1").
SWEEP_DIGESTS = {
    ("c", "json", "default"): "25bddce6c80334b5d51fab21269c2f78c7a03ca3c69740dae154c09ecff2e7e8",
    ("c", "csv", "default"): "35b2e065668213f7e7dce4e1a57c58f5654162b141432691354819c2ec1efd22",
    ("c1", "json", "default"): "c293b344de50a99b506666a642042f709c0fc7ff8dc1742f6514a4293fed5f3f",
    ("c1", "csv", "default"): "84d4bc3f78f83f765d4d01eca3fd42ff481ecbb9ad0b96fe91bccbfbf080f5c4",
    ("approx-ratios", "json", "default"):
        "fd4a7c41b384fb51359dd030f0b13e8820cfcfadddadaf350395c7990d21c9d8",
    ("approx-ratios", "csv", "default"):
        "30c2cc4f4a242625ff793569ec0a1bb359597ec4e7f982e95c9ead7a49436be0",
    ("c", "json", "file"): "c24168d966e84bdb8b5c3e59df4e50a8fb0d886c50862504671c9eb750cc8523",
    ("c", "csv", "file"): "b268d93c08c2f1cba69e5370f38f68e8d6d79933dcec5aa149768c3a6615756e",
    ("c1", "json", "file"): "23d766657341133127703c435e1a8eaa534d43cded250db0fdb8861e04d36d43",
    ("c1", "csv", "file"): "b77820335cdd75d373b2e9262034d2a2983d9beda3a1fbb098b96da505493d17",
    ("approx-ratios", "json", "file"):
        "c49e125513c48596f8dd1af4008545d8b8b252d8bd5952051174dc80a6e8ef3d",
    ("approx-ratios", "csv", "file"):
        "8d6af1cee132053b3e0129710584beca5e859a14d118a177e9c0030d2e215bde",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sweep_outputs_keep_their_digests(tmp_path):
    corpus_file = tmp_path / "corpus.json"
    assert run(["corpus", "--count", "40", "--seed", "5", "--out", str(corpus_file)]) == 0
    sources = {"default": ["--count", "300"], "file": ["--corpus", str(corpus_file)]}
    for (constant, fmt, source), digest in SWEEP_DIGESTS.items():
        out = tmp_path / f"{constant}-{source}.{fmt}"
        argv = ["sweep", "--constant", constant, *sources[source], "--format", fmt]
        assert run(argv + ["--out", str(out)]) == 0
        assert sha256(out) == digest, (constant, fmt, source)


def test_sweep_reads_its_corpus_file_once(tmp_path, monkeypatch):
    corpus_file = tmp_path / "corpus.json"
    assert run(["corpus", "--count", "6", "--seed", "5", "--out", str(corpus_file)]) == 0
    read, calls = cli._read_json, []
    monkeypatch.setattr(cli, "_read_json", lambda path: calls.append(path) or read(path))
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--constant", "c1", "--corpus", str(corpus_file), "--out", str(out)]) == 0
    assert calls == [str(corpus_file)]
    # the sequences come from the file: with two of them cut, the spec
    # still says 6 items, but the sweep covers 4
    blob = read_json(corpus_file)
    blob["sequences"] = blob["sequences"][:4]
    corpus_file.write_text(json.dumps(blob))
    cut = tmp_path / "cut.json"
    calls.clear()
    assert run(["sweep", "--constant", "c1", "--corpus", str(corpus_file), "--out", str(cut)]) == 0
    assert calls == [str(corpus_file)]
    assert read_json(cut)["results"]["corpus_size"] == 4
    # a replay regenerates the corpus from the spec in the output
    calls.clear()
    again = tmp_path / "again.json"
    assert run(["replay", str(out), "--out", str(again)]) == 0
    assert calls == [str(out)]
    assert again.read_bytes() == out.read_bytes()


def test_csv_sweep_that_fails_midway_leaves_no_file(tmp_path, monkeypatch, capsys):
    seen, item_reports = [], inequalities.quantile_ratio_reports

    def third_fails(seq):
        seen.append(seq)
        if len(seen) == 3:
            raise ValueError("the third item fails")
        return item_reports(seq)

    monkeypatch.setattr(inequalities, "quantile_ratio_reports", third_fails)
    out = tmp_path / "rows.csv"
    argv = ["sweep", "--constant", "c1", "--count", "5", "--format", "csv", "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: the third item fails\n"
    assert not out.exists()


def test_sweep_c_rejects_eps_for_the_second_bound_only_in_json(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--constant", "c", "--count", "5", "--eps", "0.5", "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: second growth bound needs eps >= min(1, e - p0); got eps = 0.5 with p0 = 1\n"
    )
    assert not out.exists()
    # the CSV rows hold only the first bound's required constants
    assert run(argv + ["--format", "csv"]) == 0
    assert sha256(out) == "e55fdab2aea48e32d7ba9a45db39232620025a34e29d9993a6bace5883c04693"


# the checker each sweep calls first on a corpus item
SWEEP_CHECKERS = {
    "c": "moment_growth_components",
    "c1": "check_walk_quantile_ratio",
    "approx-ratios": "check_moment_vs_quantile",
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("constant", sorted(SWEEP_CHECKERS))
def test_sweep_keeps_at_most_two_corpus_items_alive(tmp_path, monkeypatch, constant, fmt):
    corpus_file = tmp_path / "corpus.json"
    assert run(["corpus", "--count", "12", "--seed", "8", "--out", str(corpus_file)]) == 0
    checker = getattr(inequalities, SWEEP_CHECKERS[constant])
    seen = weakref.WeakSet()
    alive = []

    def tracked(seq, *args):
        if seq not in seen:
            seen.add(seq)
            gc.collect()
            alive.append(len(seen))
        return checker(seq, *args)

    monkeypatch.setattr(inequalities, SWEEP_CHECKERS[constant], tracked)
    # older objects are left out of each collection, which keeps it fast
    gc.freeze()
    try:
        for source in (["--count", "12"], ["--corpus", str(corpus_file)]):
            alive.clear()
            argv = ["sweep", "--constant", constant, *source, "--format", fmt]
            assert run(argv + ["--out", str(tmp_path / "out")]) == 0
            assert len(alive) == 12
            assert max(alive) <= 2, (source, alive)
    finally:
        gc.unfreeze()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["axioms", "int", "--samples", "0"], "samples must be a positive integer, got 0"),
        (["axioms", "int", "--samples", "-3"], "samples must be a positive integer, got -3"),
        (["axioms", "cyclic:3", "--exhaustive", "--tol", "-1"],
         "tolerance must be a finite number >= 0, got -1.0"),
        (["levy", "--eps-grid", "0.1,nan"], "eps grid must be finite, positive and decreasing"),
    ],
)
def test_bad_numeric_input_is_a_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    assert run([*argv, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_axioms_non_finite_tol_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as err:
        run(["axioms", "cyclic:3", "--exhaustive", "--tol", value])
    assert err.value.code == 2
    assert f"argument --tol: not a finite number: '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config",
    [
        ("axioms", {"instance": "cyclic:3", "samples": None, "seed": 0, "tol": "nan"}),
        ("axioms", {"instance": "int", "samples": 0, "seed": 0, "tol": None}),
        ("levy", levy.WalkConfig().to_jsonable() | {"eps_grid": [0.1, "nan"]}),
    ],
)
def test_replayed_bad_numeric_config_is_a_usage_error(tmp_path, capsys, command, config):
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps({"command": command, "config": config}))
    assert run(["replay", str(edited)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# SHA-256 of `axioms` and `levy` outputs, recorded at commit db47e66, before
# `canonical_json` wrote in one pass; their `to_jsonable()` methods hand it
# raw floats and objects keyed by float and int strings.
AXIOMS_LEVY_DIGESTS = {
    ("axioms", "cyclic:6", "--exhaustive"):
        (0, "a03b254fc1a6fff77673b261cc378e6690f43db996c6d1272f38e36fa0eab0f1"),
    ("axioms", "torus:2", "--samples", "300", "--seed", "1", "--tol", "1e-12"):
        (0, "2a837da4377b860532896a16cfdb27d115411070f878fd4e0c6dd67cf5403d21"),
    ("axioms", "broken:mulreal", "--samples", "200", "--seed", "7"):
        (1, "42da5876ed2d778119b843a9de8253169eed08ecc1e633e0de291c0927e18531"),
    ("levy", "--schedule", "geometric:3", "--paths", "20", "--horizon", "60",
     "--windows", "5,10,20", "--seed", "5"):
        (0, "a6b5783a1f4d432a11e412c1f0f1c1590e1ec4bd77874b0be4b0bb8517807b07"),
    ("levy", "--schedule", "constant:uniform", "--paths", "20", "--horizon", "60",
     "--windows", "5,10,20", "--seed", "5"):
        (0, "677e75eb4f36d6daa26175bad4e361dd5a0bebc9b33cdc86d59489bcb4246e57"),
}


def test_axioms_and_levy_outputs_keep_their_digests(tmp_path):
    out = tmp_path / "out.json"
    for argv, (code, digest) in AXIOMS_LEVY_DIGESTS.items():
        assert run([*argv, "--out", str(out)]) == code, argv
        assert sha256(out) == digest, argv


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


CHECK_CONFIG = {"ineq": "all", "grid": "default", "engine": "exact", "trials": None,
                "seed": None, "flags": {}}
PAIR = [[1, "1"]]


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("check", [5], "sequence config must be an object, not [5]"),
        ("check", {"instance": "int", "variables": 5},
         "'variables' must be a list of objects, not 5"),
        ("check", {"instance": "int", "variables": [5]}, "variable 0 must be an object, not 5"),
        ("check", {"instance": "int", "variables": [{"atoms": 5}]},
         "'atoms' of variable 0 must be a list of [element, probability] pairs, not 5"),
        ("check", {"instance": "int", "variables": [{"atoms": [[1]]}]},
         "'atoms' of variable 0 must be a list of [element, probability] pairs, not [[1]]"),
        ("check", {"instance": 5, "variables": [{"atoms": PAIR}]},
         "'instance' must be a string, not 5"),
        ("replay", [1], "replay input must be an output object, not [1]"),
        ("replay", {"command": "check", "config": 5}, "replay 'config' must be an object, not 5"),
        ("replay", {"command": "check", "config": CHECK_CONFIG}, "replay config lacks 'sequence'"),
        ("replay", {"command": "check",
                    "config": CHECK_CONFIG | {"sequence": {"instance": "int", "variables": 5}}},
         "'variables' must be a list of objects, not 5"),
        ("sweep", {"config": {"count": 1}, "sequences": 5},
         "must be an object with a 'config' object and a 'sequences' list"),
        ("sweep", {"config": {"count": 1}, "sequences": [5]},
         "sequence config must be an object, not 5"),
        ("sweep", {"config": {"count": "x"}, "sequences": []},
         "'count' must be an integer, not 'x'"),
        ("check", {"instance": "int", "variables": [{"atoms": [[[1], "1"]]}]},
         "expected a JSON integer, got [1]"),
        ("check", {"instance": "int", "variables": [{"atoms": PAIR}], "z0": [1]},
         "expected a JSON integer, got [1]"),
        ("check", {"instance": "int", "variables": [{"atoms": [[1.5, "1/2"], [1, "1/2"]]}]},
         "expected a JSON integer, got 1.5"),
        ("check", {"instance": "cyclic:6", "variables": [{"atoms": [[2.9, "1"]]}]},
         "expected a JSON integer, got 2.9"),
        ("check", {"instance": "real:1",
                   "variables": [{"atoms": [[float("inf"), "1/2"], [1.0, "1/2"]]}]},
         "expected a list of 1 finite numbers, got [inf]"),
        ("replay", {"command": "check", "config": CHECK_CONFIG | {"sequence": {
            "instance": "sym:3", "variables": [{"atoms": [[[0, 1.9, 2], "1"]]}]}}},
         "expected a JSON integer, got 1.9"),
        ("check", {"instance": "int", "variables": [{"atoms": [[1, float("nan")], [2, "1"]]}]},
         "probability nan for atom 1 is not >= 0"),
        ("check", {"instance": "int", "variables": [{"atoms": [[1, "1/0"]]}]},
         "cannot parse probability '1/0'"),
    ],
)
def test_malformed_config_shapes_are_usage_errors(tmp_path, capsys, command, content, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    argv = {
        "check": ["check", str(path), "--ineq", "all"],
        "replay": ["replay", str(path)],
        "sweep": ["sweep", "--corpus", str(path)],
    }[command]
    assert run([*argv, "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert not (tmp_path / "out.json").exists()


SWEEP_CONFIG = {"constant": "c", "corpus": {"count": 2}, "p0": "1", "eps": 1.0, "seed": 1}
LEVY_CONFIG = {"instance": "torus:1", "schedule": "zero", "horizon": 3, "paths": 2, "seed": 0,
               "eps_grid": [0.1], "windows": [1]}
CORPUS_CONFIG = {"count": 2, "max_len": 2, "max_support": 2, "instances": ["int"], "seed": 1}
MOGULSKII = CHECK_CONFIG | {"ineq": "mogulskii", "sequence": RADEMACHER2}
HJ_SIMPLE_MC = MOGULSKII | {"ineq": "hj-simple", "engine": "mc", "trials": 100, "seed": 0,
                            "flags": {"repeats": 1, "t": "1"}}


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("check", MOGULSKII | {"flags": 5}, "check 'flags' must be an object, not 5"),
        ("check", MOGULSKII | {"flags": {"t1": [1], "n1": 1}}, "check flag t1=[1]: "),
        ("check", MOGULSKII | {"flags": {"foo": 1}}, "unknown check flag 'foo'"),
        ("check", MOGULSKII | {"flags": {"m": 2.7, "a": 1, "b": 1}},
         "check flag m=2.7: 2.7 is not an integer"),
        ("check", MOGULSKII | {"flags": {"m": True, "a": 1, "b": 1}},
         "check flag m=True: True is not an integer"),
        ("check", MOGULSKII | {"flags": {"m": 1, "a": float("inf"), "b": 1}},
         "check flag a=inf: "),
        ("check", MOGULSKII | {"ineq": ["hj"]}, "unknown inequality ['hj']"),
        ("check", HJ_SIMPLE_MC | {"trials": "x"}, "trials and seed must be integers, not 'x', 0"),
        ("check", HJ_SIMPLE_MC | {"seed": 1.5}, "trials and seed must be integers, not 100, 1.5"),
        ("sweep", SWEEP_CONFIG | {"corpus": {"count": "x"}},
         "'count' must be an integer, not 'x'"),
        ("sweep", SWEEP_CONFIG | {"corpus": 5}, "corpus config must be an object, not 5"),
        ("corpus", CORPUS_CONFIG | {"instances": "int"}, "'instances' must be a list, not 'int'"),
        ("corpus", CORPUS_CONFIG | {"instances": [5]}, "instance spec must be a string, not 5"),
        ("levy", LEVY_CONFIG | {"horizon": "x"}, "'horizon' must be an integer, not 'x'"),
        ("levy", LEVY_CONFIG | {"instance": 5}, "'instance' must be a string, not 5"),
        ("levy", LEVY_CONFIG | {"eps_grid": 5}, "'eps_grid' must be a list, not 5"),
        ("levy", LEVY_CONFIG | {"windows": ["a"]}, "window starts must lie in 1..horizon-1"),
        ("axioms", {"instance": 5, "samples": None, "seed": 0, "tol": None},
         "instance spec must be a string, not 5"),
        ("sweep", SWEEP_CONFIG | {"constant": "zzz"}, "unknown sweep constant 'zzz'"),
        ("sweep", SWEEP_CONFIG | {"constant": ["c"]}, "unknown sweep constant ['c']"),
    ],
)
def test_replayed_values_of_the_wrong_type_are_usage_errors(tmp_path, capsys, command, config,
                                                           message):
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps({"command": command, "config": config}))
    assert run(["replay", str(edited), "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert not (tmp_path / "out.json").exists()
