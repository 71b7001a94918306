"""The benchmark's own tests: python3 -m pytest perfbench -q

They run the benchmark as a subprocess from the checkout root, as a user
would, with a one-second budget (one untraced and one traced round).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Round  # noqa: E402

COUNTS = (
    "semigroups.compose_calls",
    "laws.exact_law_calls",
    "laws.outcomes_enumerated",
    "inequalities.checks",
    "rearrange.tail_sum_inverse_calls",
)


def bench(workload, seed=1, trace=1, cwd=ROOT):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc):
    assert proc.returncode == 0, proc.stderr[-3000:] + proc.stdout[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_runs():
    return {name: parse(bench(name)) for name in WORKLOADS}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_rounds_give_the_reference_digest(traced_runs, workload):
    detail, result = traced_runs[workload]
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # one untraced and one traced round, both hashed to the stored digest
    assert detail["rounds"] == 2
    assert isinstance(detail["digest"], str)
    assert detail["reference_match"] is True


def test_result_carries_every_metric_of_benchmark_json(traced_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def units(metrics):
        return {name: m["unit"] for name, m in metrics.items()}

    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for detail, result in traced_runs.values():
        assert units(result["metrics"]) == per_layer
    _, result = parse(bench("long-walk", trace=0))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_across_traced_runs(traced_runs):
    _, first = traced_runs["cli-batch"]
    _, second = parse(bench("cli-batch"))
    for key in COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("cli-batch", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_round_time_is_the_sum_of_each_items_fastest_time():
    from run import end_to_end

    rounds = [
        {"wall": 1.0, "round": Round(item_times=[0.3, 0.5, 0.1], checks=6)},
        {"wall": 0.9, "round": Round(item_times=[0.4, 0.2, 0.1], checks=6)},
    ]
    metrics, detail = end_to_end(rounds, [0.1, 0.3, 0.2])
    assert metrics["wall_s"][0] == pytest.approx(0.6)
    assert metrics["checks_per_s"][0] == pytest.approx(10)
    assert detail["item_p50_ms"] == pytest.approx(200)
    assert metrics["setup_s"][0] == pytest.approx(0.2)
    assert detail["round_wall_s"]["median"] == pytest.approx(0.95)
    with pytest.raises(RuntimeError):
        end_to_end(rounds + [{"wall": 0.5, "round": Round(item_times=[0.5])}], [0.1])


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    with tracer.span("a.outer"):
        with tracer.span("b.inner"):
            with tracer.span("c.leaf"):
                pass
    summary = tracer.summarize(0, 3)
    fn = summary["functions"]
    outer, inner, leaf = (tracer.end[i] - tracer.start[i] for i in range(3))
    assert fn["a.outer"]["self_s"] == pytest.approx(outer - inner)
    assert fn["b.inner"]["self_s"] == pytest.approx(inner - leaf)
    assert fn["c.leaf"]["self_s"] == pytest.approx(leaf)
    assert sum(summary["layers"].values()) == pytest.approx(outer)


def test_install_rebinds_every_alias_and_uninstall_restores():
    sys.path.insert(0, str(ROOT / "src"))
    from run import import_sgverify

    sv = import_sgverify()
    original = sv.rearrange.tail_sum_inverse
    compose = sv.semigroups.IntegerAdditive.compose
    tracer = Tracer()
    tracer.install(sv)
    try:
        wrapped = sv.rearrange.tail_sum_inverse
        assert wrapped is not original
        assert sv.inequalities.tail_sum_inverse is wrapped
        assert sv.package.tail_sum_inverse is wrapped
        sv.semigroups.IntegerAdditive().compose(1, 2)
        assert tracer.snapshot()[1]["semigroups.compose_calls"] == 1
    finally:
        tracer.uninstall()
    assert sv.rearrange.tail_sum_inverse is original
    assert sv.inequalities.tail_sum_inverse is original
    assert sv.semigroups.IntegerAdditive.compose is compose
