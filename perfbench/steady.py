"""Run the benchmark several times and report each metric's spread.

    python3 perfbench/steady.py --workload cli-batch --runs 10 [--first-seed 1]

Each run uses another seed (first-seed, first-seed+1, ...), as a fresh
process, one after another.  For every metric the table shows the median
and quartiles of the runs and the spread: (q3 - q1) / median, next to the
metric's bound from BENCHMARK.json.  Results are also written as JSON lines
to `.perfbench/steady/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"run failed ({proc.returncode}): {proc.stderr[-2000:]}\n{proc.stdout[-2000:]}"
        )
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"], elapsed


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics_spec}
    out_dir = ROOT / ".perfbench" / "steady"
    out_dir.mkdir(parents=True, exist_ok=True)
    for workload in args.workload:
        values: dict = {}
        log = out_dir / f"{workload}-trace{args.trace}-{int(time.time())}.jsonl"
        with log.open("w", encoding="utf-8") as fh:
            for k in range(args.runs):
                seed = args.first_seed + k
                result, detail, elapsed = one_run(workload, seed, args.seconds, args.trace)
                fh.write(json.dumps({"seed": seed, "elapsed_s": elapsed, "result": result,
                                     "detail": detail}) + "\n")
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"{workload} seed {seed}: {elapsed:.1f}s correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} rounds={detail['rounds']} "
                      + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                      flush=True)
        print(f"\n{workload}: {args.runs} runs, {args.seconds}s each ({log.relative_to(ROOT)})")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            rel = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            if bound is None:
                flag = ""
            else:
                flag = "  OK" if rel <= bound / 3 else ("  >1/3" if rel <= bound else "  OVER")
            print(f"{name:34} {med:12.5g} {q1:12.5g} {q3:12.5g} {rel:8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
