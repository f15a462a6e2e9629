"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 omegabench/spread.py --workload paper_infer --seeds 1-10 --seconds 20

Runs ``run.py`` untraced once per seed, one run at a time (a second BLAS process
would distort both), and prints for each metric its median and the distance
between the first and third quartile as a share of the median, the spread
that BENCHMARK.json's bounds are judged against.  Exits 1 if a run failed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run-to-run spread of the omegabench metrics.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in
              json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}

    values = {}
    ok = True
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=HERE.parent)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and proc.returncode == 0 and result["correct"]
        print(f"seed {seed}: exit {proc.returncode} correct={result['correct']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = float("nan")
        print(f"{name}: median {med:.6g} spread {spread:.4f} bound {bounds[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
