"""Self-test of the benchmark harness (not of omeganet).

    python3 omegabench/selftest.py

Takes about a minute on two CPUs and exits 1 if any check fails:

- the exact counts of a traced toy_train run (GEMM flops, im2col/col2im
  bytes, tape nodes, OTF bytes, retained MB) repeat exactly in a traced run
  with another seed;
- named spans cover at least 95% of the traced toy_train step time;
- an untraced and a traced process with the same seed produce byte-identical
  losses, so tracing does not change the arithmetic;
- a child that is killed mid-run, or outlives its deadline, is reported as
  failed operations, not as a harness crash;
- in a directory holding only BENCHMARK.json and omegabench/, run.py exits
  non-zero without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

COUNTS = (
    "tensor.conv2d.gemm_flops", "tensor.im2col.bytes", "tensor.col2im.bytes",
    "tensor.tape_nodes", "data.read_otf.bytes", "data.write_otf.bytes",
    "net.forward.retained_mb",
) + tuple(f"blocks.{b}.retained_mb" for b in
          ("conv_block", "cascade_msc", "dspa", "channel_attention", "up", "head"))
SECONDS = 8


def bench(seed: int, trace: int) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "toy_train",
                    "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
                   stdout=subprocess.DEVNULL, cwd=run.ROOT, check=True)
    path = run.ROOT / ".omegabench" / f"toy_train-seed{seed}-trace{trace}" / "result.json"
    return json.loads(path.read_text())


def main() -> int:
    failures = []

    def check(name, ok, detail):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
        if not ok:
            failures.append(name)

    a, b, plain = bench(1, 1), bench(2, 1), bench(1, 0)
    differing = [k for k in COUNTS if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
    check("exact counts repeat", not differing and a["correct"] and b["correct"],
          f"{len(COUNTS) - len(differing)}/{len(COUNTS)} identical across seeds 1 and 2"
          + (f"; differ: {differing}" if differing else ""))
    coverage = min(r["metrics"]["trace.span_coverage"]["value"] for r in (a, b))
    check("span coverage", coverage >= 0.95, f"{coverage:.4f} of traced step time (>= 0.95)")
    same = a["report"]["first_losses"] == plain["report"]["first_losses"]
    check("losses identical across processes", same and plain["correct"],
          f"{len(plain['report']['first_losses'])} losses, traced vs untraced, seed 1")

    env = run.child_env()
    killed = "import os, signal; print('op step', flush=True); os.kill(os.getpid(), signal.SIGKILL)"
    code, lines = run.run_child([sys.executable, "-c", killed], env, 60)
    result = run.collect(code, lines)
    check("killed child counted as failed",
          code != 0 and not result["correct"] and result["attempted"] == result["failed"] == 2,
          f"exit {code}, attempted {result['attempted']}, failed {result['failed']}")
    code, lines = run.run_child([sys.executable, "-c", "import time; time.sleep(60)"], env, 1)
    result = run.collect(code, lines)
    check("child past its deadline is killed",
          code != 0 and result["failed"] == 1, f"exit {code}, failed {result['failed']}")

    bare = run.ROOT / ".omegabench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "toy_train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    shutil.rmtree(bare)
    check("no sources, no result", proc.returncode != 0 and "{" not in proc.stdout,
          f"exit {proc.returncode}, {len(proc.stdout)} bytes on stdout")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
