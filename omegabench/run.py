"""Run one omegabench workload and print its result as the last line.

    python3 omegabench/run.py --workload toy_train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(``worker.py``) with the BLAS thread variables pinned to one thread, so
its peak RSS is its own and one out-of-memory kill or crash is
reported, not fatal.  With ``--trace 0`` the result carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with the checks and the
environment, is kept under ``.omegabench/``.

Exit codes: 0 for a completed run whose checks passed, 1 when the child
failed or a check did not pass (the result line is still printed), 2 when
there is nothing to benchmark (no ``src/omeganet`` in the checkout) or the
arguments are wrong, ``--seconds`` above 100 included.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("toy_train", "paper_infer", "paper_train")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a few shared vCPUs, two threads splitting each GEMM
# wait for whichever vCPU the host takes away, and an idle worker spins, so
# step times spread about twice as far between runs as with one thread.
BLAS_THREADS = "1"
# a run must end within 180 s; the child gets what is left after a margin
DEADLINE_S = 170.0
# set-up, warm-up, the operation in flight when the time is up (a 50-step
# chunk on toy_train, about 20 s) and the checks add up to about 60 s
MAX_SECONDS = 100.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(cmd, env, timeout):
    """Run cmd, collecting its stdout lines; returns (exit code, lines).

    The child is killed at the timeout; either way it has ended on return.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    lines = []
    reader = threading.Thread(target=lambda: lines.extend(proc.stdout), daemon=True)
    reader.start()
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    reader.join()
    proc.stdout.close()
    return code, lines


def collect(code, lines) -> dict:
    """The child's result, or, when it crashed or was killed, a failed one:
    its results are lost, so every operation it started counts as failed,
    the one in flight included."""
    results = [line[len("result "):] for line in lines if line.startswith("result ")]
    if code == 0 and results:
        return json.loads(results[-1])
    ops = sum(line.startswith("op ") for line in lines) + 1
    return {"correct": False, "attempted": ops, "failed": ops, "metrics": {},
            "checks": {"child_exit": {"ok": False, "detail": f"exit code {code}"}}}


def summarize(workload, result, code) -> None:
    """Human-readable lines before the result line, under the metric names
    ROADMAP and the benchmark doc use for each workload."""
    print(f"omegabench {workload}: exit {code}, correct={result['correct']},"
          f" attempted={result['attempted']}, failed={result['failed']},"
          f" failed_ratio={result['failed'] / max(1, result['attempted']):.4f} ratio")
    env = result.get("environment")
    if env:
        print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    report = result.get("report", {})
    metrics = result["metrics"]
    if "step_s_p50" in metrics:
        step = "infer_s" if workload == "paper_infer" else "step_s"
        rate = "infer_images_per_s" if workload == "paper_infer" else "train_samples_per_s"
        aliases = {"step_s_p50": f"{step}_p50", "step_s_tail": f"{step}_tail",
                   "samples_per_s": rate}
        for name, m in metrics.items():
            extra = ""
            if name == "step_s_tail":
                extra = (f"  (median + least p90 excess of {len(report['tail_stretch_excess'])}"
                         f" stretches of {report['samples']} samples)")
            print(f"  {aliases.get(name, name)} = {m['value']:.6g} {m['unit']}{extra}")
        if "eval_images_per_s" in report:
            print(f"  eval_images_per_s = {report['eval_images_per_s']:.6g} 1/s"
                  f"  ({report['evals']} evaluations)")
    else:
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        if "trace.overhead_s" in metrics and report.get("untraced_step_s_p50"):
            share = metrics["trace.overhead_s"]["value"] / report["untraced_step_s_p50"]
            print(f"  tracing overhead: {share:.1%} of the untraced median operation")
        print("  largest self times per operation (inclusive s, self s, calls):")
        ops = metrics.get("trace.ops", {}).get("value", 1) or 1
        for name, (incl, own, calls) in list(result.get("self_times", {}).items())[:12]:
            print(f"    {name:<32} {incl / ops:10.5f} {own / ops:10.5f} {calls / ops:8.1f}")
    for name, c in result.get("checks", {}).items():
        print(f"  check {name}: {'ok' if c['ok'] else 'FAILED'} {c['detail']}")


def main(argv=None) -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description="Run one omegabench workload.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be in (0, {MAX_SECONDS:g}]: a run must end within"
                 f" {DEADLINE_S:g} s, set-up and warm-up included")
    if not (ROOT / "src" / "omeganet" / "__init__.py").is_file():
        print(f"error: no omeganet sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".omegabench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    code, lines = run_child(cmd, child_env(), DEADLINE_S - (time.monotonic() - start))

    result = collect(code, lines)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    summarize(args.workload, result, code)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
