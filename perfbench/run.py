"""llvlat benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload families --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; llvlat is imported from its src/.  Each
invocation first replays the golden table in a fresh interpreter and
requires every entry to pass.  With --trace 0 it then runs the workload in
a child process until --seconds have been spent in requests: one client,
no threads, every answer checked against an independent reference, and
five fresh interpreters spread over the run to time set-up.  It prints the
end-to-end metrics, with times scaled to one machine speed by a speed
probe timed around every request (see worker.timed).  With --trace 1 it runs a fixed number of blocks
twice, untraced and traced, and prints the per-layer metrics, the
layer-share table and the layer-separation check.  The last line of stdout
is one JSON object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDEN_ENTRIES = 86
END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def child(args, timeout):
    """Run worker.py in a fresh interpreter; returns its JSON output."""
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} did not finish in {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    return "ratio" if name.endswith("_frac") else "count"


def print_layer_table(out) -> None:
    """Spans and self time per layer, and the census of llvlat's own calls."""
    layers, calls = out["layers"], out["census"]
    total = sum(ns for _, ns in layers.values()) or 1
    print(f"{'layer':<12}{'spans':>8}{'self ms':>12}{'share':>8}{'census calls':>15}")
    for layer in LAYERS + ("bench", "_linalg", "rational"):
        n, ns = layers.get(layer, (0, 0))
        print(f"{layer:<12}{n:>8}{ns / 1e6:>12.1f}{ns / total:>8.1%}{calls.get(layer, 0):>15}")


def run(args) -> dict:
    if sys.flags.optimize:
        raise BenchError("never run under python -O: llvlat's exact checks are asserts")
    if not os.path.isfile(os.path.join(ROOT, "src", "llvlat", "__init__.py")):
        raise BenchError(f"no llvlat sources under {os.path.join(ROOT, 'src')}")

    gold = child(["golden"], 40)
    if not gold["ok"] or gold["total"] < GOLDEN_ENTRIES:
        raise BenchError(f"run_golden passed {gold['passed']}/{gold['total']}, "
                         f"need all of at least {GOLDEN_ENTRIES}: {gold['failures']}")
    print(f"run_golden: {gold['passed']}/{gold['total']} passed")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans_path = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl")
    out = child(["measure", args.workload, str(args.seed), str(args.seconds),
                 str(args.trace), spans_path], args.seconds + 110)
    metrics = out.get("metrics", {})

    print(f"workload {args.workload}, seed {args.seed}: {out['attempted']} requests, "
          f"{out['failed']} failed, fail_frac {out['failed'] / max(out['attempted'], 1):.4f}")
    if args.trace and "layers" in out:
        print(f"traced {out['blocks']} blocks; census over the first block")
        print_layer_table(out)
    for name, value in metrics.items():
        print(f"  {name:<34}{value:>16.6g} {unit_of(name)}")
    for msg in out["failures"] + out["errors"]:
        print(f"FAILED CHECK: {msg}", file=sys.stderr)
    if args.trace:
        names = [m for m in metrics if m not in END_TO_END]
    else:
        names = list(END_TO_END)
    return {
        "correct": out["failed"] == 0 and not out["errors"] and len(metrics) > 0,
        "attempted": max(out["attempted"], 1),
        "failed": out["failed"],
        "metrics": {m: {"value": metrics[m], "unit": unit_of(m)} for m in names if m in metrics},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
