"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a seed fixes the request list and the exact outputs, that
another seed changes the list, that every workload passes at the current
commit with its layer separation intact, that a corrupted reference value
fails the run by name, and that span self times subtract child spans.
Exits nonzero if any test fails.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

import ref
import worker
import workloads
from spans import NullTracer, Tracer


def _requests(workload, seed, n_blocks=2):
    out = []
    for i, block in enumerate(workloads.blocks(workload, seed)):
        if i == n_blocks:
            return repr(out)
        out.append(block)


def test_seed_fixes_requests():
    for w in workloads.WORKLOADS:
        assert _requests(w, 7) == _requests(w, 7), w
        assert _requests(w, 7) != _requests(w, 8), w


def test_seed_fixes_outputs(api):
    for w in workloads.WORKLOADS:
        first = worker.fixed_run(api, NullTracer(), w, 3, 1)
        again = worker.fixed_run(api, NullTracer(), w, 3, 1)
        assert first.failures == [] and again.failures == [], (first.failures, again.failures)
        assert first.digest.hexdigest() == again.digest.hexdigest(), w


def test_traced_runs_pass_and_separate_layers(api):
    with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(__file__))) as tmp:
        for w in workloads.WORKLOADS:
            out = worker.traced(api, w, 5, 2, os.path.join(tmp, "spans.jsonl"))
            assert out["failed"] == 0 and out["errors"] == [], (w, out["failures"], out["errors"])
            assert out["metrics"]["fail_frac"] == 0, w


def test_corrupted_reference_fails(api):
    real = ref.ek
    ref.ek = lambda k: real(k) | {"rank": real(k)["rank"] + 1}
    try:
        block = next(workloads.blocks("families", 1))
    finally:
        ref.ek = real
    run = worker.Run()
    for req in block:
        run.add(api, NullTracer(), req)
    assert any("rank = 45 k^2" in f for f in run.failures), run.failures


def test_refusal_expected_but_answered(api):
    req = next(r for r in next(workloads.blocks("families", 1))
               if r["kind"] == "chern_phiO" and r["expect"] is not None)
    run = worker.Run()
    run.add(api, NullTracer(), req | {"expect": None})
    assert run.failures and "should refuse" in run.failures[0], run.failures


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.request(0, lambda: tr.call("lattice.pair", time.sleep, 0.01))
    outer, inner = sorted(tr.spans, key=lambda s: s[4])
    selfs = tr.self_times()
    assert inner[1] == outer[0] and inner[2] == 0
    assert selfs[outer[0]] == (outer[5] - outer[4]) - (inner[5] - inner[4])
    table = tr.layer_table()
    assert table["lattice"] == [1, inner[5] - inner[4]] and table["bench"][0] == 0


def main() -> int:
    if sys.flags.optimize:
        print("the self-test uses assert; do not run it with -O")
        return 1
    api = worker.Api()
    failed = 0
    for name, fn in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            fn(api) if fn.__code__.co_argcount else fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
