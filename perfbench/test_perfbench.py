#!/usr/bin/env python3
"""Self-test of the benchmark.

Default (smoke, ~1 minute): runs a tiny size of every workload untraced and
traced and asserts that every metric named in BENCHMARK.json is printed with
its unit, that the per-pass shares sum to 1, and that a perturbed fit is
counted as a failure by the output oracle.

    python3 perfbench/test_perfbench.py

--seeds (full size, several minutes per workload): runs each named workload
with two seeds and asserts that every end-to-end metric except setup_s
agrees within the metric's bound in BENCHMARK.json.

    python3 perfbench/test_perfbench.py --seeds [--workload cluster-im]
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, seed=1, seconds=1, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return result, proc.stdout


def check_metrics(result, specs, where):
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    assert set(metrics) == set(want), (where, set(metrics) ^ set(want))
    for name, unit in want.items():
        got = metrics[name]
        assert got["unit"] == unit, (where, name, got)
        assert isinstance(got["value"], (int, float)), (where, name, got)


def smoke():
    workloads = [w["name"] for w in SPEC["workloads"]]
    for w in workloads:
        result, _ = run(w, extra=("--size", "tiny"))
        check_metrics(result, SPEC["end_to_end"], w)
        assert result["correct"] and result["failed"] == 0, (w, result)
        assert result["metrics"]["ok_frac"]["value"] == 1.0, (w, result)

        result, out = run(w, trace=1, extra=("--size", "tiny"))
        check_metrics(result, SPEC["per_layer"], w + " traced")
        assert result["correct"], (w, out)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        shares = (m["exec.kernel_frac"] + m["exec.copy_frac"] +
                  m["prefetch.read_wait_frac"] + m["exec.other_frac"])
        assert abs(shares - 1.0) < 1e-9, (w, shares)
        assert m["ml.passes_per_fit"] > 0, (w, m)
        assert m["fail_frac"] == 0.0, (w, m)
        print(f"ok   {w}: {len(SPEC['end_to_end'])} end-to-end and "
              f"{len(SPEC['per_layer'])} per-layer metrics")

    # Negative case: nudge one value of the second fit by one ulp; the
    # bit-identity oracle must count exactly that fit as failed.
    for w in workloads:
        result, out = run(w, extra=("--size", "tiny", "--perturb-fit", "1"))
        assert not result["correct"], (w, out)
        assert result["failed"] == 1, (w, result)
        ok = result["metrics"]["ok_frac"]["value"]
        assert abs(ok - (1 - 1 / result["attempted"])) < 1e-12, (w, result)
        assert "fail_frac" in out and "FAILED" in out, out
        print(f"ok   {w}: perturbed fit counted in fail_frac")


def seeds(workloads):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for w in workloads:
        a, _ = run(w, seed=1, seconds=SPEC["run_seconds"])
        b, _ = run(w, seed=2, seconds=SPEC["run_seconds"])
        assert a["correct"] and b["correct"], (w, a, b)
        for name, bound in bounds.items():
            if name == "setup_s":
                continue
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            rel = abs(vb - va) / va
            assert rel <= bound, (w, name, va, vb, bound)
            print(f"ok   {w} {name}: seed 1 {va:.4g}, seed 2 {vb:.4g} "
                  f"({rel:.1%} <= {bound:.0%})")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", action="store_true",
                    help="full-size two-seed agreement check")
    ap.add_argument("--workload", action="append",
                    help="restrict --seeds to this workload (repeatable)")
    args = ap.parse_args()
    if args.seeds:
        seeds(args.workload or [w["name"] for w in SPEC["workloads"]])
    else:
        smoke()
    print("all perfbench self-tests passed")


if __name__ == "__main__":
    main()
