#!/usr/bin/env python3
"""Negative smoke test of the repository benchmark at tiny shapes.

    python3 perfbench/tests/smoke_test.py

Checks that every workload emits every declared end-to-end metric (untraced)
and every per-layer metric (traced) and passes its own checks, and that a
planted wrong served row and a planted wrong final loss are each counted as
failed operations. Takes about a minute after the build.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py: build dir and workload table)


def bench(*args):
    proc = subprocess.run([sys.executable, RUN, "--tiny", "1", "--seconds", "1", *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    reference = os.path.join(run.build_dir(), "smoke_reference.json")
    os.makedirs(run.build_dir(), exist_ok=True)
    subprocess.run([sys.executable, RUN, "--tiny", "1", "--calibrate", "1",
                    "--reference", reference], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    problems = []
    for name in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = bench("--workload", name, "--trace", str(trace), "--seed", "1",
                        "--reference", reference)
            want = [m["name"] for m in declared[key]]
            if list(res["metrics"]) != want:
                problems.append(f"{name} trace {trace}: metrics {list(res['metrics'])}")
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{name} trace {trace}: clean run failed {res}")
    planted = [("serve_ptb_open", "wrong_row"), ("ptb_lstm_k16", "wrong_loss"),
               ("mnist_dp2_ckpt", "wrong_loss")]
    for name, plant in planted:
        res = bench("--workload", name, "--trace", "0", "--seed", "1",
                    "--reference", reference, "--plant", plant)
        if res["correct"] or res["failed"] < 1:
            problems.append(f"{name}: planted {plant} not counted as failed: {res}")
    for p in problems:
        print("FAIL:", p)
    print("smoke test:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
