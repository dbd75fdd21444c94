#!/usr/bin/env python3
"""Repository benchmark: LEGW training and serving, end to end and per layer.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and the libraries it links)
into $CARGO_TARGET_DIR or .bench_build, then runs each workload in its own
process with every LEGW_* switch set explicitly. --trace 0 prints the
end-to-end metrics (measured untraced); --trace 1 prints the per-layer
metrics of a traced replay. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --calibrate 1,2,...,10

reruns each training workload once per seed and rewrites
perfbench/reference.json (final train loss and loss-curve hash per seed).
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
BINARY = "legw_perfbench"
DEADLINE_S = 170.0

# Switches every workload pins: the LEGW_* dispatchers latch on first use,
# so leaving one to the caller's environment would change what is measured.
# LEGW_DIST_GROUP has no neutral value (it must be a positive group size if
# set); it is removed so the hierarchical allreduce picks ceil(sqrt(n)).
BASE_ENV = {
    "LEGW_KERNEL": "blocked",
    "LEGW_LSTM": "fused",
    "LEGW_DIST_ALGO": "auto",
    "LEGW_DIST_BUCKET_KB": "256",
    "LEGW_CHECK_FINITE": "0",
    "LEGW_GUARD": "off",
    "LEGW_SERVE_BATCH_CAP": "16",
    "LEGW_SERVE_DEADLINE_MS": "5",
    "LEGW_TELEMETRY": "",
    "LEGW_TRACE": "",
    "LEGW_BENCH_SCALE": "1",
}

# name -> (total threads, per-workload switches). The total counts the pool
# (LEGW_NUM_THREADS, whose first thread is the caller), replica workers,
# reducer threads, broker workers and the request generator.
WORKLOADS = {
    "ptb_lstm_k16": (1, {
        "LEGW_NUM_THREADS": "1", "LEGW_ALLOC": "malloc", "LEGW_DIST": "sync",
        "LEGW_DIST_WIRE": "fp32", "LEGW_DIST_COMM_THREADS": "1"}),
    "resnet_lars_k8": (2, {
        "LEGW_NUM_THREADS": "2", "LEGW_ALLOC": "malloc", "LEGW_DIST": "sync",
        "LEGW_DIST_WIRE": "fp32", "LEGW_DIST_COMM_THREADS": "1"}),
    # Two replica threads and one reducer; the caller only waits on them.
    "mnist_dp2_ckpt": (3, {
        "LEGW_NUM_THREADS": "1", "LEGW_ALLOC": "malloc", "LEGW_DIST": "overlap",
        "LEGW_DIST_WIRE": "fp16", "LEGW_DIST_COMM_THREADS": "1"}),
    # The generator thread (also the 1-thread pool) and two broker workers.
    "serve_ptb_open": (3, {
        "LEGW_NUM_THREADS": "1", "LEGW_ALLOC": "arena", "LEGW_DIST": "sync",
        "LEGW_DIST_WIRE": "fp32", "LEGW_DIST_COMM_THREADS": "1"}),
}
TRAINING = ["ptb_lstm_k16", "resnet_lars_k8", "mnist_dp2_ckpt"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "train", "runners.hpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError(f"repository source {needed} not found under {ROOT}")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", BINARY, "-j4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, BINARY)


def workload_env(name):
    env = {k: v for k, v in os.environ.items() if not k.startswith("LEGW_")}
    env.update(BASE_ENV)
    env.update(WORKLOADS[name][1])
    return env


def run_binary(binary, name, seed, seconds, trace, extra=(), deadline=None):
    out_dir = os.path.join(build_dir(), "run")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", name, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--out-dir", out_dir]
    cmd += list(extra)
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=workload_env(name), stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: benchmark binary exited {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return json.loads(lines[-1])


def load_reference(path):
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f).get("workloads", {})


def reference_check(res, reference):
    """Final train loss against the calibration reference. Returns
    (ok, message, curve_bitwise) where curve_bitwise is None without a
    reference curve for this seed."""
    name = res["workload"]
    ref = reference.get(name)
    if ref is None:
        return False, f"no reference for {name}", None
    loss = res["info"]["final_train_loss"]
    per_seed = ref["seeds"].get(str(res["seed"]))
    if per_seed:
        expect, tol, base = per_seed["final_train_loss"], ref["seed_tolerance"], "this seed"
    else:
        expect, tol, base = ref["median"], ref["envelope"], "median over calibration seeds"
    ok = abs(loss - expect) <= tol
    msg = (f"final train loss {loss:.6f} vs reference {expect:.6f} "
           f"(tolerance {tol:.6f}, {base})")
    bitwise = None
    if per_seed:
        bitwise = per_seed["loss_curve_hash"] == res["info"]["loss_curve_hash"]
    return ok, msg, bitwise


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


def run_workload(binary, name, seed, seconds, trace, reference, extra=(), deadline=None):
    res = run_binary(binary, name, seed, seconds, trace, extra, deadline)
    attempted = res["ops_attempted"]
    failed = res["ops_failed"]
    failures = list(res["failures"])
    info = res["info"]
    threads = WORKLOADS[name][0]
    if int(info["threads"]) != threads:
        raise RuntimeError(f"{name}: binary reports {info['threads']} threads, expected {threads}")
    print(f"== {name}  seed {res['seed']}  trace {int(trace)}  threads {threads} "
          f"(LEGW_NUM_THREADS={WORKLOADS[name][1]['LEGW_NUM_THREADS']})")
    if name in TRAINING and not trace:
        ok, msg, bitwise = reference_check(res, reference)
        attempted += 1
        if not ok:
            failed += 1
            failures.append(msg)
        print(f"  reference: {msg} -> {'ok' if ok else 'FAILED'}")
        print("  loss curve bitwise-equal to reference: "
              + {True: "yes", False: "no", None: "no reference curve for this seed"}[bitwise])
    metrics = {}
    emitted = dict(res["metrics"])
    for metric, unit in declared_metrics(trace):
        if metric not in emitted:
            raise RuntimeError(f"{name}: metric {metric} not emitted")
        value = emitted.pop(metric)["value"]
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"{name}: metric {metric} is not finite")
        metrics[metric] = {"value": value, "unit": unit}
        print(f"  {metric:28s} {value:14.6g} {unit}")
    if emitted:
        raise RuntimeError(f"{name}: undeclared metrics {sorted(emitted)}")
    samples = {k: v for k, v in info.items() if k.startswith("samples.")}
    if samples:
        print("  samples: " + ", ".join(f"{k[8:]}={int(v)}" for k, v in samples.items()))
    shown = ("threads", "final_train_loss", "drift_before_ms", "drift_after_ms")
    for k, v in info.items():
        if not k.startswith("samples.") and k not in shown:
            print(f"  {k}: {v}")
    print(f"  host drift probe: {info['drift_before_ms']:.1f} ms before, "
          f"{info['drift_after_ms']:.1f} ms after the workload")
    print(f"  ops_attempted {attempted}  ops_failed {failed}")
    for f in failures[:10]:
        print(f"    failed: {f}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def calibrate(binary, seeds, extra, path):
    out = {}
    for name in TRAINING:
        per_seed = {}
        for seed in seeds:
            res = run_binary(binary, name, seed, 0, False, extra)
            per_seed[str(seed)] = {
                "final_train_loss": res["info"]["final_train_loss"],
                "loss_curve_hash": res["info"]["loss_curve_hash"],
                "final_metric": res["info"]["final_metric"],
            }
            log(f"{name} seed {seed}: {per_seed[str(seed)]}")
        losses = [v["final_train_loss"] for v in per_seed.values()]
        med = statistics.median(losses)
        q = statistics.quantiles(losses, n=4) if len(losses) > 1 else [med, med, med]
        out[name] = {
            "median": med,
            # A calibration seed must repeat its own loss to within half the
            # interquartile range across seeds: a changed kernel summation
            # order passes, a changed objective or optimizer does not.
            "seed_tolerance": 0.5 * (q[2] - q[0]),
            # Any other seed must land inside twice the widest distance of a
            # calibration seed from the median.
            "envelope": 2.0 * max(abs(l - med) for l in losses),
            "seeds": per_seed,
        }
    with open(path, "w") as f:
        json.dump({"rule": "final train loss within seed_tolerance (half the "
                           "IQR across calibration seeds) of the seed's own "
                           "value; other seeds within envelope (twice the "
                           "largest distance of a calibration seed from the "
                           "median) of the median",
                   "workloads": out}, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--tiny", type=int, default=0, choices=[0, 1],
                    help="tiny shapes (smoke test)")
    ap.add_argument("--plant", default="", choices=["", "wrong_row", "wrong_loss"],
                    help="plant a defect the checks must catch (smoke test)")
    ap.add_argument("--reference", default=REFERENCE)
    ap.add_argument("--calibrate", default="",
                    help="comma-separated seeds: rewrite the --reference file")
    args = ap.parse_args()
    start = time.monotonic()
    try:
        binary = build()
        extra = []
        if args.tiny:
            extra += ["--tiny", "1"]
        if args.plant:
            extra += ["--plant", args.plant]
        if args.calibrate:
            calibrate(binary, [int(s) for s in args.calibrate.split(",")], extra,
                      args.reference)
            return 0
        reference = load_reference(args.reference)
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            # A single workload must finish inside the benchmark's time limit.
            deadline = start + DEADLINE_S if len(names) == 1 else None
            result = run_workload(binary, name, args.seed, args.seconds,
                                  bool(args.trace), reference, extra, deadline)
            results.append((name, result))
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log(f"benchmark failed: {e}")
        return 1
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{n}.{m}": v for n, r in results
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
