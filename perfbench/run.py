"""covertmac benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in fresh
single-threaded Python subprocesses (perfbench/worker.py) against the
package under src/.  With --trace 0 the last stdout line holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run and the tracing overhead.  Earlier lines give the machine
fingerprint and each workload's own named metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("solve", "simulate", "enumerate", "evaluate")
SETUP_PROBES = 4          # set-up only subprocesses besides the measured one
RUN_LIMIT_S = 170         # every run ends within 180 s
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END = [("setup_s", "s"), ("pass_s.ref", "s"), ("work_per_s.ref", "1/s"),
              ("peak_rss_mb", "MB")]
# Mean time of worker.HostClock's kernel on the reference host (2-vCPU
# x86_64 VM); the .ref metrics are scaled to a host this fast.
KERNEL_REF_S = 0.005

PER_LAYER = [("cli.main.self_s", "s"),
             ("channel.from_dict.calls", "count"), ("channel.from_dict.s", "s"),
             ("region.max_r2.calls", "count"), ("region.max_r2.self_s", "s"),
             ("region.minimize.calls", "count"), ("region.minimize.nfev", "count"),
             ("region.minimize.s", "s"),
             ("region.rate_tuple.calls", "count"), ("region.rate_tuple.self_us", "us"),
             ("region.theorem1_sizing.self_us", "us")]
PER_LAYER += [(f"infotheory.{f}.{k}", u)
              for f in ("divergence_profile", "mutual_info_x3", "chi_square", "capacity_x3")
              for k, u in (("calls", "count"), ("self_s", "s"))]
PER_LAYER += [("simulator.run_trials.s", "s"),
              ("simulator.build_codebooks.calls", "count"),
              ("simulator.build_codebooks.self_s", "s"),
              ("simulator.encode.self_s", "s"), ("simulator.channel_sample.self_s", "s"),
              ("simulator.decode.self_s", "s"),
              ("simulator.exact_delta.calls", "count"),
              ("simulator.exact_delta.self_s", "s"),
              ("simulator.exact_delta.nominal_outputs", "count"),
              ("simulator.exact_delta.union_support", "count"),
              ("trace.overhead_frac", "frac")]


def spawn(args, mode: str, deadline: float) -> dict:
    """Run worker.py once; returns its JSON result or raises RuntimeError."""
    env = dict(os.environ, PYTHONPATH=SRC,
               SOURCE_DATE_EPOCH="0", PYTHONHASHSEED="0", **THREAD_ENV)
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode, "--out", OUT]
    if args.smoke:
        argv.append("--smoke")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as e:
        raise RuntimeError(f"{mode} worker timed out after {e.timeout:.0f} s") from e
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(res: dict, setups: list[dict]) -> dict:
    """The bounded metrics.  Times are scaled by the host's speed: on a shared
    host the raw times of a run swing by 15-60% from one minute to the next.
    The time of a run sums the host's slowness over the run, and the host
    kernel's mean time measures that slowness.  Each set-up time is scaled
    by the kernel timed just after it."""
    walls = res["walls"]
    speed = KERNEL_REF_S / statistics.fmean(res["host_kernel_s"])
    return {"setup_s": statistics.median(
                r["setup_s"] * KERNEL_REF_S / r["setup_kernel_s"] for r in setups),
            "pass_s.ref": statistics.fmean(walls) * speed,
            "work_per_s.ref": sum(res["pass_work"]) / sum(walls) / speed,
            "peak_rss_mb": res["peak_rss_mb"]}


def raw_lines(res: dict) -> dict:
    """Unscaled figures of the same run: {name: [value, unit]}."""
    walls, kernel = res["walls"], res["host_kernel_s"]
    return {"passes": [len(walls), "count"], "wall_s": [sum(walls), "s"],
            "pass_s.p50": [statistics.median(walls), "s"],
            "pass_s.p90": [percentile(walls, 90), "s"],
            "host_kernel_ms": [statistics.fmean(kernel) * 1e3, "ms"],
            "host_samples": [len(kernel), "count"]}


def per_layer(res: dict) -> dict:
    layers = res["layers"]

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    out = {}
    for metric, _ in PER_LAYER:
        name, key = metric.rsplit(".", 1)
        if key == "self_us":
            calls = get(name, "calls")
            out[metric] = get(name, "self_s") / calls * 1e6 if calls else 0.0
        elif name != "trace":
            out[metric] = get(name, key)
    out["trace.overhead_frac"] = sum(res["walls"]) / res["untraced_wall_s"] - 1
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one short pass per workload, for the benchmark's tests")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "covertmac", "__init__.py")):
        print(f"error: no covertmac sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            res = spawn(args, "trace", deadline)
            metrics, units = per_layer(res), PER_LAYER
        else:
            setups = [spawn(args, "setup", deadline)
                      for _ in range(0 if args.smoke else SETUP_PROBES)]
            res = spawn(args, "run", deadline)
            setups.append(res)
            metrics, units = end_to_end(res, setups), END_TO_END
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    fp = dict(res["fingerprint"], thread_env=THREAD_ENV)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    attempted, failed = res["attempted"], res["failed"]
    named = {"fail_frac": [failed / attempted, "frac"]}
    if not args.trace:
        named.update({k: [metrics[k], u] for k, u in END_TO_END})
        named.update(raw_lines(res))
        named["setup_s.raw"] = [statistics.median(r["setup_s"] for r in setups), "s"]
    named.update(res.get("named", {}))
    for k, (v, u) in named.items():
        print(f"{args.workload} {k} = {v:.6g} {u}")
    for e in res["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    doc = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units}}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(dict(doc, fingerprint=fp, named=named, errors=res["errors"],
                       pass_s=res["walls"], host_kernel_s=res.get("host_kernel_s")),
                  f, indent=1)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
