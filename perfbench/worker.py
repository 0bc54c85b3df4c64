"""One workload in a fresh interpreter; started by run.py, never by hand.

Modes:
  setup  import, load and generate the first pass's inputs, then report the
         set-up time and exit;
  run    untraced passes until --seconds have gone by, with the host's
         speed sampled throughout (HostClock);
  trace  a fixed number of passes, each once untraced and once with spans
         around every layer's public functions.
Prints one JSON object on its last stdout line.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import reference
import tracing
import workloads


def _enum_counts(args, result):
    """Enumeration size of one exact_delta call: nominal |Z|^n x pairs and the
    union support (positions where some codeword is 1 or padding is active)."""
    ens, d = args[0], args[1]
    cfg = ens.cfg
    on = np.zeros(ens.n, dtype=bool)
    for user, m, k in ((1, cfg.m1, cfg.k1), (2, cfg.m2, cfg.k2)):
        for w in range(m):
            for s in range(k):
                on |= ens.covert_sequence(user, w, s) == 1
    _, pad = reference.padding(cfg.plan.to_dict(), ens.n, cfg.omega_n)
    on |= np.array([p is not None and p > 0 for p in pad], dtype=bool)
    return {"nominal_outputs": d.z_size ** ens.n * cfg.pair_count(),
            "union_support": int(on.sum())}


TARGETS = [("covertmac.cli", "main", "cli.main", None),
           ("covertmac.channel", "from_dict", "channel.from_dict", None),
           ("covertmac.region", "max_r2", "region.max_r2", None),
           ("covertmac.region", "minimize", "region.minimize",
            lambda args, res: {"nfev": int(res.nfev)}),
           ("covertmac.region", "rate_tuple", "region.rate_tuple", None),
           ("covertmac.region", "theorem1_sizing", "region.theorem1_sizing", None)]
TARGETS += [("covertmac.infotheory", f, f"infotheory.{f}", None)
            for f in ("divergence_profile", "mutual_info_x3", "chi_square", "capacity_x3")]
TARGETS += [("covertmac.simulator", f, f"simulator.{f}", None)
            for f in ("run_trials", "build_codebooks", "encode", "channel_sample", "decode")]
TARGETS += [("covertmac.simulator", "exact_delta", "simulator.exact_delta", _enum_counts)]


SETUP_KERNELS = 10


def _scalar(a: float, b: float) -> float:
    return math.exp(-a * a) * math.log1p(b * b) + a / (1.0 + b)


class HostClock:
    """Samples the host's speed while passes run.

    Every PERIOD_S of wall time a SIGALRM handler times ``kernel``, a fixed
    mix of small BLAS calls and Python float arithmetic that is the
    benchmark's own code.  On a shared host the CPU's speed swings with the
    load of other tenants; the kernel's mean time over a run moves with it,
    while covertmac's code has no way to move it.  ``spent`` is the time
    the handler took, which the timings subtract.
    """

    PERIOD_S = 0.2

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.active = False          # keep only samples taken inside a pass
        self._a = np.random.default_rng(0).random((64, 64))

    def kernel(self, steps: int = 75) -> None:
        x = self._a
        for _ in range(steps):
            x = np.tanh(x @ self._a * 0.01)
            sum(float(v) for v in x[0])
        s = 0.0
        for i in range(100 * steps):
            s += _scalar(i * 1e-4, 0.5)

    def time_kernel(self) -> float:
        """Time of one kernel, after a short untimed one that brings back
        into cache what the program's own work pushed out."""
        self.kernel(5)
        t = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        dt = self.time_kernel()
        self.spent += time.perf_counter() - t
        if self.active:
            self.samples.append(dt)

    def now(self) -> float:
        """perf_counter() less the time spent in the handler so far."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if self.spent == spent:      # no tick in between
                return t - spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Tally:
    """Timings and failures of the passes run so far.  With a HostClock the
    time its kernel took inside a pass is left out of that pass's times."""

    def __init__(self, tracer=None, clock=None):
        self.tracer = tracer
        self.clock = clock
        self.walls, self.pass_work = [], []
        self.op_s: dict[str, list[float]] = {}      # kind -> times of successful calls
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def _now(self) -> float:
        return self.clock.now() if self.clock else time.perf_counter()

    def run_pass(self, ops, wl) -> None:
        done = []
        if self.clock:
            self.clock.active = True
        t_pass = self._now()
        for op in ops:
            t = self._now()
            try:
                out, err = op.fn(), None
            except Exception:
                out, err = None, traceback.format_exc(limit=3)
            done.append((op, self._now() - t, out, err))
        wall = self._now() - t_pass
        if self.clock:
            self.clock.active = False
        if self.tracer is not None:
            self.tracer.enabled = False      # checks are not part of the trace
        work = 0
        for op, dt, out, err in done:
            self.attempted += 1
            if err is None:
                try:
                    errs = op.check(out)
                except Exception:
                    errs = [traceback.format_exc(limit=3)]
            else:
                errs = [err]
            if errs:
                self.failed += 1
                self.errors += [f"{wl.name} {op.kind}: {e}" for e in errs]
                continue
            work += op.work
            self.op_s.setdefault(op.kind, []).append(dt)
        self.walls.append(wall)
        self.pass_work.append(work)


def fingerprint() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.out, args.smoke)
    ops = wl.make_pass(0)
    result = {"setup_s": time.monotonic() - args.t0, "fingerprint": fingerprint()}
    # the host's speed just after set-up, to scale the set-up time by
    result["setup_kernel_s"] = statistics.fmean(
        HostClock().time_kernel() for _ in range(SETUP_KERNELS))
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if args.mode == "run":
        clock = HostClock()
        tally = Tally(clock=clock)
        t_start = time.perf_counter()
        p = 0
        clock.start()
        while True:
            tally.run_pass(ops, wl)
            p += 1
            per_pass = (time.perf_counter() - t_start) / p
            if args.smoke or time.perf_counter() - t_start + per_pass > args.seconds:
                break
            ops = wl.make_pass(p)
        clock.stop()
        if not clock.samples:        # a run shorter than one period
            clock.samples.append(min(clock.time_kernel() for _ in range(3)))
        result["host_kernel_s"] = clock.samples
    else:
        tracer = tracing.Tracer()
        tracer.install(TARGETS)
        plain, tally = Tally(), Tally(tracer)
        for p in range(1 if args.smoke else wl.trace_passes):
            ops = ops if p == 0 else wl.make_pass(p)
            # alternate the order so warm-up cost does not land on one side
            for t in ((plain, tally) if p % 2 == 0 else (tally, plain)):
                tracer.enabled = t is tally
                t.run_pass(ops, wl)
        tracer.uninstall()
        tracer.dump(os.path.join(args.out, f"spans-{wl.name}-seed{args.seed}.json"))
        result["layers"] = tracer.summary()
        result["untraced_wall_s"] = sum(plain.walls)
        tally.attempted += plain.attempted
        tally.failed += plain.failed
        tally.errors += plain.errors
    result.update(walls=tally.walls, pass_work=tally.pass_work,
                  attempted=tally.attempted, failed=tally.failed,
                  errors=tally.errors[:20],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tally.op_s:
        result["named"] = wl.named(tally.op_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
