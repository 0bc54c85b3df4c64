"""Command-line front end.

Subcommands: profile, region, curve, simulate, verify-asymptotics, sizing.
Every CSV/report starts with a manifest header line so outputs are
reproducible: same artifact version + same manifest -> same data rows.

Exit codes: 0 ok, 2 usage, 3 input validation, 4 infeasible constraints,
5 the exact-divergence enumeration cap exceeded.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .channel import load_channel, paper_channel
from .infotheory import _channel_terms, capacity_x3, chi_square, mixture_kl
from .region import (InfeasibleError, PhasePlan, _evaluate, _slack,
                     curve_r2_vs_k2, trace_r2_R3)
from .simulator import EnumerationCapError, SimConfig, exact_delta, run_trials

# A chi-square at or below this is rounding noise (0 or about 4e-33 on a
# channel whose warden rows are all equal), not a warden that can see the
# covert users; on the paper channel chi-square is at least about 0.7.
CHI2_ZERO = 1e-20

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_ENUM_CAP = 5


def _timestamp() -> str:
    # SOURCE_DATE_EPOCH lets callers reproduce outputs byte for byte
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def _manifest(args, d, extra: dict | None = None) -> str:
    fields = {
        "subcommand": args.command,
        "channel": d.digest(),
        "unit": args.unit,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": _timestamp(),
    }
    if extra:
        fields.update(extra)
    body = " ".join(f"{k}={v}" for k, v in fields.items() if v is not None)
    return f"# {body}"


def _emit(args, lines) -> None:
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _load(args):
    if args.channel == "paper":
        return paper_channel()
    return load_channel(args.channel)


def _parse_grid(spec: str):
    """Either comma-separated values or start:stop:count."""
    if ":" in spec:
        a, b, c = spec.split(":")
        return np.linspace(float(a), float(b), int(c)).tolist()
    return [float(v) for v in spec.split(",")]


def cmd_profile(args) -> int:
    d = _load(args)
    tab = _channel_terms(d, args.unit)      # the profile and chi-square
    lines = [_manifest(args, d),
             "x3,d_y1,d_y2,d_z1,d_z2,d_zy1,d_zy2"]
    for row in tab.profile.rows():
        lines.append(",".join(f"{v:.12g}" for v in row))
    lines.append("# chi-square at mixing ratios lambda = rho1/(rho1+rho2)")
    lines.append("x3,lambda,chi2")
    lams = (0.0, 0.25, 0.5, 0.75, 1.0)
    chi = tab.chi(np.array(lams), 1.0 - np.array(lams))
    for x3 in range(d.x3_size):
        lines += [f"{x3},{lam},{c:.12g}" for lam, c in zip(lams, chi[:, x3])]
    if d.ac_violations:
        lines.append(f"# absolute-continuity violations at x3: "
                     f"{list(d.ac_violations)}")
    _emit(args, lines)
    return EXIT_OK


def cmd_region(args) -> int:
    d = _load(args)
    cap = capacity_x3(d, args.unit)[0]
    grid = _parse_grid(args.r3_grid) if args.r3_grid else \
        np.linspace(0.0, cap, args.grid_points).tolist()
    pts = trace_r2_R3(d, args.r1, args.k1_max, args.k2_max, grid,
                      args.max_phases, args.unit)
    extra = {"r1": args.r1, "k1_max": args.k1_max, "k2_max": args.k2_max,
             "max_phases": args.max_phases}
    lines = [_manifest(args, d, extra), "r2,R3"]
    lines += [f"{r2:.12g},{r3:.12g}" for r2, r3 in pts]
    _emit(args, lines)
    return EXIT_OK


def cmd_curve(args) -> int:
    d = _load(args)
    grid = _parse_grid(args.k2_grid)
    pts = curve_r2_vs_k2(d, args.r1, args.k1_max, grid, args.fix_x3,
                         args.max_phases, args.unit)
    extra = {"r1": args.r1, "k1_max": args.k1_max,
             "x3_mode": "optimize" if args.fix_x3 is None else f"fix{args.fix_x3}",
             "max_phases": args.max_phases}
    lines = [_manifest(args, d, extra), "k2,r2"]
    lines += [f"{k2:.12g},{r2:.12g}" for k2, r2 in pts]
    _emit(args, lines)
    return EXIT_OK


def _load_plan(args) -> PhasePlan:
    with open(args.plan) as f:
        plan = PhasePlan.from_dict(json.load(f))
    plan.validate()
    return plan


def cmd_simulate(args) -> int:
    d = _load(args)
    plan = _load_plan(args)
    cfg = SimConfig(n=args.n, plan=plan, m1=args.m1, m2=args.m2, m3=args.m3,
                    k1=args.k1, k2=args.k2, omega_n=args.omega,
                    trials=args.trials, seed=args.seed,
                    exact_divergence=args.exact_delta,
                    fixed_codebook=args.fixed_codebook)
    rep = run_trials(cfg, d)
    doc = {
        "manifest": _manifest(args, d, {"n": args.n, "trials": args.trials}),
        "pe0_hat": rep.pe0_hat, "pe0_interval": rep.pe0_interval,
        "pe1_hat": rep.pe1_hat, "pe1_interval": rep.pe1_interval,
        "stage_errors": rep.stage_errors,
        "delta_exact_nats": rep.delta_exact,
        "delta_bound_ratio": rep.delta_bound_ratio,
        "codebook_mode": rep.codebook_mode,
        "clip_warnings": list(rep.clip_warnings),
        "trials_run": rep.trials_run,
        "wall_time_s": round(rep.wall_time, 3),
    }
    _emit(args, [json.dumps(doc, indent=1, allow_nan=False)])
    return EXIT_OK


def cmd_verify_asymptotics(args) -> int:
    d = _load(args)
    alphas = [float(a) for a in args.alpha.split(",")]
    if not all(math.isfinite(a) and a > 0 for a in alphas):
        raise ValueError("--alpha values must be finite and > 0")
    rng = np.random.default_rng(args.seed)
    cases = []
    if args.rho1 is not None:
        if not 0 <= args.x3 < d.x3_size:
            raise ValueError(f"--x3 must lie in [0, {d.x3_size})")
        cases.append((args.rho1, args.rho2, args.x3))
    else:
        for _ in range(args.random):
            cases.append((float(rng.uniform(0.1, 1.5)),
                          float(rng.uniform(0.1, 1.5)),
                          int(rng.integers(d.x3_size))))
    lines = [_manifest(args, d), "rho1,rho2,x3,alpha,ratio"]
    for rho1, rho2, x3 in cases:
        c2 = chi_square(d, rho1, rho2, x3)
        if c2 <= CHI2_ZERO:
            raise ValueError(f"chi-square is 0 at rho1={rho1:.6g}, "
                             f"rho2={rho2:.6g}, x3={x3}: the warden cannot "
                             f"see the covert users, so no ratio exists")
        for a in alphas:
            # second-order identity is natural-log based; ratio is unit-free
            num = mixture_kl(d, rho1, rho2, x3, a, unit="nats")
            ratio = num / ((a * (rho1 + rho2)) ** 2 / 2 * c2)
            lines.append(f"{rho1:.6g},{rho2:.6g},{x3},{a:g},{ratio:.9f}")
    _emit(args, lines)
    return EXIT_OK


def cmd_sizing(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    d = _load(args)
    plan = _load_plan(args)
    xi = [float(v) for v in args.xi.split(",")]
    if len(xi) == 1:
        xi = xi * 6
    omega = args.omega if args.omega is not None else float(args.n) ** -0.25
    xi = _slack(xi, omega)
    # theorem1_sizing and rate_tuple from one evaluation of the plan
    ev = _evaluate(d, plan, args.unit)
    sz, rt = ev.sizing(args.n, omega, xi), ev.rates()
    doc = {
        "manifest": _manifest(args, d, {"n": args.n, "omega_n": omega}),
        "phi1": sz.phi1, "phi2": sz.phi2, "swapped": sz.swapped,
        "log_m1": sz.log_m1, "log_m2": sz.log_m2, "log_m3": sz.log_m3,
        "log_k1": sz.log_k1, "log_k2": sz.log_k2,
        "divergence_bound": sz.divergence_bound,
        "asymptotic_rates": {"r1": rt.r1, "r2": rt.r2, "R3": rt.R3,
                             "k1": rt.k1, "k2": rt.k2},
        "unit": args.unit,
    }
    _emit(args, [json.dumps(doc, indent=1)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="covertmac",
        description="Covert/non-covert MAC rate regions and simulation")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, budget=False, threads=False):
        p.add_argument("--channel", required=True,
                       help="channel JSON file, or 'paper' for the shipped example")
        p.add_argument("--unit", choices=("bits", "nats"), default="bits")
        p.add_argument("--seed", type=int, default=0)
        if threads:     # accepted and ignored: every run is single-threaded
            p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if budget:      # --restarts and --max-iter are accepted and ignored
            p.add_argument("--restarts", type=int, default=64,
                           help=argparse.SUPPRESS)
            p.add_argument("--max-iter", type=int, default=4000,
                           help=argparse.SUPPRESS)
            p.add_argument("--max-phases", type=int, default=6,
                           help="1, or at least the optimum's phase count")

    p = sub.add_parser("profile", help="divergence profile and chi-square table")
    common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("region", help="trace the (r2, R3) boundary")
    common(p, budget=True, threads=True)
    p.add_argument("--r1", type=float, default=0.5)
    p.add_argument("--k1-max", type=float, default=0.8)
    p.add_argument("--k2-max", type=float, default=0.8)
    p.add_argument("--r3-grid", default=None, help="comma list or a:b:count")
    p.add_argument("--grid-points", type=int, default=21)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("curve", help="max r2 as a function of the k2 cap")
    common(p, budget=True, threads=True)
    p.add_argument("--r1", type=float, default=0.1)
    p.add_argument("--k1-max", type=float, default=0.8)
    p.add_argument("--k2-grid", default="0:1:21")
    p.add_argument("--fix-x3", type=int, default=None,
                   help="pin every phase to this x3 symbol (default: optimize)")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("simulate", help="finite-blocklength Monte-Carlo run")
    common(p, threads=True)
    p.add_argument("--plan", required=True, help="phase-plan JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega", type=float, default=None)
    for name in ("m1", "m2", "m3", "k1", "k2"):
        p.add_argument(f"--{name}", type=int, default=2 if name.startswith("m") else 1)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--exact-delta", action="store_true")
    p.add_argument("--fixed-codebook", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-asymptotics",
                       help="small-signal KL/chi-square convergence table")
    common(p)
    p.add_argument("--alpha", default="1e-2,1e-3,1e-4")
    p.add_argument("--rho1", type=float, default=None)
    p.add_argument("--rho2", type=float, default=0.0)
    p.add_argument("--x3", type=int, default=0)
    p.add_argument("--random", type=int, default=20,
                   help="number of random (rho1, rho2, x3) cases")
    p.set_defaults(func=cmd_verify_asymptotics)

    p = sub.add_parser("sizing", help="finite-blocklength message/key sizing")
    common(p)
    p.add_argument("--plan", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--xi", default="0.1", help="one value or six comma values")
    p.set_defaults(func=cmd_sizing)
    return ap


# built on the first call of main and reused: parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except EnumerationCapError as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_ENUM_CAP
    except (ValueError, OSError) as e:  # ChannelFormatError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
