"""Command-line front end: parse configs and profile expressions, dispatch
computations, and emit deterministic CSV/JSON-lines artifacts."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .completeness import ray_length
from .errors import CurvlabError, DomainError
from .geometry import BaseGeometry
from .ode import (OdeSpec, SubSuperPair, barrier_certificate_33,
                  comparison_certificate, comparison_parameters,
                  monotone_solve, oscillation_certificate)
from .oracle import assemble_metric, fd_scalar_curvature
from .polar import BaseGrid, PolarWarpField, polar_scalar_curvature
from .serialize import (atomic_write_text, chunks_of, csv_chunks, csv_text,
                        jsonl_text)
from .warp import parse_field, parse_profile, warped_scalar_curvature


def finite_float(text):
    """The argparse type of every numeric flag: a float, but not nan or inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def parse_range(text):
    """'a:b:k' -> k log-spaced samples on [a, b]; a bare number -> [a]."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise DomainError(f"bad range '{text}': expected a:b:k")
    values = []
    for part, kind, what in zip(parts, (float, float, int),
                                ("a number", "a number", "an integer")):
        try:
            values.append(kind(part))
        except ValueError:
            raise DomainError(
                f"bad range '{text}': '{part}' is not {what}") from None
        if kind is float and not math.isfinite(values[-1]):
            raise DomainError(f"bad range '{text}': '{part}' is not finite")
    if len(parts) == 1:
        return np.array(values)
    a, b, k = values
    if not (0 < a < b) or k < 1:
        raise DomainError(f"bad range '{text}': need 0 < a < b and k >= 1")
    return np.geomspace(a, b, k)


def load_config(path):
    """Plain key=value lines; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"bad config line: '{raw.strip()}'")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _write(path, text):
    try:
        atomic_write_text(path, text)
    except OSError as e:
        raise CurvlabError(f"cannot write '{path}': {e.strerror or e}") from None


def _emit(args, text, meta):
    """Write `text`, a str or an iterable of str chunks, to --out (with its
    .meta.json sidecar) or to stdout, one chunk at a time."""
    if getattr(args, "out", None):
        _write(args.out, text)
        meta = {**meta, "written_at": time.strftime("%Y-%m-%dT%H:%M:%S")}
        _write(args.out + ".meta.json", json.dumps(meta, sort_keys=True) + "\n")
    else:
        sys.stdout.writelines(chunks_of(text))


def _warp(args):
    """The base and the warp over it, as curvature and oracle read them."""
    if args.base == "torus":
        base = BaseGrid(args.n, args.m, stencil=args.stencil)
        return base, PolarWarpField(args.profile, base,
                                    domain_min=args.domain_min)
    if args.base == "sphere":
        base = BaseGeometry.sphere(args.n, radius=args.radius)
    else:
        base = BaseGeometry.constant(args.n, args.base_R)
    return base, parse_profile(args.profile, domain_min=args.domain_min)


# ---------------------------------------------------------------------------
# subcommands


def _check_finite(t, R):
    """Overflow such as exp(exp(t)) must not reach the table as nan/inf.
    t is one slice's t, or the t of each entry of R (the first bad one is
    named)."""
    finite = np.isfinite(R)
    if not finite.all():
        if np.ndim(t):
            t = t[np.argmin(finite)]
        raise DomainError(f"curvature is not finite at t = {float(t)!r}")


def cmd_curvature(args):
    t_vals = parse_range(args.t)
    base, f = _warp(args)
    if args.base == "torus":
        # one row per (t, grid node), nodes in C (np.ndindex) order; every
        # slice is checked before any is written, and the table is then
        # formatted and written one block of rows at a time
        R = np.empty((len(t_vals), base.m ** base.n))
        for i, t in enumerate(t_vals):
            R[i] = polar_scalar_curvature(f, float(t)).ravel()
            _check_finite(t, R[i])
        header = ["t"] + [f"x{i + 1}" for i in range(base.n)] + ["value"]
        text = csv_chunks(header, [t_vals] + [base.axis_points] * base.n,
                          R.reshape(1, -1))
    else:
        R = np.broadcast_to(np.asarray(warped_scalar_curvature(f, base, t_vals),
                                       dtype=float), t_vals.shape)
        _check_finite(t_vals, R)
        text = csv_text(["t", "R"], [t_vals], [R])
    _emit(args, text, {"command": "curvature"})
    return 0


def cmd_solve(args):
    n = args.n
    spec = OdeSpec(n=n, R=_R_function(args), R_g=-n * (n - 1),
                   t0=args.t0, T=args.T, form="eq31")
    pair = SubSuperPair(args.u_minus_const,
                        (lambda t, C=args.u_plus_coeff, p=args.u_plus_power:
                         C * np.asarray(t, dtype=float) ** p))
    sol = monotone_solve(spec, pair, bc=(args.bc_left, args.bc_right),
                         num_points=args.points)
    du = np.gradient(sol.u, sol.t)
    text = csv_text(["t", "u", "du"], [sol.t], [sol.u, du])
    _emit(args, text, {"command": "solve",
                       "residual_norm": sol.residual_norm,
                       "iterations": sol.iterations})
    return 0


def _R_function(args):
    if args.R_const is not None:
        return float(args.R_const)
    C, alpha = args.R_coeff, args.R_power
    return lambda t: -C / np.asarray(t, dtype=float) ** alpha


# certify's kind-specific flags; --t0 has a default and every kind takes it,
# and --n defaults to 3 for every kind that reads it (all but oscillation).
# The comparison kinds declare what they read in ode; these two have
# positional signatures: (required, optional) flags.
_CERTIFY_FLAGS = ("n", "T", "c", "b", "C1", "C2", "C", "eps", "kappa_sq",
                  "delta", "profile", "base_R")
_POSITIONAL_READS = {"oscillation": (("c",), ("T",)),
                     "barrier33": (("kappa_sq",), ("n", "T", "profile",
                                                   "base_R"))}


def _flag(name):
    return "--" + name.replace("_", "-")


def cmd_certify(args):
    kind = args.kind
    given = {name: getattr(args, name) for name in _CERTIFY_FLAGS
             if getattr(args, name) is not None}
    if kind in _POSITIONAL_READS:
        required, optional = _POSITIONAL_READS[kind]
    else:
        required, optional = (tuple("profile" if k == "f" else k for k in names)
                              for names in comparison_parameters(kind))
    for name in required:
        if name not in given:
            raise DomainError(f"{kind} requires {_flag(name)}")
    for name in given:
        if name not in required + optional:
            raise DomainError(f"{kind} does not read {_flag(name)}")

    n = given.get("n", 3)
    if kind == "oscillation":
        verdict = oscillation_certificate(args.c, args.t0, args.T)
    elif kind == "barrier33":
        profile = (parse_profile(args.profile, domain_min=args.domain_min)
                   if args.profile else None)
        verdict = barrier_certificate_33(
            args.kappa_sq, n,
            (args.t0, 1.0e4 if args.T is None else args.T),
            profile=profile, base_scalar=args.base_R)
    else:
        params = {"n": n, "t0": args.t0, **given}
        if "profile" in params:
            params["f"] = parse_profile(params.pop("profile"),
                                        domain_min=args.domain_min)
        verdict = comparison_certificate(kind, params)
    if args.format == "text":
        _emit(args, verdict.to_text(), {"command": "certify"})
    else:
        _emit(args, verdict.to_json() + "\n", {"command": "certify"})
    return 0


def cmd_oracle(args):
    t_vals = parse_range(args.t)
    base, f = _warp(args)
    if args.base == "torus":
        # the closed form is read at the grid node nearest x0
        x0 = np.full(base.n, args.x0)
        node = (int(round(args.x0 / base.spacing)) % base.m,) * base.n
    else:
        x0 = np.full(base.n, 0.3)
    metric = assemble_metric(f, base, h=args.h)
    rows = []
    for t in t_vals:
        point = np.concatenate([[t], x0])
        closed = float(polar_scalar_curvature(f, float(t), node)
                       if args.base == "torus"
                       else warped_scalar_curvature(f, base, float(t)))
        fd = fd_scalar_curvature(metric, point).scalar
        _check_finite(t, [closed, fd])
        abs_err = abs(fd - closed)
        rel = abs_err / max(abs(closed), 1e-300)
        rows.append([closed, fd, abs_err, rel])
    _emit(args, csv_text(["point", "closed_form", "fd", "abs_err", "rel_err"],
                         [t_vals], np.transpose(rows)), {"command": "oracle"})
    return 0


def cmd_raylength(args):
    u = parse_field(args.u)
    report = ray_length(lambda t: np.asarray(u.eval(t), dtype=float),
                        None, args.n, args.t0, args.T)
    _emit(args, report.to_json() + "\n", {"command": "raylength"})
    return 0


def cmd_sweep(args):
    records = [oscillation_certificate(float(c), args.t0, args.T).to_json()
               for c in parse_range(args.c)]
    _emit(args, jsonl_text(records), {"command": "sweep"})
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curvlab", allow_abbrev=False,
        description="Curvature of warped ends: closed forms, solvers, "
                    "certificates, and finite-difference cross-checks.")
    parser.add_argument("--config", help="key=value config file; flags override")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--domain-min", dest="domain_min", type=finite_float,
                       default=2.0)

    def warp_table(p):
        # what _warp reads, plus the t samples: shared by curvature and oracle
        common(p)
        p.add_argument("--profile", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--base", default="constant",
                       choices=["constant", "sphere", "torus"])
        p.add_argument("--base-R", dest="base_R", type=finite_float, default=0.0)
        p.add_argument("--radius", type=finite_float, default=1.0)
        p.add_argument("--m", type=int, default=16)
        p.add_argument("--stencil", default="fd2", choices=["fd2", "spectral"])
        p.add_argument("--t", required=True, help="a:b:k log-spaced samples")

    warp_table(sub.add_parser("curvature", help="scalar curvature along t"))

    p = sub.add_parser("solve", help="monotone sub/supersolution solve")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t0", type=finite_float, default=3.0)
    p.add_argument("--T", type=finite_float, default=100.0)
    p.add_argument("--R-const", dest="R_const", type=finite_float, default=None)
    p.add_argument("--R-coeff", dest="R_coeff", type=finite_float, default=7.0)
    p.add_argument("--R-power", dest="R_power", type=finite_float, default=2.0)
    p.add_argument("--u-minus-const", dest="u_minus_const", type=finite_float,
                   default=0.5)
    p.add_argument("--u-plus-coeff", dest="u_plus_coeff", type=finite_float,
                   default=6.0)
    p.add_argument("--u-plus-power", dest="u_plus_power", type=finite_float,
                   default=2.0)
    p.add_argument("--bc-left", dest="bc_left", type=finite_float, default=2.0)
    p.add_argument("--bc-right", dest="bc_right", type=finite_float, default=2.0)
    p.add_argument("--points", type=int, default=801)

    p = sub.add_parser("certify", help="nonexistence/incompleteness certificates")
    common(p)
    p.add_argument("--kind", required=True,
                   choices=["oscillation", "thm48", "thm413", "thm418",
                            "thm112", "thm38", "barrier33"])
    p.add_argument("--t0", type=finite_float, default=3.0)
    for name in _CERTIFY_FLAGS:
        p.add_argument(_flag(name), dest=name, default=None,
                       type={"n": int, "profile": str}.get(name, finite_float))
    p.add_argument("--format", default="jsonl", choices=["jsonl", "text"])

    p = sub.add_parser("oracle", help="closed form vs finite differences")
    warp_table(p)
    p.add_argument("--h", type=finite_float, default=1.0e-3)
    p.add_argument("--x0", type=finite_float, default=0.3)

    p = sub.add_parser("raylength", help="radial ray length of a deformation")
    common(p)
    p.add_argument("--u", required=True, help="expression for u(t)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t0", type=finite_float, default=3.0)
    p.add_argument("--T", type=finite_float, default=1.0e4)

    p = sub.add_parser("sweep", help="oscillation certificates over a c-range")
    common(p)
    p.add_argument("--c", required=True, help="a:b:k range of c values")
    p.add_argument("--t0", type=finite_float, default=3.0)
    p.add_argument("--T", type=finite_float, default=None)
    return parser


_DISPATCH = {
    "curvature": cmd_curvature,
    "solve": cmd_solve,
    "certify": cmd_certify,
    "oracle": cmd_oracle,
    "raylength": cmd_raylength,
    "sweep": cmd_sweep,
}


def main(argv=None):
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)

    # config file values become defaults; flags override.  Both spellings,
    # --config PATH and --config=PATH, are read here (the parser takes no
    # abbreviation, which would bypass this).
    at = [i for i, arg in enumerate(argv)
          if arg == "--config" or arg.startswith("--config=")]
    if len(at) > 1:
        print("config error: --config given more than once", file=sys.stderr)
        return 2
    if at:
        i = at[0]
        _, joined, path = argv[i].partition("=")
        if not joined and i + 1 == len(argv):
            print("config error: --config needs a path", file=sys.stderr)
            return 2
        try:
            cfg = load_config(path if joined else argv[i + 1])
        except (OSError, CurvlabError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        del argv[i:i + (1 if joined else 2)]
        # the subcommand must come first; the config may name it
        cmd = cfg.get("command")
        if cmd and (not argv or argv[0] not in _DISPATCH):
            argv.insert(0, cmd)
        injected = []
        for key, val in sorted(cfg.items()):
            if key == "command":
                continue
            flag = "--" + key.replace("_", "-")
            if flag not in argv:
                injected.extend([flag, val])
        argv = argv[:1] + injected + argv[1:]

    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    try:
        # overflow and 0/0 reach the checks of each command as inf or nan,
        # which then raise a CurvlabError naming the first bad value
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = _DISPATCH[args.command](args)
        sys.stdout.flush()
        return code
    except (CurvlabError, MemoryError) as e:
        # numpy's MemoryError names the size it could not allocate
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at interpreter exit has nowhere to fail, and end without a trace
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
