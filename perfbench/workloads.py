"""Seeded job lists for the curvlab CLI benchmark.

Each workload turns a seed into a fixed list of CLI jobs.  The seed moves
parameters (profiles, coefficients, ranges, row counts of the line
tables) but not the shape of the work: each job slot keeps its subcommand,
its output size class and its cost class, so two seeds give lists of nearly
equal cost and the figures of different seeds can be compared.  Every input
is valid: each job is expected to exit 0 and pass its output check, except
where a known defect (see NOTES.md) makes the oracle miss its tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Job:
    """One CLI invocation: `python -m curvlab.cli <args> --out <file>`."""

    id: str
    args: list
    ext: str                      # output file suffix
    check: dict = field(default_factory=dict)  # what checks.py verifies


def _g(x):
    """Compact, exact-enough text form of a drawn parameter."""
    return f"{x:.6g}"


def _range(a, b, k):
    return f"{_g(a)}:{_g(b)}:{k}"


# ---------------------------------------------------------------------------
# ode: sweeps, monotone solves and one certificate of every kind


def ode_jobs(rng):
    jobs = []
    # c-bands on both sides of the oscillation threshold c = 1; the lower end
    # of the upper band stays >= 1.05 so t0 * ratio^3 fits in a double
    for name, lo, hi in (("above", (1.05, 1.2), (3.0, 5.0)),
                         ("below", (0.3, 0.5), (0.85, 0.98))):
        a, b = rng.uniform(*lo), rng.uniform(*hi)
        jobs.append(Job(f"sweep-{name}", ["sweep", "--c", _range(a, b, 9)],
                        ".jsonl", {"type": "sweep", "a": _g(a), "b": _g(b), "k": 9}))

    # the CLI bracket (0.5, 6 t^2) is a sub/supersolution pair only for
    # n = 3, alpha <= 2 and C >= 7 * 3^(alpha - 2); alpha is stratified so
    # every list has one cheap, one middle and one costly solve
    for i in range(3):
        alpha = 1.5 + 0.5 * (i + rng.random()) / 3.0
        coeff = rng.uniform(7.0, 12.0)
        bc_l, bc_r = rng.uniform(1.5, 3.0), rng.uniform(1.5, 3.0)
        jobs.append(Job(
            f"solve-{i}",
            ["solve", "--n", "3", "--R-coeff", _g(coeff), "--R-power", _g(alpha),
             "--bc-left", _g(bc_l), "--bc-right", _g(bc_r)],
            ".csv",
            {"type": "solve", "n": 3, "C": _g(coeff), "alpha": _g(alpha),
             "lo": 0.5, "hi_coeff": 6.0, "hi_power": 2.0,
             "bc": [_g(bc_l), _g(bc_r)], "t0": 3.0, "T": 100.0}))

    c = rng.uniform(1.05, 1.3)
    t0 = rng.uniform(3.0, 5.0)
    jobs.append(Job("cert-oscillation",
                    ["certify", "--kind", "oscillation", "--c", _g(c), "--t0", _g(t0)],
                    ".jsonl", {"type": "oscillation", "c": _g(c)}))

    kappa_sq, delta = rng.uniform(5.0, 7.0), rng.uniform(0.5, 1.5)
    log_profile = f"{_g(rng.uniform(0.8, 1.5))}*t*ln(t)"
    # thm38 classifies t^p with p below ~1.33 as the t ln t growth case
    pow_profile = f"t^{_g(rng.uniform(1.5, 2.0))}"
    for name, profile, case in (("log", log_profile, "log"),
                                ("power", pow_profile, "power")):
        jobs.append(Job(
            f"cert-thm38-{name}",
            ["certify", "--kind", "thm38", "--n", "3", "--kappa-sq", _g(kappa_sq),
             "--delta", _g(delta), "--profile", profile],
            ".jsonl", {"type": "thm38", "case": case}))

    b = rng.uniform(0.5, 2.0)
    t0 = rng.uniform(3.0, 5.0)
    jobs.append(Job("cert-thm48",
                    ["certify", "--kind", "thm48", "--n", "3", "--b", _g(b), "--t0", _g(t0)],
                    ".jsonl", {"type": "thm48", "b": _g(b), "t0": _g(t0)}))

    c, b = rng.uniform(1.0, 5.0), rng.uniform(0.5, 1.5)
    jobs.append(Job("cert-thm413",
                    ["certify", "--kind", "thm413", "--n", "3", "--c", _g(c), "--b", _g(b)],
                    ".jsonl", {"type": "thm413", "n": 3, "c": _g(c)}))

    C1, C2, C, b = (rng.uniform(0.5, 1.5) for _ in range(4))
    jobs.append(Job("cert-thm418",
                    ["certify", "--kind", "thm418", "--n", "3", "--C1", _g(C1),
                     "--C2", _g(C2), "--C", _g(C), "--b", _g(b)],
                    ".jsonl", {"type": "thm418", "n": 3, "b": _g(b)}))

    eps = rng.uniform(0.5, 2.0)
    jobs.append(Job("cert-thm112",
                    ["certify", "--kind", "thm112", "--n", "3", "--eps", _g(eps)],
                    ".jsonl", {"type": "crossing", "kind": "nonexistence"}))

    kappa_sq = rng.uniform(0.5, 2.0)
    jobs.append(Job("cert-barrier33",
                    ["certify", "--kind", "barrier33", "--n", "3", "--kappa-sq", _g(kappa_sq)],
                    ".jsonl", {"type": "barrier33", "n": 3}))
    return jobs


# ---------------------------------------------------------------------------
# tables: long curvature tables


def _torus_profile(rng):
    """Positive, gently x-dependent warp: the fd2 stencil then stays within
    the 1e-3 spot-check tolerance (its error is ~1e-4 at m = 24 for these)."""
    a = rng.uniform(2.5, 4.0)
    b = rng.uniform(0.2, 0.5)
    return rng.choice([
        f"t*({_g(a)}+{_g(b)}*cos(x1))",
        f"t*({_g(a)}+{_g(b)}*sin(x1)*cos(x2))",
        f"t^{_g(rng.uniform(1.2, 1.6))}*({_g(a)}+{_g(b)}*cos(x2))",
    ])


def _line_profile(rng, t_max):
    kind = rng.choice(["power", "tlogt", "exp"])
    if kind == "power":
        return f"{_g(rng.uniform(0.5, 2.0))}*t^{_g(rng.uniform(0.5, 2.0))}"
    if kind == "tlogt":
        return f"{_g(rng.uniform(0.5, 2.0))}*t*ln(t)"
    # keep f^2 far from overflow on the whole range
    return f"exp({_g(rng.uniform(0.2, 1.0) * 40.0 / t_max)}*t)"


def tables_jobs(rng):
    jobs = []
    # two torus tables per list, one per stencil, both m = 24 with 8 slices
    # (110,592 rows), and five line tables: the costliest 2/7 of a pass are
    # then jobs of one size and the cheapest 5/7 jobs of another, so both the
    # median and the p90 latency fall inside a class on every seed, and not
    # on the edge between two
    m, k = 24, 8
    for i, stencil in enumerate(("fd2", "spectral")):
        profile = _torus_profile(rng)
        t_lo, t_hi = rng.uniform(2.5, 3.0), rng.uniform(8.0, 12.0)
        jobs.append(Job(
            f"torus-{i}",
            ["curvature", "--profile", profile, "--n", "3", "--base", "torus",
             "--m", str(m), "--stencil", stencil, "--t", _range(t_lo, t_hi, k)],
            ".csv",
            {"type": "torus", "profile": profile, "n": 3, "m": m, "k": k,
             "t": [_g(t_lo), _g(t_hi)]}))

    # constant and sphere bases over long t-ranges, thousands of rows each
    for i in range(5):
        n = rng.randint(3, 7)
        k = rng.randint(3000, 5000)
        t_hi = rng.uniform(200.0, 2000.0)
        profile = _line_profile(rng, t_hi)
        if i % 2 == 0:
            base_R = rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.5, 2.0) * n * (n - 1)
            base_args = ["--base", "constant", "--base-R", _g(base_R)]
            R_g = float(_g(base_R))
        else:
            radius = rng.uniform(0.5, 3.0)
            base_args = ["--base", "sphere", "--radius", _g(radius)]
            R_g = n * (n - 1) / float(_g(radius)) ** 2
        jobs.append(Job(
            f"line-{i}",
            ["curvature", "--profile", profile, "--n", str(n), *base_args,
             "--t", _range(2.5, t_hi, k)],
            ".csv",
            {"type": "line", "profile": profile, "n": n, "R_g": R_g,
             "t": ["2.5", _g(t_hi)], "k": k}))
    return jobs


# ---------------------------------------------------------------------------
# oracle: finite-difference tensor checks


def _oracle_profile(rng):
    return rng.choice([
        f"{_g(rng.uniform(0.8, 1.5))}*t*ln(t)",
        f"{_g(rng.uniform(0.5, 2.0))}*t^{_g(rng.uniform(1.1, 1.8))}",
        f"t+{_g(rng.uniform(0.5, 3.0))}*sqrt(t)",
    ])


def oracle_jobs(rng):
    jobs = []
    # every n in 3..7 once on the analytic bases, each base at least once;
    # cheaper dimensions get more points (100 at n = 3 down to 40 at n = 7),
    # so a job costs about the same whatever n it gets.  t starts at 2.5.
    ns = [3, 4, 5, 6, 7]
    bases = (["flat", "hyperbolic", "sphere"] * 2)[:len(ns)]
    rng.shuffle(bases)
    for i, (n, base) in enumerate(zip(ns, bases)):
        points = 100 - 15 * (n - 3) + rng.randint(-3, 3)
        profile = _oracle_profile(rng)
        x0 = rng.uniform(0.2, 0.6)
        if base == "flat":
            base_args, R_g = ["--base", "constant", "--base-R", "0"], 0.0
        elif base == "hyperbolic":
            R_g = -float(_g(rng.uniform(0.5, 2.0) * n * (n - 1)))
            base_args = ["--base", "constant", "--base-R", _g(R_g)]
        else:
            radius = float(_g(rng.uniform(1.0, 3.0)))
            base_args, R_g = ["--base", "sphere", "--radius", _g(radius)], n * (n - 1) / radius ** 2
        t_hi = rng.uniform(8.0, 12.0)
        jobs.append(Job(
            f"{base}-n{n}-{i}",
            ["oracle", "--profile", profile, "--n", str(n), *base_args,
             "--t", _range(2.5, t_hi, points), "--x0", _g(x0)],
            ".csv",
            {"type": "oracle", "base": base, "n": n, "profile": profile,
             "R_g": R_g, "t": ["2.5", _g(t_hi)], "k": points}))

    # torus, m = 16, n = 4, one job per stencil, 45 points each: the
    # costliest two of the seven jobs, at a cost that does not depend on the
    # seed, so the p90 latency falls inside that class; x0 is drawn off the
    # grid, where the closed form and the FD tensor sit at different points
    n, points = 4, 45
    for stencil in ("fd2", "spectral"):
        profile = _torus_profile(rng)
        x0 = rng.uniform(0.2, 0.6)
        t_hi = rng.uniform(8.0, 12.0)
        jobs.append(Job(
            f"torus-n{n}-{stencil}",
            ["oracle", "--profile", profile, "--n", str(n), "--base", "torus",
             "--m", "16", "--stencil", stencil, "--t", _range(2.5, t_hi, points),
             "--x0", _g(x0)],
            ".csv",
            {"type": "oracle", "base": "torus", "n": n, "profile": profile,
             "m": 16, "x0": _g(x0), "t": ["2.5", _g(t_hi)], "k": points}))
    return jobs


WORKLOADS = {
    "ode": ode_jobs,
    "tables": tables_jobs,
    "oracle": oracle_jobs,
}


def make_jobs(workload, seed):
    """The job list of `workload` for `seed`; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng)
