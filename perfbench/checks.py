"""Output checks for the benchmark's CLI jobs.

Each check reads one job's output file and compares it with a reference
that does not reuse the code path that produced it:

- closed-form curvature tables: a closed form differentiated by sympy;
- torus tables: the finite-difference tensor oracle on a metric assembled
  here from a sympy-evaluated warp, at sampled grid nodes;
- certificates: closed-form witnesses (crossing ratios, Euler exponents,
  predicted crossings);
- monotone solves: the bracket, the boundary values and a residual
  recomputed from the written table;
- oracle tables: the 1e-3 agreement gate, plus the closed-form column
  against sympy (torus: against the FD oracle at the grid node it is
  taken at).  A miss is put down to a known defect only where that defect
  was measured and the fd column is reproduced on an independently
  assembled metric; any other miss fails.

A check returns (status, message).  status is "ok", "fail", or the name of
a known defect (KNOWN_DEFECTS) that explains the miss.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

ORACLE_TOL = 1.0e-3           # the acceptance gate's oracle tolerance
CLOSED_FORM_TOL = 1.0e-9      # relative to the size of the terms
FD_REPEAT_TOL = 1.0e-6        # the FD oracle on two assemblies of one metric
# ... on an ill-conditioned chart, where rounding differences between the
# assemblies are amplified: the share of the miss they may account for
FD_REPEAT_SHARE = 1.0e-2
X0_HARD_CODED = 0.3           # where the oracle puts x on non-torus bases

FD_STEP = 1.0e-3              # the CLI's default --h
# The curved-chart defect was measured from n = 5 (barely) and n = 6 on; over
# 105 seeds of the oracle workload n <= 4 never missed.
CURVED_CHART_MIN_N = 5

KNOWN_DEFECTS = {
    "curved-chart-fd": "on curved model charts (sphere, hyperbolic) at the "
                       "hard-coded x = 0.3 the FD oracle's error grows with n: "
                       "it misses 1e-3 from n = 6, and barely at n = 5 for "
                       "some warps",
    "torus-point-mismatch": "torus oracle takes the closed form at the nearest "
                            "grid node but the FD tensor at the exact --x0",
}


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# references


def _sympy_profile(profile, n_x=0):
    """(sympy expression, t symbol, x symbols) for a curvlab expression."""
    import sympy as sp
    t = sp.Symbol("t", positive=True)
    xs = sp.symbols(f"x1:{n_x + 1}") if n_x else ()
    names = {"t": t, "ln": sp.log, "exp": sp.exp, "sin": sp.sin, "cos": sp.cos,
             "sinh": sp.sinh, "cosh": sp.cosh, "sqrt": sp.sqrt}
    names.update({str(x): x for x in xs})
    return sp.sympify(profile.replace("^", "**"), locals=names), t, xs


def warped_reference(profile, n, R_g):
    """Vectorized R(t) and its term scale for dt^2 + f(t)^2 g, R(g) = R_g."""
    import sympy as sp
    f, t, _ = _sympy_profile(profile)
    f1, f2 = sp.diff(f, t), sp.diff(f, t, 2)
    R = (R_g - 2 * n * f * f2 - n * (n - 1) * f1 ** 2) / f ** 2
    scale = (abs(R_g) + 2 * n * sp.Abs(f * f2) + n * (n - 1) * f1 ** 2) / f ** 2
    return sp.lambdify(t, R, "numpy"), sp.lambdify(t, scale, "numpy")


def _geomspace(a, b, k):
    return np.geomspace(float(a), float(b), int(k))


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().split("\n")
    _require(lines[-1] == "", "CSV does not end in a newline")
    return lines[0].split(","), lines[1:-1]


def _table(rows):
    return np.array([[float(v) for v in row.split(",")] for row in rows])


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh.read().splitlines()]


# ---------------------------------------------------------------------------
# per-type checks


def _oscillation_record(rec, c):
    if c > 1.0:
        _require(rec["kind"] == "nonexistence", f"c = {c}: kind {rec['kind']}")
        pred = math.exp(2.0 * math.pi / math.sqrt(c - 1.0))
        ratios = rec["witnesses"]["crossing_ratios"]
        _require(len(ratios) >= 1, f"c = {c}: fewer than two crossings")
        for r in ratios:
            _require(abs(r / pred - 1.0) < 0.01,
                     f"c = {c}: crossing ratio {r} vs e^(2pi/sqrt(c-1)) = {pred}")
    else:
        _require(rec["kind"] == "inconclusive", f"c = {c}: kind {rec['kind']}")
        alpha = rec["witnesses"]["positive_witness_exponent"]
        _require(abs(alpha * (1.0 - alpha) - c / 4.0) < 1e-12,
                 f"c = {c}: alpha(1 - alpha) != c/4")


def check_sweep(spec, path):
    recs = _read_jsonl(path)
    cs = _geomspace(spec["a"], spec["b"], spec["k"])
    _require(len(recs) == len(cs), f"{len(recs)} records, expected {len(cs)}")
    for rec, c in zip(recs, cs):
        _require(abs(rec["params"]["c"] / c - 1.0) < 1e-12, "c grid differs")
        _oscillation_record(rec, rec["params"]["c"])


def check_oscillation(spec, path):
    (rec,) = _read_jsonl(path)
    _oscillation_record(rec, float(spec["c"]))


def _single_verdict(path, kind):
    (rec,) = _read_jsonl(path)
    _require(rec["kind"] == kind, f"kind {rec['kind']}, expected {kind}")
    return rec["witnesses"]


def _crossing(w, after):
    cross = w["crossings"][0]
    _require(math.isfinite(cross) and cross > after,
             f"crossing {cross} not past {after}")
    return cross


def check_thm38(spec, path):
    w = _single_verdict(path, "incompleteness")
    _require(w["growth_case"] == spec["case"], f"growth case {w['growth_case']}")
    _require(w["ray_verdict"] == "finite" and math.isfinite(w["ray_total"]),
             "ray length not certified finite")


def check_thm48(spec, path):
    b, t0 = float(spec["b"]), float(spec["t0"])
    cross = _crossing(_single_verdict(path, "nonexistence"), t0)
    pred = t0 + math.pi / (2.0 * b)
    _require(abs(cross / pred - 1.0) < 1e-6, f"crossing {cross} vs t0 + pi/(2b) = {pred}")


def check_thm413(spec, path):
    n, c = spec["n"], float(spec["c"])
    w = _single_verdict(path, "nonexistence")
    _crossing(w, 3.0)
    eps = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * c / n))
    _require(abs(w["measured_growth_exponent"] - eps) < 1e-2,
             f"growth exponent {w['measured_growth_exponent']} vs indicial {eps}")


def check_thm418(spec, path):
    n, b = spec["n"], float(spec["b"])
    w = _single_verdict(path, "nonexistence")
    c2 = (n - 1) / (4.0 * n) * b * b
    _require(abs(w["c_squared"] / c2 - 1.0) < 1e-12, "c^2 != c_{n+1} b^2")
    _crossing(w, w["coefficient_negative_from"])


def check_crossing(spec, path):
    _crossing(_single_verdict(path, spec["kind"]), 3.0)


def check_barrier33(spec, path):
    w = _single_verdict(path, "nonexistence")
    _require(w["growth_exponent_cap"] == (spec["n"] + 1) / 2.0, "growth cap != (n+1)/2")
    _crossing(w, w["coefficient_negative_from"])


def check_solve(spec, path):
    with open(path + ".meta.json") as fh:
        meta = json.load(fh)
    _require(meta["residual_norm"] < 1e-6, f"meta residual_norm {meta['residual_norm']}")
    header, rows = _read_csv(path)
    _require(header == ["t", "u", "du"], f"header {header}")
    tab = _table(rows)
    t, u = tab[:, 0], tab[:, 1]
    _require(np.allclose(t, np.linspace(spec["t0"], spec["T"], 801), rtol=1e-13, atol=0),
             "t grid differs")
    hi = spec["hi_coeff"] * t ** spec["hi_power"]
    _require(np.all(u > 0), "u is not positive")
    _require(np.all(u >= spec["lo"] - 1e-8) and np.all(u <= hi * (1 + 1e-8)),
             "u leaves the bracket")
    _require(u[0] == float(spec["bc"][0]) and u[-1] == float(spec["bc"][1]),
             "boundary values differ")
    # (4n/(n+1)) u'' + R u - R(g) u^((n-3)/(n+1)) with n = 3: u^0 = 1, R(g) = -6
    n, C, alpha = spec["n"], float(spec["C"]), float(spec["alpha"])
    h = t[1] - t[0]
    d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h ** 2
    res = 4.0 * n / (n + 1) * d2 - C / t[1:-1] ** alpha * u[1:-1] + n * (n - 1)
    _require(float(np.abs(res).max()) < 1e-6, f"recomputed residual {np.abs(res).max()}")


def check_line(spec, path):
    header, rows = _read_csv(path)
    _require(header == ["t", "R"], f"header {header}")
    tab = _table(rows)
    t = _geomspace(*spec["t"], spec["k"])
    _require(tab.shape == (len(t), 2), f"{tab.shape[0]} rows, expected {len(t)}")
    _require(np.allclose(tab[:, 0], t, rtol=1e-12, atol=0), "t grid differs")
    R_ref, scale = warped_reference(spec["profile"], spec["n"], spec["R_g"])
    err = np.abs(tab[:, 1] - R_ref(t)) / scale(t)
    _require(float(err.max()) < CLOSED_FORM_TOL, f"closed form off by {err.max():.3g}")


def _chart_diagonal(kind, n, radius, x):
    """Diagonal of the model base metric: round sphere in hyperspherical
    coordinates, hyperbolic space as rho^2 (dchi^2 + sinh^2 chi dOmega^2)."""
    if kind == "flat":
        return [1.0] * n
    sines = [math.sin(v) ** 2 for v in x]
    if kind == "sphere":
        return [radius ** 2 * math.prod(sines[:i]) for i in range(n)]
    sinh2 = math.sinh(x[0]) ** 2
    return [radius ** 2] + [radius ** 2 * sinh2 * math.prod(sines[1:i])
                            for i in range(1, n)]


def _fd_scalar(profile, n, point, kind="flat", radius=1.0, h=FD_STEP):
    """FD oracle scalar curvature of dt^2 + f(t, x)^2 g at point, g the model
    base metric of `kind`, with f evaluated by sympy and the metric
    assembled here rather than by curvlab's expression and chart code;
    h is the finite-difference step."""
    import sympy as sp
    from curvlab.oracle import MetricGrid, fd_scalar_curvature
    f, t, xs = _sympy_profile(profile, n)
    f_num = sp.lambdify((t, *xs), f, "math")

    def components(p):
        g = np.zeros((n + 1, n + 1))
        g[0, 0] = 1.0
        g[1:, 1:] = np.diag(_chart_diagonal(kind, n, radius, p[1:])) * f_num(*p) ** 2
        return g

    return fd_scalar_curvature(MetricGrid(n, components, h=h, domain_min=2.0), point).scalar


def _rel(a, ref):
    return abs(a - ref) / abs(ref)


def check_torus(spec, path):
    n, m, k = spec["n"], spec["m"], spec["k"]
    header, rows = _read_csv(path)
    _require(header == ["t"] + [f"x{i + 1}" for i in range(n)] + ["value"],
             f"header {header}")
    _require(len(rows) == k * m ** n, f"{len(rows)} rows, expected {k * m ** n}")
    rng = random.Random(json.dumps(spec, sort_keys=True))
    for idx in sorted(rng.sample(range(len(rows)), 6)):
        vals = [float(v) for v in rows[idx].split(",")]
        point, value = np.array(vals[:-1]), vals[-1]
        nodes = point[1:] * m / (2.0 * math.pi)
        _require(np.allclose(nodes, np.round(nodes), atol=1e-9), "x is not a grid node")
        fd = _fd_scalar(spec["profile"], n, point)
        rel = abs(fd - value) / abs(fd)
        _require(rel <= ORACLE_TOL, f"row {idx}: slice {value} vs FD {fd} (rel {rel:.3g})")


def _torus_oracle_rows(spec, t, closed, fd, rows):
    """Check the closed_form column of a torus oracle job at the grid node
    it is taken at, against the FD oracle on an independently assembled
    metric (gate tolerance), and the fd column at the exact --x0 against the
    same oracle (FD_REPEAT_TOL).  Return, by row, how far the scalar
    curvature moves between those two points, relative to its value at the
    node: the share of a miss that the torus point mismatch explains."""
    n, m, x0 = spec["n"], spec["m"], float(spec["x0"])
    spacing = 2.0 * math.pi / m
    node = (round(x0 / spacing) % m) * spacing
    shifts = {}
    for i in rows:
        ref_node = _fd_scalar(spec["profile"], n, [t[i]] + [node] * n)
        _require(_rel(closed[i], ref_node) <= ORACLE_TOL,
                 f"t = {t[i]:.4g}: closed_form {closed[i]} vs FD at its grid "
                 f"node {ref_node} (rel {_rel(closed[i], ref_node):.3g})")
        ref_x0 = _fd_scalar(spec["profile"], n, [t[i]] + [x0] * n)
        _require(_rel(fd[i], ref_x0) <= FD_REPEAT_TOL,
                 f"t = {t[i]:.4g}: fd {fd[i]} vs FD on an independent "
                 f"assembly {ref_x0}")
        shifts[i] = _rel(ref_x0, ref_node)
    return shifts


def _curved_chart_miss(spec, t, fd, closed, worst, message):
    """The curved-chart defect explains a miss only on a sphere or
    hyperbolic base at n >= 5, when the fd column is what the FD oracle gives
    on an independently assembled metric at the hard-coded point (up to a
    hundredth of the miss), and when the miss is that oracle's O(h^2)
    truncation error: Richardson extrapolation of the oracle at steps h and
    h/2 on that metric must meet the closed form within the gate."""
    n = spec["n"]
    _require(n >= CURVED_CHART_MIN_N,
             f"{message}: the curved-chart defect is not seen below n = "
             f"{CURVED_CHART_MIN_N}")
    kind = "sphere" if spec["R_g"] > 0 else "hyperbolic"
    radius = math.sqrt(n * (n - 1) / abs(spec["R_g"]))
    point = [t] + [X0_HARD_CODED] * n
    ref = _fd_scalar(spec["profile"], n, point, kind, radius)
    _require(_rel(fd, ref) <= max(FD_REPEAT_TOL, FD_REPEAT_SHARE * worst),
             f"{message}: fd {fd} differs from the FD oracle on an "
             f"independent assembly {ref}")
    half = _fd_scalar(spec["profile"], n, point, kind, radius, FD_STEP / 2)
    extrapolated = (4.0 * half - ref) / 3.0
    _require(_rel(extrapolated, closed) <= ORACLE_TOL,
             f"{message}: the FD oracle extrapolated to h = 0 ({extrapolated}) "
             f"misses the closed form {closed} too, so the miss is not its "
             f"truncation error")


def check_oracle(spec, path):
    header, rows = _read_csv(path)
    _require(header == ["point", "closed_form", "fd", "abs_err", "rel_err"],
             f"header {header}")
    tab = _table(rows)
    t = _geomspace(*spec["t"], spec["k"])
    _require(tab.shape == (len(t), 5), f"{tab.shape[0]} rows, expected {len(t)}")
    _require(np.allclose(tab[:, 0], t, rtol=1e-12, atol=0), "t grid differs")
    closed, fd, rel = tab[:, 1], tab[:, 2], tab[:, 4]
    _require(np.allclose(rel, np.abs(fd - closed) / np.abs(closed), rtol=1e-12, atol=0),
             "rel_err column inconsistent")
    worst_row = int(rel.argmax())
    worst = float(rel[worst_row])
    if spec["base"] == "torus":
        rng = random.Random(json.dumps(spec, sort_keys=True))
        shifts = _torus_oracle_rows(spec, t, closed, fd,
                                    sorted({worst_row, *rng.sample(range(len(t)), 2)}))
    else:
        R_ref, scale = warped_reference(spec["profile"], spec["n"], spec["R_g"])
        err = np.abs(closed - R_ref(t)) / scale(t)
        _require(float(err.max()) < CLOSED_FORM_TOL,
                 f"closed_form column off by {err.max():.3g}")
    if worst <= ORACLE_TOL:
        return "ok", f"max rel_err {worst:.3g}"
    message = f"rel_err {worst:.3g} > {ORACLE_TOL:g} at t = {t[worst_row]:.4g}"
    if spec["base"] == "torus":
        # both columns matched their own points above; the mismatch may take
        # the row past the gate by no more than the curvature moves between
        # the grid node and x0 there
        shift = shifts[worst_row]
        _require(worst <= ORACLE_TOL + shift,
                 f"{message}: more than the gate plus the {shift:.3g} the "
                 f"point mismatch explains")
        return "torus-point-mismatch", message
    _require(spec["base"] in ("sphere", "hyperbolic"), message)
    _curved_chart_miss(spec, float(t[worst_row]), float(fd[worst_row]),
                       float(closed[worst_row]), worst, message)
    return "curved-chart-fd", message


CHECKS = {
    "sweep": check_sweep,
    "oscillation": check_oscillation,
    "thm38": check_thm38,
    "thm48": check_thm48,
    "thm413": check_thm413,
    "thm418": check_thm418,
    "crossing": check_crossing,
    "barrier33": check_barrier33,
    "solve": check_solve,
    "line": check_line,
    "torus": check_torus,
    "oracle": check_oracle,
}


def check_output(spec, path):
    """(status, message) for one job's output file."""
    try:
        result = CHECKS[spec["type"]](spec, path)
    except CheckFailed as e:
        return "fail", str(e)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return "fail", f"unreadable output: {type(e).__name__}: {e}"
    return result if result else ("ok", "")
