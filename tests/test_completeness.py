"""Ray-length reports and the cutoff-profile sign test."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from curvlab.completeness import (RayLengthReport, ray_length,
                                  yamabe_test_integral)
from curvlab.errors import DomainError


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestRayLength:
    def test_constant_diverges(self):
        r = ray_length(lambda t: np.ones_like(t), None, 3, 3.0, 1e4)
        assert r.verdict == "divergent"
        assert r.integral == pytest.approx(1e4 - 3.0, rel=1e-10)

    def test_inverse_square_tail_completed(self):
        r = ray_length(lambda t: t**-2.0, None, 3, 3.0, 1e4)
        assert r.verdict == "finite"
        assert r.total == pytest.approx(1.0/3.0, abs=1e-4)
        assert r.tail_exponent == pytest.approx(-2.0, abs=1e-3)

    def test_borderline_undetermined(self):
        r = ray_length(lambda t: 1.0/t, None, 3, 3.0, 1e4)
        assert r.verdict == "undetermined"
        assert r.tail_exponent == pytest.approx(-1.0, abs=1e-2)

    def test_exponent_uses_n(self):
        # u = t^-2 with n = 5: integrand t^-1 -> undetermined
        r = ray_length(lambda t: t**-2.0, None, 5, 3.0, 1e4)
        assert r.verdict == "undetermined"

    @pytest.mark.parametrize("u, verdict", [
        (lambda t: t**-2.0, "finite"), (lambda t: np.ones_like(t), "divergent")],
        ids=["inverse-square", "constant"])
    @pytest.mark.parametrize("T", [29.9, 30.0])
    def test_a_window_shorter_than_a_decade_is_undetermined(self, u, verdict,
                                                           T):
        # on [t0, T] with T < 10 t0 the tail fit reads a local slope, even
        # of an exact power law; T = 10 t0 is the shortest window fitted
        r = ray_length(u, None, 3, 3.0, T)
        assert r.verdict == (verdict if T >= 30.0 else "undetermined")

    def test_monotone_in_T(self):
        vals = [ray_length(lambda t: t**-2.0, None, 3, 3.0, T).integral
                for T in (1e2, 1e3, 1e4)]
        assert vals[0] < vals[1] < vals[2]

    def test_monotone_in_u(self):
        big = ray_length(lambda t: 2.0/t**2, None, 3, 3.0, 1e4).integral
        small = ray_length(lambda t: 1.0/t**2, None, 3, 3.0, 1e4).integral
        assert small < big

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            ray_length(lambda t: np.cos(t), None, 3, 3.0, 100.0)

    def test_json(self):
        r = ray_length(lambda t: t**-2.0, None, 3, 3.0, 1e4)
        rec = json.loads(r.to_json())
        assert rec["verdict"] == "finite"

    @given(st.one_of(st.none(), FINITE, st.lists(FINITE, min_size=1,
                                                  max_size=4)),
           st.integers(3, 12), FINITE, FINITE, FINITE, FINITE, st.floats(),
           st.floats(), st.sampled_from(["finite", "divergent",
                                         "undetermined"]))
    def test_json_reads_back(self, x0, n, t0, T, integral, tail_exponent,
                             tail_estimate, total, verdict):
        # x0 reads back as a list; a tail and a total, which may be inf or
        # nan otherwise, only when the verdict is finite
        finite = verdict == "finite"
        assume(not finite or math.isfinite(tail_estimate)
               and math.isfinite(total))
        r = RayLengthReport(x0, n, t0, T, integral, tail_exponent,
                            tail_estimate, total, verdict)
        assert json.loads(r.to_json()) == {
            "x0": None if x0 is None else list(np.atleast_1d(x0)),
            "n": n, "t0": t0, "T": T, "integral": integral,
            "tail_exponent": tail_exponent,
            "tail_estimate": tail_estimate if finite else None,
            "total": total if finite else None, "verdict": verdict}


class TestYamabeTestIntegral:
    def test_threshold_closed_form(self):
        val, thr = yamabe_test_integral(-1.0, 3, 9.0, 1.0, 1.0)
        assert thr == pytest.approx(8.0, abs=1e-12)
        assert val < 0

    def test_below_threshold_positive(self):
        val, _ = yamabe_test_integral(-1.0, 3, 3.0, 1.0, 1.0)
        assert val > 0

    def test_no_gradient_cost(self):
        for b in (2.5, 5.0, 50.0):
            val, thr = yamabe_test_integral(-1.0, 3, b, 0.0, 1.0)
            assert val < 0
        assert thr == pytest.approx(2.0)

    def test_strictly_decreasing_in_b(self):
        vals = [yamabe_test_integral(-1.0, 3, b, 1.0, 1.0)[0]
                for b in (3.0, 4.0, 5.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_volume_scaling(self):
        v1, _ = yamabe_test_integral(-1.0, 3, 9.0, 1.0, 1.0)
        v2, _ = yamabe_test_integral(-1.0, 3, 9.0, 1.0, 2.5)
        assert v2 == pytest.approx(2.5*v1, rel=1e-14)

    def test_exact_values(self):
        # the docstring's formula at R_end != -1, where dividing and
        # multiplying by -R_end differ, and vol_N != 1: (4n/(n-1)) C_o^2 =
        # 12, value = 3 (12 - 2.5 (7 - 2) - 2.5/3) = -4 and threshold =
        # 2 + 12/2.5 = 6.8
        val, thr = yamabe_test_integral(-2.5, 4, 7.0, 1.5, 3.0)
        assert val == pytest.approx(-4.0, rel=1e-14)
        assert thr == pytest.approx(6.8, rel=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            yamabe_test_integral(1.0, 3, 9.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            yamabe_test_integral(-1.0, 3, 2.0, 1.0, 1.0)


def test_ray_length_rejects_overflow():
    # exp(exp(t)) overflows from t = ln(709.78...) on; the first bad
    # quadrature node is named
    with pytest.raises(DomainError, match=r"u is not finite at t = 6\.56"):
        with np.errstate(over="ignore"):
            ray_length(lambda t: np.exp(np.exp(t)), None, 3, 3.0, 20.0)
    with pytest.raises(DomainError, match="u is not finite at t = 3.0"):
        ray_length(lambda t: np.full_like(t, np.nan), None, 3, 3.0, 20.0)
