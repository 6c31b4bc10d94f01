"""errors.name_first, the one rule for naming a bad value, and
errors.ieee, the one IEEE fallback for Python-float arithmetic."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from curvlab.errors import DomainError, ieee, name_first

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(hnp.arrays(bool, hnp.array_shapes(min_dims=0, max_dims=3, max_side=4)),
       st.booleans(), st.data())
def test_names_the_first_bad_entry_in_c_order(ok, per_entry, data):
    t = (data.draw(hnp.arrays(float, ok.shape, elements=FINITE))
         if per_entry else data.draw(FINITE))
    if ok.all():
        assert name_first(t, ok, "x is bad") is None
        return
    first = next(i for i, good in enumerate(ok.ravel()) if not good)
    bad_t = np.ravel(t)[first] if per_entry else t
    with pytest.raises(DomainError) as err:
        name_first(t, ok, "x is bad")
    assert str(err.value) == f"x is bad at t = {float(bad_t)!r}"


def test_a_scalar_mask_and_a_list():
    assert name_first(3.0, True, "x") is None
    with pytest.raises(DomainError, match=r"^x at t = 3\.0$"):
        name_first(3.0, np.isfinite(np.inf), "x")
    with pytest.raises(DomainError, match=r"^x at t = 2\.5$"):
        name_first([1.5, 2.5, 3.5], [True, False, False], "x")


def test_ieee_gives_what_python_floats_raise_for():
    # each of these raises on Python floats
    assert ieee(np.divide, 1.0, 0.0) == np.inf
    assert ieee(np.divide, -1.0, 0.0) == -np.inf
    assert np.isnan(ieee(np.divide, 0.0, 0.0))
    assert ieee(lambda x: x ** 2, 1e200) == np.inf
    assert ieee(np.power, 0.0, -1) == np.inf


def test_ieee_keeps_arrays_and_warns_of_nothing():
    with np.errstate(all="raise"):
        out = ieee(np.divide, [1.0, 0.0, 2.0], 0.0)
    assert isinstance(out, np.ndarray) and out.shape == (3,)
    assert out[0] == np.inf and np.isnan(out[1]) and out[2] == np.inf
    # a scalar comes back a scalar, with numpy's IEEE rounding
    assert ieee(np.divide, 1.0, 3.0) == 1.0 / 3.0
    assert np.ndim(ieee(np.divide, 1, 3)) == 0
