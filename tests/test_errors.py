"""errors.name_first, the one rule for naming a bad value."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from curvlab.errors import DomainError, name_first

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
