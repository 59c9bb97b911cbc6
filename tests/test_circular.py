"""Unit tests for the circular array (the paper's UPDATEARRAY primitive)."""
import collections

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.circular import CircularArray


class TestConstruction:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CircularArray(0)

    def test_init_wrong_length(self):
        with pytest.raises(ValueError):
            CircularArray(4, init=np.ones(3))

    def test_init_full(self):
        c = CircularArray(3, init=np.array([1.0, 2.0, 3.0]))
        assert c.full
        assert len(c) == 3

    def test_empty_not_full(self):
        c = CircularArray(3)
        assert not c.full
        assert len(c) == 0


class TestAppendAndView:
    def test_append_grows_until_capacity(self):
        c = CircularArray(3)
        for i in range(5):
            c.append(float(i))
            assert len(c) == min(i + 1, 3)

    def test_view_last_order(self):
        c = CircularArray(4, init=np.array([1.0, 2.0, 3.0, 4.0]))
        c.append(5.0)  # overwrites 1.0
        assert c.view_last(4).tolist() == [2.0, 3.0, 4.0, 5.0]

    def test_view_last_partial(self):
        c = CircularArray(4, init=np.array([1.0, 2.0, 3.0, 4.0]))
        c.append(5.0)
        c.append(6.0)
        assert c.view_last(2).tolist() == [5.0, 6.0]

    def test_view_more_than_held_raises(self):
        c = CircularArray(5)
        c.append(1.0)
        with pytest.raises(ValueError):
            c.view_last(2)

    def test_view_is_copy(self):
        c = CircularArray(3, init=np.array([1.0, 2.0, 3.0]))
        v = c.view_last(3)
        v[0] = 99.0
        assert c.view_last(3)[0] == 1.0

    def test_view_all_before_full(self):
        c = CircularArray(5)
        c.append(1.0)
        c.append(2.0)
        assert c.view_last(len(c)).tolist() == [1.0, 2.0]

    @given(
        st.integers(min_value=1, max_value=20),
        st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=100),
    )
    def test_matches_deque_reference(self, cap, xs):
        """Property: CircularArray behaves exactly like a maxlen deque."""
        c = CircularArray(cap)
        ref = collections.deque(maxlen=cap)
        for x in xs:
            c.append(x)
            ref.append(x)
            assert c.view_last(len(c)).tolist() == pytest.approx(list(ref))

