"""Property tests for the compiled hashing rounds.

The compiled parity and final-state matrices must agree, column by column,
with the round map applied to each flat basis vector in turn.
"""

import numpy as np
import pytest

from distillery.hashing import BellIndexVector, round_update

from conftest import compile_rounds

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def round_lists(draw):
    """(s_list, n): 1..n-1 non-zero parity strings, shrinking by one pair a round."""
    n = draw(st.integers(2, 36))
    r = draw(st.integers(1, n - 1))
    s_list = []
    for k in range(r):
        length = 2 * (n - k)
        mask = draw(st.integers(1, 2**length - 1))
        s_list.append(np.array([(mask >> j) & 1 for j in range(length)], dtype=np.uint8))
    return s_list, n


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(round_lists())
def test_compiled_rounds_equal_the_round_update_chain(case):
    s_list, n = case
    t_matrix, f_matrix = compile_rounds(s_list, n)
    assert t_matrix.shape == (len(s_list), 2 * n)
    assert f_matrix.shape == (2 * (n - len(s_list)), 2 * n)
    for j in range(2 * n):
        basis = np.zeros(2 * n, dtype=np.uint8)
        basis[j] = 1
        x = BellIndexVector.from_bits(basis)
        for k, s in enumerate(s_list):
            t, x = round_update(s, x)
            assert t == t_matrix[k, j]
        assert np.array_equal(x.to_bits(), f_matrix[:, j])
