import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cotorsionlab import primefield as pf
from oracles import complement_projector_by_inverse


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@st.composite
def matrices(draw, p=2, max_dim=5):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    data = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                         max_size=rows * cols))
    return np.array(data, dtype=np.int64).reshape(rows, cols)


@given(matrices())
def test_rref_is_idempotent_and_preserves_rank(m):
    r, piv = pf.rref(m, 2)
    r2, piv2 = pf.rref(r, 2)
    assert np.array_equal(r, r2)
    assert piv == piv2


@given(matrices())
def test_nullspace_is_annihilated(m):
    ns = pf.nullspace(m, 2)
    assert not np.any((m @ ns) % 2)
    assert pf.rank(m, 2) + ns.shape[1] == m.shape[1]


@given(matrices(p=5, max_dim=4))
def test_nullspace_mod_5(m):
    ns = pf.nullspace(m, 5)
    assert not np.any((m @ ns) % 5)


@given(matrices())
def test_solve_finds_consistent_solutions(m):
    # m @ x = m @ e is always consistent
    rhs = m % 2
    x = pf.solve(m, rhs, 2)
    assert x is not None
    assert not np.any((m @ x - rhs) % 2)


def test_solve_detects_inconsistency():
    a = np.array([[1, 0], [1, 0]], dtype=np.int64)
    b = np.array([[1], [0]], dtype=np.int64)
    assert pf.solve(a, b, 2) is None


def test_inverse_round_trip():
    a = np.array([[1, 1], [0, 1]], dtype=np.int64)
    ai = pf.inv(a, 2)
    assert np.array_equal((a @ ai) % 2, np.eye(2, dtype=np.int64))


def test_complement_projector_kills_exactly_the_subspace():
    basis = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.int64)
    q, sect = pf.complement_projector(basis, 3, 2)
    assert not np.any((q @ basis) % 2)
    assert np.array_equal((q @ sect) % 2, np.eye(q.shape[0], dtype=np.int64))
    assert q.shape == (1, 3)


@st.composite
def subspace_bases(draw):
    """(p, basis) at p in {2, 3, 5, 7}; half the bases with a column that
    repeats a combination of two others, so rank-deficient."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(matrices(p=p, max_dim=6))
    if m.shape[1] and draw(st.booleans()):
        c = draw(st.integers(0, p - 1))
        m = np.hstack([m, (c * m[:, :1] + m[:, -1:]) % p])
    return p, m


@settings(max_examples=300)
@given(subspace_bases())
@example((2, pf.zeros(0, 0)))
@example((3, pf.zeros(0, 4)))
@example((5, pf.zeros(4, 0)))
@example((7, pf.zeros(3, 2)))
@example((3, np.array([[1, 2, 0], [2, 1, 0], [0, 0, 0]], dtype=np.int64)))
def test_complement_projector_matches_the_inverse_construction(case):
    p, basis = case
    got = pf.complement_projector(basis, basis.shape[0], p)
    want = complement_projector_by_inverse(basis, basis.shape[0], p)
    for g, w in zip(got, want):
        assert (g.shape, g.dtype, g.tobytes()) == (w.shape, w.dtype, w.tobytes())


@pytest.mark.parametrize("dim,p", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_subspace_enumeration_counts(dim, p):
    subs = list(pf.enumerate_subspaces(dim, p))
    expected = sum(gaussian_binomial(dim, k, p) for k in range(dim + 1))
    assert len(subs) == expected
    seen = set()
    for s in subs:
        r, piv = pf.rref(s.T, p)
        key = (s.shape[1],) + tuple(r[:len(piv)].reshape(-1))
        assert pf.rank(s, p) == s.shape[1]
        seen.add(key)
    assert len(seen) == expected  # pairwise distinct subspaces
