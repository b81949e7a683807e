"""Dense exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced into [0, p).  All
routines are deterministic: Gaussian elimination always picks the first
usable pivot row, and nullspace bases are built from free columns in
ascending order.
"""

from __future__ import annotations

import numpy as np

_SMALL_PRIMES = {
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
}


def is_supported_prime(p: int) -> bool:
    """Primes accepted for exact enumeration (p <= 97)."""
    return p in _SMALL_PRIMES


def asmat(a, p: int) -> np.ndarray:
    m = np.asarray(a, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return m % p


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def inv_scalar(x: int, p: int) -> int:
    x %= p
    if x == 0:
        raise ZeroDivisionError("not invertible mod p")
    return pow(x, p - 2, p)


def rref(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form, returns (R, pivot_columns)."""
    m = asmat(a, p)  # asmat always allocates a fresh reduced array
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            m[[r, k]] = m[[k, r]]
        if p != 2:
            m[r] = (m[r] * inv_scalar(int(m[r, c]), p)) % p
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            if p == 2:
                m[other] ^= m[r]
            else:
                m[other] = (m[other] - np.outer(m[other, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a, p: int) -> int:
    return len(rref(a, p)[1])


def nullspace(a, p: int) -> np.ndarray:
    """Columns form a basis of ker(a); free columns taken in ascending order."""
    m = asmat(a, p)
    rows, cols = m.shape
    r, pivots = rref(m, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros(cols, len(free))
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = (-int(r[i, fc])) % p
    return basis


def solve(a, b, p: int) -> np.ndarray | None:
    """One solution X of a @ X = b (free variables set to 0), or None."""
    a = asmat(a, p)
    b = asmat(b, p)
    if a.shape[0] != b.shape[0]:
        raise ValueError("incompatible shapes in solve")
    aug = np.hstack([a, b])
    r, pivots = rref(aug, p)
    n = a.shape[1]
    if any(pc >= n for pc in pivots):
        return None
    x = zeros(n, b.shape[1])
    for i, pc in enumerate(pivots):
        x[pc] = r[i, n:]
    return x


def solve_left(a, b, p: int) -> np.ndarray | None:
    """One solution X of X @ a = b, or None."""
    xt = solve(a.T, b.T, p)
    return None if xt is None else xt.T


def inv(a, p: int) -> np.ndarray | None:
    a = asmat(a, p)
    if a.shape[0] != a.shape[1]:
        return None
    return solve(a, eye(a.shape[0]), p)


def column_space_basis(a, p: int) -> np.ndarray:
    """Original columns of `a` at the pivot positions of rref(a)."""
    a = asmat(a, p)
    _, pivots = rref(a, p)
    return a[:, pivots].copy()


def complement_projector(basis, dim: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """For a subspace spanned by `basis` (dim x r) return (q, s) with
    q: F^dim -> F^(dim-r) surjective, ker(q) = span(basis), and s a right
    inverse of q built from standard basis vectors at non-pivot rows.  With
    R = rref(basis^T), q is the identity on the free rows F and -R[:, F]^T on
    the pivot rows: it kills every row of R, and q s = 1."""
    b = asmat(basis, p)
    if b.shape[0] != dim:
        raise ValueError("basis has wrong ambient dimension")
    red, pivots = rref(b.T, p)
    free_rows = [i for i in range(dim) if i not in pivots]
    ext = zeros(dim, len(free_rows))
    ext[free_rows, range(len(free_rows))] = 1
    q = ext.T.copy()
    q[:, pivots] = (-red[:len(pivots), free_rows].T) % p
    return q, ext


def enumerate_vectors(dim: int, p: int):
    """All vectors of F_p^dim in lexicographic order (first coord slowest)."""
    v = zeros(dim, 1)[:, 0]
    while True:
        yield v.copy()
        i = dim - 1
        while i >= 0:
            v[i] += 1
            if v[i] < p:
                break
            v[i] = 0
            i -= 1
        if i < 0:
            return


def enumerate_subspaces(dim: int, p: int):
    """All subspaces of F_p^dim as RREF basis matrices (dim x k).

    Order: dimension ascending, then pivot set lexicographic, then free
    entries in lexicographic order.  Every subspace appears exactly once.
    """
    from itertools import combinations

    yield zeros(dim, 0)
    for k in range(1, dim + 1):
        for pivots in combinations(range(dim), k):
            free_slots = [
                (i, c)
                for i in range(k)
                for c in range(pivots[i] + 1, dim)
                if c not in pivots
            ]
            for values in enumerate_vectors(len(free_slots), p):
                m = zeros(k, dim)
                for i, pc in enumerate(pivots):
                    m[i, pc] = 1
                for (i, c), val in zip(free_slots, values):
                    m[i, c] = val
                yield m.T.copy()
