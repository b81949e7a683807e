"""Exact representation arithmetic for a bound linear quiver over F_p.

The quiver has vertices 1..n and arrows v+1 -> v.  A relation (a, b) says
the composite of arrows from vertex b down to vertex a is zero.  A module
stores its arrows, and a morphism its components, as one block matrix
over the total spaces, so each operation is a few numpy calls on one
matrix instead of one or more per vertex.  Everything is read-only after
construction and validated eagerly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import primefield as pf


class ContextMismatchError(ValueError):
    """Operands live over different presentations or fields."""


class EnumerationRefusedError(RuntimeError):
    def __init__(self, needed: int, cap: int):
        super().__init__(f"enumeration refused: total dimension {needed} exceeds cap {cap}")
        self.needed = needed
        self.cap = cap


@dataclass(frozen=True)
class FieldChar:
    p: int = 2

    def __post_init__(self):
        if not pf.is_supported_prime(self.p):
            raise ValueError(f"field characteristic must be a prime <= 97, got {self.p}")


@dataclass(frozen=True)
class QuiverPresentation:
    """Linear quiver on vertices 1..n with interval monomial relations."""

    n: int
    relations: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        cleaned = []
        for rel in self.relations:
            a, b = int(rel[0]), int(rel[1])
            if not (1 <= a < b <= self.n):
                raise ValueError(f"relation {rel} out of range for n={self.n}")
            if b - a < 2:
                raise ValueError(f"relation {rel} is shorter than two arrows")
            cleaned.append((a, b))
        # drop relations that contain another relation; they are redundant
        minimal = [
            r for r in cleaned
            if not any(s != r and r[0] <= s[0] and s[1] <= r[1] for s in cleaned)
        ]
        object.__setattr__(self, "relations", tuple(sorted(set(minimal))))

    def admissible(self, a: int, b: int) -> bool:
        """No relation interval sits inside [a, b]."""
        if not (1 <= a <= b <= self.n):
            return False
        return not any(a <= r and s <= b for r, s in self.relations)

    def proj_bottom(self, b: int) -> int:
        """Lowest vertex reachable from b: bottom of the projective cover."""
        lows = [r + 1 for r, s in self.relations if s <= b]
        return max(lows, default=1)

    def inj_top(self, a: int) -> int:
        highs = [s - 1 for r, s in self.relations if r >= a]
        return min(highs, default=self.n)

    @property
    def op(self) -> "QuiverPresentation":
        """The opposite algebra relabelled v -> n+1-v, so its arrows still
        point down and the relation (a, b) becomes (n+1-b, n+1-a)."""
        n = self.n
        return QuiverPresentation(n, tuple((n + 1 - b, n + 1 - a) for a, b in self.relations))


def _offsets(dims) -> tuple[int, ...]:
    return (0, *accumulate(dims))


def _reversal(m: "Module") -> np.ndarray:
    """Positions in m's basis of the basis of D(m): the vertex blocks in
    reverse order, each kept in its own order."""
    d = np.array(m.dims[::-1], dtype=np.int64)
    starts = np.array(m.offsets[-2::-1]) - (np.cumsum(d) - d)
    return np.repeat(starts, d) + np.arange(m.total_dim)


def _vertex_dims(m: "Module", cols: np.ndarray) -> list[int]:
    """The dimension vector of a basis given as the columns of cols, a
    matrix on m's basis whose every column lives at one vertex."""
    at = cols.argmax(axis=0) if cols.shape[1] else np.zeros(0, dtype=np.int64)
    return np.bincount(np.searchsorted(m.offsets, at, side="right") - 1,
                       minlength=m.presentation.n).tolist()


class Module:
    """A representation: dims[v] per vertex and its arrows as one block
    matrix over the total space.

    The basis of the total space is ordered by (vertex, index); ``dims``
    and ``offsets`` are indexed 0..n-1 for vertices 1..n.  ``block`` is
    zero outside the (i, i+1) blocks, which hold the arrow maps i+2 -> i+1;
    ``maps[i]``, of shape (dims[i], dims[i+1]), is a view of that block,
    made on first read and kept.
    """

    __slots__ = ("presentation", "field", "dims", "offsets", "block", "_key", "_maps")

    def __init__(self, presentation: QuiverPresentation, fieldc: FieldChar,
                 dims, maps, validate: bool = True):
        dims = tuple(int(d) for d in dims)
        if len(dims) != presentation.n:
            raise ValueError("dimension vector has wrong length")
        if any(d < 0 for d in dims):
            raise ValueError("dimensions must be nonnegative")
        o = _offsets(dims)
        block = pf.zeros(o[-1], o[-1])
        for i in range(presentation.n - 1):
            m = pf.asmat(maps[i], fieldc.p)
            if m.shape != (dims[i], dims[i + 1]):
                raise ValueError(
                    f"arrow {i + 2}->{i + 1} matrix has shape {m.shape}, "
                    f"expected {(dims[i], dims[i + 1])}"
                )
            block[o[i]:o[i + 1], o[i + 1]:o[i + 2]] = m
        self._set(presentation, fieldc, dims, block)
        if validate:
            self._check_relations()

    def _set(self, presentation, fieldc, dims, block) -> None:
        self.presentation = presentation
        self.field = fieldc
        self.dims = dims
        self.offsets = _offsets(dims)
        block.flags.writeable = False
        self.block = block

    @staticmethod
    def _make(presentation: QuiverPresentation, fieldc: FieldChar, dims,
              block: np.ndarray) -> "Module":
        """Trusted constructor: block must be reduced mod p, zero outside
        the arrow blocks, and satisfy the relations."""
        m = Module.__new__(Module)
        m._set(presentation, fieldc, tuple(dims), block)
        return m

    @property
    def maps(self) -> tuple[np.ndarray, ...]:
        try:
            return self._maps
        except AttributeError:
            o, b = self.offsets, self.block
            self._maps = tuple(b[o[i]:o[i + 1], o[i + 1]:o[i + 2]]
                               for i in range(self.presentation.n - 1))
            return self._maps

    def _check_relations(self):
        p = self.field.p
        for a, b in self.presentation.relations:
            comp = pf.eye(self.dims[b - 1])
            for v in range(b - 1, a - 1, -1):
                comp = (self.maps[v - 1] @ comp) % p
            if comp.size and np.any(comp % p):
                raise ValueError(f"relation ({a},{b}) is not satisfied")

    @property
    def key(self) -> tuple:
        """Content key: dims plus the entries of the arrow blocks as uint8
        bytes (p <= 97 fits in a byte); computed once."""
        try:
            return self._key
        except AttributeError:
            v = np.repeat(np.arange(self.presentation.n), self.dims)
            arrows = self.block[v[:, None] + 1 == v]
            self._key = (self.dims, arrows.astype(np.uint8).tobytes())
            return self._key

    @property
    def total_dim(self) -> int:
        return self.offsets[-1]

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def dual(self) -> "Module":
        """D = Hom_k(-, k): a module over the opposite algebra."""
        rev = _reversal(self)
        return Module._make(self.presentation.op, self.field, self.dims[::-1],
                            self.block.T[rev[:, None], rev])

    def __repr__(self):
        return f"Module(dims={self.dims})"


def zero_module(presentation: QuiverPresentation, fieldc: FieldChar) -> Module:
    return Module._make(presentation, fieldc, [0] * presentation.n, pf.zeros(0, 0))


def interval_module(presentation: QuiverPresentation, fieldc: FieldChar,
                    a: int, b: int) -> Module:
    """The interval module with support a..b and identity arrow maps."""
    if not presentation.admissible(a, b):
        raise ValueError(f"interval [{a},{b}] is not admissible")
    dims = [1 if a <= v <= b else 0 for v in range(1, presentation.n + 1)]
    m = Module._make(presentation, fieldc, dims, np.eye(b - a + 1, k=1, dtype=np.int64))
    m._check_relations()
    return m


def _same_context(x, y):
    if x.presentation != y.presentation or x.field != y.field:
        raise ContextMismatchError("operands live over different categories")


class Morphism:
    """A module map as one block matrix from the source's total space to
    the target's, zero outside the vertex blocks, commuting with the
    arrows; ``comps[v]``, the component at vertex v+1, is a view of its
    vertex block, made on first read and kept."""

    __slots__ = ("source", "target", "block", "_comps")

    def __init__(self, source: Module, target: Module, comps, validate: bool = True):
        _same_context(source, target)
        p = source.field.p
        so, to = source.offsets, target.offsets
        block = pf.zeros(to[-1], so[-1])
        for v in range(source.presentation.n):
            m = pf.asmat(comps[v], p)
            if m.shape != (target.dims[v], source.dims[v]):
                raise ValueError(
                    f"component at vertex {v + 1} has shape {m.shape}, "
                    f"expected {(target.dims[v], source.dims[v])}"
                )
            block[to[v]:to[v + 1], so[v]:so[v + 1]] = m
        self.source = source
        self.target = target
        block.flags.writeable = False
        self.block = block
        if validate:
            self._check_naturality()

    def _check_naturality(self):
        diff = (self.target.block @ self.block - self.block @ self.source.block) % self.p
        bad = np.flatnonzero(diff.any(axis=1))
        if bad.size:
            i = bisect_right(self.target.offsets, int(bad[0])) - 1
            raise ValueError(f"naturality fails at arrow {i + 2}->{i + 1}")

    @staticmethod
    def _make(source: "Module", target: "Module", block: np.ndarray) -> "Morphism":
        """Trusted constructor: block must be reduced mod p, zero outside
        the vertex blocks, and natural by construction."""
        m = Morphism.__new__(Morphism)
        m.source = source
        m.target = target
        block.flags.writeable = False
        m.block = block
        return m

    @property
    def comps(self) -> tuple[np.ndarray, ...]:
        try:
            return self._comps
        except AttributeError:
            so, to, b = self.source.offsets, self.target.offsets, self.block
            self._comps = tuple(b[to[v]:to[v + 1], so[v]:so[v + 1]]
                                for v in range(self.source.presentation.n))
            return self._comps

    def validate(self) -> "Morphism":
        """Re-check shapes, reduction, and naturality; returns self."""
        Morphism(self.source, self.target, self.comps)
        return self

    @property
    def p(self) -> int:
        return self.source.field.p

    def is_zero(self) -> bool:
        return not self.block.any()

    # the rank of a block-diagonal matrix is the sum of the ranks of its blocks
    def is_injective(self) -> bool:
        return pf.rank(self.block, self.p) == self.source.total_dim

    def is_surjective(self) -> bool:
        return pf.rank(self.block, self.p) == self.target.total_dim

    def is_iso(self) -> bool:
        return self.source.dims == self.target.dims and self.is_injective()

    def then(self, other: "Morphism") -> "Morphism":
        """self followed by other (other @ self)."""
        if other.source is not self.target and other.source.dims != self.target.dims:
            raise ContextMismatchError("composition endpoints do not match")
        return Morphism._make(self.source, other.target,
                              (other.block @ self.block) % self.p)

    def add(self, other: "Morphism") -> "Morphism":
        return Morphism._make(self.source, self.target, (self.block + other.block) % self.p)

    def scale(self, c: int) -> "Morphism":
        return Morphism._make(self.source, self.target, (c * self.block) % self.p)

    def dual(self) -> "Morphism":
        """D(f): D(target) -> D(source), componentwise transposes."""
        return Morphism._make(self.target.dual(), self.source.dual(),
                              self.block.T[_reversal(self.source)[:, None],
                                           _reversal(self.target)])

    def vectorize(self) -> np.ndarray:
        """The components flattened vertex by vertex, each row by row."""
        return self.block[_vertex_cells(self.source, self.target)]

    def __repr__(self):
        return f"Morphism({self.source.dims} -> {self.target.dims})"


def _vertex_cells(source: Module, target: Module) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of the vertex blocks of a map source -> target, in
    the order of `Morphism.vectorize`."""
    r = np.array(target.dims, dtype=np.int64)
    c = np.array(source.dims, dtype=np.int64)
    sizes = r * c
    v = np.repeat(np.arange(len(sizes)), sizes)
    k = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return (np.array(target.offsets[:-1])[v] + k // c[v],
            np.array(source.offsets[:-1])[v] + k % c[v])


def identity(m: Module) -> Morphism:
    return Morphism._make(m, m, pf.eye(m.total_dim))


def zero_morphism(source: Module, target: Module) -> Morphism:
    return Morphism._make(source, target, pf.zeros(target.total_dim, source.total_dim))


def hom_space(m: Module, n: Module) -> list[Morphism]:
    """Basis of Hom(m, n) from the nullspace of the naturality system
    n.block F = F m.block, with F zero outside the vertex blocks.

    Unknowns are the entries of the vertex blocks in `vectorize` order:
    vertex-major, row-major inside each component; the basis order is the
    deterministic free-column order of the solver.
    """
    _same_context(m, n)
    p = m.field.p
    rows, cols = _vertex_cells(m, n)
    # row-major vec(N F - F M) = (N (x) 1 - 1 (x) M^T) vec(F); keep the
    # columns of the unknowns and the equations that can be nonzero
    system = (np.kron(n.block, pf.eye(m.total_dim))
              - np.kron(pf.eye(n.total_dim), m.block.T))[:, rows * m.total_dim + cols] % p
    basis = pf.nullspace(system[system.any(axis=1)], p)
    blocks = np.zeros((basis.shape[1], n.total_dim, m.total_dim), dtype=np.int64)
    blocks[:, rows, cols] = basis.T
    return [Morphism._make(m, n, b) for b in blocks]


def _restrict(m: Module, basis: np.ndarray, dims) -> Module | None:
    """The subrepresentation of m spanned by the columns of basis, an
    injective map into m's basis with dimension vector dims, laid out
    vertex by vertex; its arrows solve basis X = m.block @ basis, which
    has one solution or none.  None if the arrows leave the span."""
    p = m.field.p
    arrows = pf.solve(basis, (m.block @ basis) % p, p)
    if arrows is None:
        return None
    return Module._make(m.presentation, m.field, dims, arrows)


# Elimination never mixes the blocks of a block-diagonal matrix, and
# reduced echelon forms and nullspace bases are canonical, so one
# elimination on the block matrix gives, block by block, what one
# elimination per vertex gives.

def kernel(f: Morphism) -> tuple[Module, Morphism]:
    """Kernel submodule with its inclusion; arrow maps are restrictions."""
    basis = pf.nullspace(f.block, f.p)
    k = _restrict(f.source, basis, _vertex_dims(f.source, basis))
    if k is None:
        raise ArithmeticError("kernel is not a subrepresentation (bug)")
    return k, Morphism._make(k, f.source, basis)


def cokernel(f: Morphism) -> tuple[Module, Morphism]:
    """Cokernel quotient with its projection."""
    p = f.p
    t = f.target
    q, section = pf.complement_projector(f.block, t.total_dim, p)
    c = Module._make(t.presentation, t.field, _vertex_dims(t, section),
                     (q @ t.block @ section) % p)
    return c, Morphism._make(t, c, q)


@dataclass(frozen=True)
class SES:
    """Short exact sequence i: A -> B, p: B -> C, validated on creation."""

    i: Morphism
    p: Morphism

    def __post_init__(self):
        if self.i.target is not self.p.source:
            if self.i.target.dims != self.p.source.dims:
                raise ValueError("SES maps are not composable")
        if not self.i.is_injective():
            raise ValueError("first SES map is not injective")
        if not self.p.is_surjective():
            raise ValueError("second SES map is not surjective")
        pr = self.i.then(self.p)
        if not pr.is_zero():
            raise ValueError("SES composite is nonzero")
        # im(i) = ker(p) follows from dimensions once p.i = 0
        for v in range(self.i.source.presentation.n):
            if self.i.source.dims[v] + self.p.target.dims[v] != self.i.target.dims[v]:
                raise ValueError("SES dimension count fails")

    def dual(self) -> "SES":
        """D(C) -> D(B) -> D(A); D is exact, so the result is a conflation."""
        return SES(self.p.dual(), self.i.dual())

    @property
    def first(self) -> Module:
        return self.i.source

    @property
    def middle(self) -> Module:
        return self.i.target

    @property
    def third(self) -> Module:
        return self.p.target


def layout(n: int, part_dims) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """How direct_sum lays out parts with these dimension vectors (n
    vertices): the dimension vector of the sum and, per part, the positions
    of the part's basis in the sum's.  At each vertex the parts follow one
    another."""
    part_dims = list(part_dims)
    places: list[list[int]] = [[] for _ in part_dims]
    dims, pos = [], 0
    for v in range(n):
        start = pos
        for place, d in zip(places, part_dims):
            if d[v]:
                place.extend(range(pos, pos + d[v]))
                pos += d[v]
        dims.append(pos - start)
    return tuple(dims), [np.array(pl, dtype=np.intp) for pl in places]


def direct_sum(modules: list[Module], presentation: QuiverPresentation,
               fieldc: FieldChar) -> Module:
    """Direct sum, laid out as `layout` says.  A map out of (into) it
    restricts to a summand as the columns (rows) of its block matrix at
    the summand's positions."""
    dims, places = layout(presentation.n, (m.dims for m in modules))
    block = pf.zeros(sum(dims), sum(dims))
    for m, at in zip(modules, places):
        block[at[:, None], at] = m.block
    return Module._make(presentation, fieldc, dims, block)


def block_morphism(source: Module, target: Module, source_parts, target_parts,
                   blocks: dict[tuple[int, int], Morphism]) -> Morphism:
    """The map source -> target whose block from source_parts[i] to
    target_parts[j] is blocks[j, i]; absent blocks are zero.  Source and
    target are laid out as direct_sum lays out their parts."""
    n = source.presentation.n
    row_dims, rows = layout(n, (m.dims for m in target_parts))
    col_dims, cols = layout(n, (m.dims for m in source_parts))
    if row_dims != target.dims or col_dims != source.dims:
        raise ValueError("parts do not add up to the source and target")
    mat = pf.zeros(target.total_dim, source.total_dim)
    for (j, i), f in blocks.items():
        if f.source.dims != source_parts[i].dims or f.target.dims != target_parts[j].dims:
            raise ValueError(f"block {(j, i)} does not run between its parts")
        mat[rows[j][:, None], cols[i]] = f.block
    return Morphism._make(source, target, mat)


def submodules(m: Module, dim_cap: int = 24):
    """Every subrepresentation exactly once, with its inclusion.

    Subspaces are chosen from vertex n downward; each choice must contain
    the arrow image of the previous one.  Deterministic DFS order.
    """
    if m.total_dim > dim_cap:
        raise EnumerationRefusedError(m.total_dim, dim_cap)
    p = m.field.p
    n = m.presentation.n
    o = m.offsets

    def build(v: int, chosen: list[np.ndarray]):
        # chosen holds bases for vertices v+1 .. n (in reverse order)
        if v == 0:
            dims = [b.shape[1] for b in reversed(chosen)]
            basis = pf.zeros(m.total_dim, sum(dims))
            col = 0
            for u, b in enumerate(reversed(chosen)):
                basis[o[u]:o[u + 1], col:col + dims[u]] = b
                col += dims[u]
            sub = _restrict(m, basis, dims)
            if sub is not None:
                yield sub, Morphism._make(sub, m, basis)
            return
        d = m.dims[v - 1]
        if v == n:
            required = pf.zeros(d, 0)
        else:
            prev = chosen[-1]
            required = (m.maps[v - 1] @ prev) % p
        req_basis = pf.column_space_basis(required, p)
        sect = pf.complement_projector(req_basis, d, p)[1]
        for sub_q in pf.enumerate_subspaces(sect.shape[1], p):
            lifted = (sect @ sub_q) % p
            basis = np.hstack([req_basis, lifted])
            chosen.append(basis)
            yield from build(v - 1, chosen)
            chosen.pop()

    yield from build(n, [])


def _composite_rank_table(m: Module) -> np.ndarray:
    """ranks[u-1][w-1] = rank of the composite map M_u -> M_w for w <= u.

    The columns of m.block at vertex u are the arrow map u -> u-1 on m's
    whole basis; each further product with m.block carries them one arrow
    down, so the k-th power holds the composite u -> u-k in the rows of
    u-k and zeros elsewhere.  Once a composite is zero, so are the rest."""
    p = m.field.p
    n = m.presentation.n
    ranks = np.zeros((n, n), dtype=np.int64)
    for u in range(1, n + 1):
        ranks[u - 1][u - 1] = m.dims[u - 1]
        comp = m.block[:, m.offsets[u - 1]:m.offsets[u]]
        for w in range(u - 1, 0, -1):
            ranks[u - 1][w - 1] = pf.rank(comp, p)
            if not ranks[u - 1][w - 1]:
                break
            comp = (m.block @ comp) % p
    return ranks


def interval_multiset(m: Module) -> dict[tuple[int, int], int]:
    """Multiplicity of each interval summand, from composite map ranks.

    Valid because every module over this bound serial algebra is a direct
    sum of interval modules, and ranks of the composites determine the
    multiplicities by inclusion-exclusion on containment.
    """
    n = m.presentation.n
    ranks = _composite_rank_table(m)

    def nval(u: int, w: int) -> int:
        if u > n or w < 1:
            return 0
        return int(ranks[u - 1][w - 1])

    out: dict[tuple[int, int], int] = {}
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            c = nval(b, a) - nval(b + 1, a) - nval(b, a - 1) + nval(b + 1, a - 1)
            if c < 0:
                raise ArithmeticError("negative interval multiplicity (bug)")
            if c:
                out[(a, b)] = c
    if sum(c * (b - a + 1) for (a, b), c in out.items()) != m.total_dim:
        raise ArithmeticError("interval counting lost dimensions (bug)")
    return out


def _split_top_generator(m: Module) -> tuple[tuple[int, int], Morphism, Morphism]:
    """Find a maximal-reach top generator and split off the uniserial
    summand it generates.  Returns (interval, incl, retraction)."""
    p = m.field.p
    n = m.presentation.n
    # composites are carried down the arrows on m's whole basis, as in
    # _composite_rank_table
    best = None  # (length, top_vertex)
    for top in range(1, n + 1):
        if m.dims[top - 1] == 0:
            continue
        comp, reach = m.block[:, m.offsets[top - 1]:m.offsets[top]], 0
        while comp.any():
            reach += 1
            comp = (m.block @ comp) % p
        cand = (reach + 1, -top)
        if best is None or cand > best:
            best = cand
    length, negtop = best
    top = -negtop
    bottom = top - length + 1
    start = pf.zeros(m.total_dim, m.dims[top - 1])  # the basis at top
    start[m.offsets[top - 1]:m.offsets[top]] = pf.eye(m.dims[top - 1])
    comp = start
    for _ in range(length - 1):
        comp = (m.block @ comp) % p
    # lexicographically first vector with nonzero composite image at `bottom`
    gen = None
    for v in pf.enumerate_vectors(m.dims[top - 1], p):
        if np.any((comp @ v) % p):
            gen = v
            break
    if gen is None:
        raise ArithmeticError("no generator with claimed reach (bug)")
    piece = interval_module(m.presentation, m.field, bottom, top)
    # the generator and its images down to `bottom`: the column of vertex
    # top - k is the k-th image
    block = pf.zeros(m.total_dim, length)
    cur = start @ gen
    for k in range(length):
        block[:, length - 1 - k] = cur
        cur = (m.block @ cur) % p
    incl = Morphism._make(piece, m, block)
    # retraction exists because the generated uniserial has maximal length;
    # the whole block matrices stand in for the vectorized maps, as the
    # extra coordinates are zero in every column and in the right side
    basis = hom_space(m, piece)
    if basis:
        mat = np.stack([incl.then(h).block.ravel() for h in basis], axis=1)
        coeff = pf.solve(mat, pf.eye(length).reshape(-1, 1), p)
    else:
        coeff = None
    if coeff is None:
        raise ArithmeticError("maximal uniserial summand did not split (bug)")
    retr = Morphism._make(m, piece, np.tensordot(
        coeff[:, 0], np.stack([h.block for h in basis]), 1) % p)
    return (bottom, top), incl, retr


def decompose(m: Module) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Krull-Schmidt decomposition via the serial fast path: the intervals
    of m's summands in sorted order, and the block matrix of an iso onto m
    from the direct sum of their interval modules, laid out as direct_sum
    lays it out.

    Repeatedly splits off a uniserial summand generated by a top element
    of maximal reach, records the columns of its inclusion into m, and
    goes on in the kernel of its retraction, a complement.
    """
    p = m.field.p
    items: list[tuple[tuple[int, int], Module, np.ndarray]] = []
    sub, into_m = m, pf.eye(m.total_dim)
    while not sub.is_zero:
        iv, incl, retr = _split_top_generator(sub)
        items.append((iv, incl.source, (into_m @ incl.block) % p))
        sub, kincl = kernel(retr)
        into_m = (into_m @ kincl.block) % p
    items.sort(key=lambda it: it[0])
    _, places = layout(m.presentation.n, (piece.dims for _, piece, _ in items))
    fwd = pf.zeros(m.total_dim, m.total_dim)
    for (_, _, cols), at in zip(items, places):
        fwd[:, at] = cols
    return [iv for iv, _, _ in items], fwd
