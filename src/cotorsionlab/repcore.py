"""Exact representation arithmetic for a bound linear quiver over F_p.

The quiver has vertices 1..n and arrows v+1 -> v.  A relation (a, b) says
the composite of arrows from vertex b down to vertex a is zero.  Modules
store one matrix per arrow; morphisms one matrix per vertex.  Everything
is immutable after construction and validated eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class Module:
    """A representation: dims[v] per vertex, one matrix per arrow v+1 -> v.

    ``dims`` is indexed 0..n-1 for vertices 1..n; ``maps[i]`` has shape
    (dims[i], dims[i+1]).
    """

    __slots__ = ("presentation", "field", "dims", "maps", "_key")

    def __init__(self, presentation: QuiverPresentation, fieldc: FieldChar,
                 dims, maps, validate: bool = True):
        self.presentation = presentation
        self.field = fieldc
        self.dims = tuple(int(d) for d in dims)
        p = fieldc.p
        if len(self.dims) != presentation.n:
            raise ValueError("dimension vector has wrong length")
        if any(d < 0 for d in self.dims):
            raise ValueError("dimensions must be nonnegative")
        mats = []
        for i in range(presentation.n - 1):
            m = pf.asmat(maps[i], p)
            if m.shape != (self.dims[i], self.dims[i + 1]):
                raise ValueError(
                    f"arrow {i + 2}->{i + 1} matrix has shape {m.shape}, "
                    f"expected {(self.dims[i], self.dims[i + 1])}"
                )
            mats.append(m)
        self.maps = tuple(mats)
        if validate:
            self._check_relations()

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
        """Content key: dims plus the arrow matrices as uint8 bytes (p <= 97
        fits in a byte); computed once."""
        try:
            return self._key
        except AttributeError:
            self._key = (self.dims, b"".join(m.astype(np.uint8).tobytes()
                                             for m in self.maps))
            return self._key

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def composite(self, top: int, bottom: int) -> np.ndarray:
        """Matrix of the composite arrow map from vertex `top` to `bottom`."""
        if not (1 <= bottom <= top <= self.presentation.n):
            raise ValueError("need 1 <= bottom <= top <= n")
        p = self.field.p
        comp = pf.eye(self.dims[top - 1])
        for v in range(top - 1, bottom - 1, -1):
            comp = (self.maps[v - 1] @ comp) % p
        return comp

    def dual(self) -> "Module":
        """D = Hom_k(-, k): a module over the opposite algebra."""
        return Module(self.presentation.op, self.field, self.dims[::-1],
                      [m.T for m in reversed(self.maps)], validate=False)

    def __repr__(self):
        return f"Module(dims={self.dims})"


def zero_module(presentation: QuiverPresentation, fieldc: FieldChar) -> Module:
    dims = [0] * presentation.n
    maps = [pf.zeros(0, 0) for _ in range(presentation.n - 1)]
    return Module(presentation, fieldc, dims, maps, validate=False)


def interval_module(presentation: QuiverPresentation, fieldc: FieldChar,
                    a: int, b: int) -> Module:
    """The interval module with support a..b and identity arrow maps."""
    if not presentation.admissible(a, b):
        raise ValueError(f"interval [{a},{b}] is not admissible")
    dims = [1 if a <= v <= b else 0 for v in range(1, presentation.n + 1)]
    maps = []
    for i in range(presentation.n - 1):
        maps.append(pf.eye(1) if (dims[i] and dims[i + 1]) else pf.zeros(dims[i], dims[i + 1]))
    return Module(presentation, fieldc, dims, maps)


def _same_context(x, y):
    if x.presentation != y.presentation or x.field != y.field:
        raise ContextMismatchError("operands live over different categories")


class Morphism:
    """Vertex-wise matrices commuting with all arrow maps."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: Module, target: Module, comps, validate: bool = True):
        _same_context(source, target)
        self.source = source
        self.target = target
        p = source.field.p
        mats = []
        for v in range(source.presentation.n):
            m = pf.asmat(comps[v], p)
            if m.shape != (target.dims[v], source.dims[v]):
                raise ValueError(
                    f"component at vertex {v + 1} has shape {m.shape}, "
                    f"expected {(target.dims[v], source.dims[v])}"
                )
            mats.append(m)
        self.comps = tuple(mats)
        if validate:
            self._check_naturality()

    def _check_naturality(self):
        p = self.source.field.p
        for i in range(self.source.presentation.n - 1):
            lhs = (self.target.maps[i] @ self.comps[i + 1]) % p
            rhs = (self.comps[i] @ self.source.maps[i]) % p
            if lhs.size and np.any((lhs - rhs) % p):
                raise ValueError(f"naturality fails at arrow {i + 2}->{i + 1}")

    @staticmethod
    def _make(source: "Module", target: "Module", comps) -> "Morphism":
        """Trusted constructor: comps must already be reduced mod p and
        naturality must hold by construction."""
        m = Morphism.__new__(Morphism)
        m.source = source
        m.target = target
        m.comps = tuple(comps)
        return m

    def validate(self) -> "Morphism":
        """Re-check shapes, reduction, and naturality; returns self."""
        Morphism(self.source, self.target, self.comps)
        return self

    @property
    def p(self) -> int:
        return self.source.field.p

    def is_zero(self) -> bool:
        return all(not c.size or not np.any(c) for c in self.comps)

    def is_injective(self) -> bool:
        return all(pf.rank(c, self.p) == self.source.dims[v]
                   for v, c in enumerate(self.comps))

    def is_surjective(self) -> bool:
        return all(pf.rank(c, self.p) == self.target.dims[v]
                   for v, c in enumerate(self.comps))

    def is_iso(self) -> bool:
        return self.source.dims == self.target.dims and self.is_injective()

    def then(self, other: "Morphism") -> "Morphism":
        """self followed by other (other @ self)."""
        if other.source is not self.target and other.source.dims != self.target.dims:
            raise ContextMismatchError("composition endpoints do not match")
        p = self.p
        comps = [(other.comps[v] @ self.comps[v]) % p
                 for v in range(self.source.presentation.n)]
        return Morphism._make(self.source, other.target, comps)

    def add(self, other: "Morphism") -> "Morphism":
        p = self.p
        comps = [(a + b) % p for a, b in zip(self.comps, other.comps)]
        return Morphism._make(self.source, self.target, comps)

    def scale(self, c: int) -> "Morphism":
        p = self.p
        comps = [(c * m) % p for m in self.comps]
        return Morphism._make(self.source, self.target, comps)

    def dual(self) -> "Morphism":
        """D(f): D(target) -> D(source), componentwise transposes."""
        return Morphism._make(self.target.dual(), self.source.dual(),
                              [c.T for c in reversed(self.comps)])

    def vectorize(self) -> np.ndarray:
        if not self.comps:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([c.reshape(-1) for c in self.comps])

    def __repr__(self):
        return f"Morphism({self.source.dims} -> {self.target.dims})"


def identity(m: Module) -> Morphism:
    return Morphism._make(m, m, [pf.eye(d) for d in m.dims])


def zero_morphism(source: Module, target: Module) -> Morphism:
    return Morphism._make(source, target,
                          [pf.zeros(target.dims[v], source.dims[v])
                           for v in range(source.presentation.n)])


def devectorize(vec: np.ndarray, source: Module, target: Module) -> Morphism:
    comps = []
    ofs = 0
    for v in range(source.presentation.n):
        size = target.dims[v] * source.dims[v]
        comps.append(vec[ofs:ofs + size].reshape(target.dims[v], source.dims[v]))
        ofs += size
    return Morphism._make(source, target, comps)


def hom_space(m: Module, n: Module) -> list[Morphism]:
    """Basis of Hom(m, n) from the nullspace of the naturality system.

    Unknowns are ordered vertex-major, row-major inside each component;
    the basis order is the deterministic free-column order of the solver.
    """
    _same_context(m, n)
    p = m.field.p
    nv = m.presentation.n
    sizes = [n.dims[v] * m.dims[v] for v in range(nv)]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    rows = []
    for i in range(nv - 1):
        # constraint: n.maps[i] @ F_{i+1} - F_i @ m.maps[i] = 0
        r = n.dims[i] * m.dims[i + 1]
        if r == 0:
            continue
        block = pf.zeros(r, total)
        if sizes[i + 1]:
            block[:, offsets[i + 1]:offsets[i + 2]] = np.kron(
                n.maps[i], pf.eye(m.dims[i + 1]))
        if sizes[i]:
            block[:, offsets[i]:offsets[i + 1]] = (
                block[:, offsets[i]:offsets[i + 1]]
                - np.kron(pf.eye(n.dims[i]), m.maps[i].T))
        rows.append(block % p)
    if rows:
        system = np.vstack(rows)
        basis = pf.nullspace(system, p)
    else:
        basis = pf.eye(total)
    return [devectorize(basis[:, j], m, n) for j in range(basis.shape[1])]


def hom_dim_brute(m: Module, n: Module) -> int:
    return len(hom_space(m, n))


def _restrict(m: Module, bases) -> Module | None:
    """The subrepresentation of m spanned by one column basis per vertex,
    its arrow maps solved from bases[i] X = maps[i] @ bases[i+1]; None if
    the arrows leave the span."""
    p = m.field.p
    maps = []
    for i in range(m.presentation.n - 1):
        sol = pf.solve(bases[i], (m.maps[i] @ bases[i + 1]) % p, p)
        if sol is None:
            return None
        maps.append(sol)
    return Module(m.presentation, m.field, [b.shape[1] for b in bases], maps,
                  validate=False)


def kernel(f: Morphism) -> tuple[Module, Morphism]:
    """Kernel submodule with its inclusion; arrow maps are restrictions."""
    bases = [pf.nullspace(c, f.p) for c in f.comps]
    k = _restrict(f.source, bases)
    if k is None:
        raise ArithmeticError("kernel is not a subrepresentation (bug)")
    return k, Morphism(k, f.source, bases, validate=False)


def cokernel(f: Morphism) -> tuple[Module, Morphism]:
    """Cokernel quotient with its projection."""
    p = f.p
    pres = f.target.presentation
    qs, sections = [], []
    dims = []
    for v in range(pres.n):
        q, s = pf.complement_projector(f.comps[v], f.target.dims[v], p)
        qs.append(q)
        sections.append(s)
        dims.append(q.shape[0])
    maps = []
    for i in range(pres.n - 1):
        maps.append((qs[i] @ f.target.maps[i] @ sections[i + 1]) % p)
    c = Module(pres, f.target.field, dims, maps, validate=False)
    proj = Morphism(f.target, c, qs, validate=False)
    return c, proj


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


def direct_sum(modules: list[Module], presentation: QuiverPresentation,
               fieldc: FieldChar) -> Module:
    """Block-diagonal direct sum.  A map out of (into) it restricts to a
    summand as a column (row) slice of its components."""
    n = presentation.n
    dims = [sum(m.dims[v] for m in modules) for v in range(n)]
    maps = []
    for i in range(n - 1):
        blocks = [m.maps[i] for m in modules]
        mat = pf.zeros(dims[i], dims[i + 1])
        ro = co = 0
        for b in blocks:
            mat[ro:ro + b.shape[0], co:co + b.shape[1]] = b
            ro += b.shape[0]
            co += b.shape[1]
        maps.append(mat)
    return Module(presentation, fieldc, dims, maps, validate=False)


def block_morphism(source: Module, target: Module, source_parts, target_parts,
                   blocks: dict[tuple[int, int], Morphism]) -> Morphism:
    """The map source -> target whose block from source_parts[i] to
    target_parts[j] is blocks[j, i]; absent blocks are zero.  Source and
    target are laid out as direct_sum lays out their parts."""
    n = source.presentation.n
    rows = np.cumsum([[0] * n] + [m.dims for m in target_parts], axis=0)
    cols = np.cumsum([[0] * n] + [m.dims for m in source_parts], axis=0)
    if tuple(rows[-1]) != target.dims or tuple(cols[-1]) != source.dims:
        raise ValueError("parts do not add up to the source and target")
    comps = [pf.zeros(target.dims[v], source.dims[v]) for v in range(n)]
    for (j, i), f in blocks.items():
        for v in range(n):
            comps[v][rows[j, v]:rows[j + 1, v], cols[i, v]:cols[i + 1, v]] = f.comps[v]
    return Morphism._make(source, target, comps)


def submodules(m: Module, dim_cap: int = 24):
    """Every subrepresentation exactly once, with its inclusion.

    Subspaces are chosen from vertex n downward; each choice must contain
    the arrow image of the previous one.  Deterministic DFS order.
    """
    if m.total_dim > dim_cap:
        raise EnumerationRefusedError(m.total_dim, dim_cap)
    p = m.field.p
    n = m.presentation.n

    def build(v: int, chosen: list[np.ndarray]):
        # chosen holds bases for vertices v+1 .. n (in reverse order)
        if v == 0:
            bases = list(reversed(chosen))
            sub = _restrict(m, bases)
            if sub is not None:
                yield sub, Morphism(sub, m, bases, validate=False)
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
    """ranks[u-1][w-1] = rank of the composite map M_u -> M_w for w <= u."""
    p = m.field.p
    n = m.presentation.n
    ranks = np.zeros((n, n), dtype=np.int64)
    for u in range(1, n + 1):
        comp = pf.eye(m.dims[u - 1])
        ranks[u - 1][u - 1] = m.dims[u - 1]
        for w in range(u - 1, 0, -1):
            comp = (m.maps[w - 1] @ comp) % p
            ranks[u - 1][w - 1] = pf.rank(comp, p)
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


@dataclass
class Decomposition:
    """Split of a module into interval pieces with explicit maps.

    incls[k] . projs[k] are orthogonal idempotents summing to the identity;
    pieces are canonical interval modules sorted by interval.
    """

    module: Module
    intervals: list[tuple[int, int]]
    pieces: list[Module]
    incls: list[Morphism]
    projs: list[Morphism]

    def multiset(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for iv in self.intervals:
            out[iv] = out.get(iv, 0) + 1
        return out


def _split_top_generator(m: Module) -> tuple[tuple[int, int], Morphism, Morphism]:
    """Find a maximal-reach top generator and split off the uniserial
    summand it generates.  Returns (interval, incl, retraction)."""
    p = m.field.p
    n = m.presentation.n
    best = None  # (length, top_vertex)
    for top in range(1, n + 1):
        if m.dims[top - 1] == 0:
            continue
        comp = pf.eye(m.dims[top - 1])
        reach = 0
        for w in range(top - 1, 0, -1):
            nxt = (m.maps[w - 1] @ comp) % p
            if not nxt.size or not np.any(nxt):
                break
            comp = nxt
            reach += 1
        cand = (reach + 1, -top)
        if best is None or cand > best:
            best = cand
    length, negtop = best
    top = -negtop
    bottom = top - length + 1
    # lexicographically first vector with nonzero composite image at `bottom`
    comp = m.composite(top, bottom)
    gen = None
    for v in pf.enumerate_vectors(m.dims[top - 1], p):
        if np.any((comp @ v) % p):
            gen = v
            break
    if gen is None:
        raise ArithmeticError("no generator with claimed reach (bug)")
    piece = interval_module(m.presentation, m.field, bottom, top)
    cols = []
    cur = gen.reshape(-1, 1)
    for v in range(top, bottom - 1, -1):
        cols.append((v, cur))
        if v > bottom:
            cur = (m.maps[v - 2] @ cur) % p
    comps = []
    for v in range(1, n + 1):
        found = [c for vv, c in cols if vv == v]
        comps.append(found[0] if found else pf.zeros(m.dims[v - 1], 0))
    incl = Morphism(piece, m, comps, validate=False)
    # retraction exists because the generated uniserial has maximal length
    basis = hom_space(m, piece)
    if basis:
        mat = np.stack([incl.then(h).vectorize() for h in basis], axis=1)
        target = identity(piece).vectorize().reshape(-1, 1)
        coeff = pf.solve(mat % p, target % p, p)
    else:
        coeff = None
    if coeff is None:
        raise ArithmeticError("maximal uniserial summand did not split (bug)")
    basis_mat = np.stack([h.vectorize() for h in basis], axis=1)
    retr = devectorize((basis_mat @ coeff[:, 0]) % p, m, piece)
    return (bottom, top), incl, retr


def decompose(m: Module) -> Decomposition:
    """Krull-Schmidt decomposition via the serial fast path.

    Repeatedly splits off a uniserial summand generated by a top element
    of maximal reach.  Output pieces are canonical interval modules in
    sorted interval order, with inclusion/projection witnesses into m.
    """
    p = m.field.p
    items: list[tuple[tuple[int, int], Morphism, Morphism]] = []

    def rec(sub: Module, into_m: Morphism, onto_sub: Morphism):
        if sub.is_zero:
            return
        iv, incl, retr = _split_top_generator(sub)
        items.append((iv, incl.then(into_m), onto_sub.then(retr)))
        k, kincl = kernel(retr)
        # projection of sub onto the complement k:  id - incl.retr = kincl . pi
        ideal = identity(sub).add(retr.then(incl).scale(p - 1))
        pcomps = []
        for v in range(sub.presentation.n):
            sol = pf.solve(kincl.comps[v], ideal.comps[v], p)
            if sol is None:
                raise ArithmeticError("complement projection failed (bug)")
            pcomps.append(sol)
        kproj = Morphism(sub, k, pcomps, validate=False)
        rec(k, kincl.then(into_m), onto_sub.then(kproj))

    rec(m, identity(m), identity(m))
    items.sort(key=lambda it: it[0])
    return Decomposition(
        module=m,
        intervals=[it[0] for it in items],
        pieces=[it[1].source for it in items],
        incls=[it[1] for it in items],
        projs=[it[2] for it in items],
    )
