"""Interval combinatorics for the bound linear Nakayama algebra.

Indecomposables are interval modules [a, b] (support a..b, top at b, so
the stacked display of [3, 5] is 5/4/3).  Hom spaces between intervals
are at most one-dimensional with a canonical generator, which turns all
category-level questions into small exact linear algebra.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass

import numpy as np

from . import primefield as pf
from . import repcore as rc
from .repcore import FieldChar, Module, Morphism, QuiverPresentation, SES


@dataclass(frozen=True, order=True, slots=True)
class IndecId:
    """Interval [a, b]; display forms "[a,b]" and stacked "b/…/a"."""

    a: int
    b: int

    def __post_init__(self):
        if not (1 <= self.a <= self.b):
            raise ValueError(f"bad interval [{self.a},{self.b}]")

    @property
    def dim(self) -> int:
        return self.b - self.a + 1

    def as_interval(self) -> str:
        return f"[{self.a},{self.b}]"

    def as_stack(self) -> str:
        return "/".join(str(v) for v in range(self.b, self.a - 1, -1))

    def __str__(self):
        return self.as_interval()

    def dual(self, n: int) -> "IndecId":
        """D[a, b] = [n+1-b, n+1-a] over the opposite algebra."""
        return IndecId(n + 1 - self.b, n + 1 - self.a)

    @staticmethod
    def parse(text: str) -> "IndecId":
        if not isinstance(text, str):
            raise ValueError(f"an interval must be a string, got {text!r}")
        s = text.strip()
        m = re.fullmatch(r"\[\s*(\d+)\s*,\s*(\d+)\s*\]", s)
        if m:
            return IndecId(int(m.group(1)), int(m.group(2)))
        if re.fullmatch(r"\d+(\s*/\s*\d+)*", s):
            verts = [int(t) for t in s.split("/")]
            if verts != list(range(verts[0], verts[0] - len(verts), -1)):
                raise ValueError(f"stacked form must descend by 1: {text!r}")
            return IndecId(verts[-1], verts[0])
        raise ValueError(f"cannot parse interval {text!r}")


def basis_position(o: "Obj", k: int, v: int) -> int:
    """The position of summand o.ids[k] at vertex v in the basis of
    realize(o): vertex by vertex, and at each vertex the summands there in
    order."""
    below = sum(max(0, min(z.b, v - 1) - z.a + 1) for z in o.ids)
    return below + sum(z.a <= v <= z.b for z in o.ids[:k])


@dataclass(frozen=True, slots=True)
class Obj:
    """Formal finite multiset of indecomposables; empty means zero object."""

    ids: tuple[IndecId, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(sorted(self.ids)))

    @staticmethod
    def of(*ids: IndecId) -> "Obj":
        return Obj(tuple(ids))

    @staticmethod
    def multisets(ids, mult: int, dim_cap: int,
                  max_summands: int | None = None) -> list["Obj"]:
        """Every multiset over `ids` with each id at most `mult` times, at
        most `max_summands` summands and total dimension at most `dim_cap`,
        ascending by (total_dim, ids): the empty one first, none at all
        when dim_cap < 0."""
        ids = sorted(ids)
        found = [(0, ())] if dim_cap >= 0 else []

        def extend(start, cur, dim):
            if max_summands is not None and len(cur) >= max_summands:
                return
            for k in range(start, len(ids)):
                x = ids[k]
                if dim + x.dim <= dim_cap and cur.count(x) < mult:
                    found.append((dim + x.dim, cur + (x,)))
                    extend(k, cur + (x,), dim + x.dim)

        extend(0, (), 0)
        return [Obj(c) for _, c in sorted(found)]

    @property
    def is_zero(self) -> bool:
        return not self.ids

    @property
    def total_dim(self) -> int:
        return sum(i.dim for i in self.ids)

    def multiset(self) -> dict[IndecId, int]:
        out: dict[IndecId, int] = {}
        for i in self.ids:
            out[i] = out.get(i, 0) + 1
        return out

    def dual(self, n: int) -> "Obj":
        return Obj(tuple(i.dual(n) for i in self.ids))

    def summands_in(self, ids: frozenset[IndecId] | set[IndecId]) -> bool:
        return all(i in ids for i in self.ids)

    def display(self) -> str:
        if not self.ids:
            return "0"
        return " + ".join(i.as_stack() for i in self.ids)

    def __str__(self):
        if not self.ids:
            return "0"
        return " + ".join(i.as_interval() for i in self.ids)


class CategoryCtx:
    """Immutable context for one algebra: indecomposables and Hom/Ext tables."""

    def __init__(self, presentation: QuiverPresentation, fieldc: FieldChar):
        self.presentation = presentation
        self.field = fieldc
        self.indecs: tuple[IndecId, ...] = tuple(
            IndecId(a, b)
            for a in range(1, presentation.n + 1)
            for b in range(a, presentation.n + 1)
            if presentation.admissible(a, b)
        )
        self._index = {x: i for i, x in enumerate(self.indecs)}
        self.projectives: tuple[IndecId, ...] = tuple(sorted(
            IndecId(presentation.proj_bottom(b), b) for b in range(1, presentation.n + 1)))
        self.injectives: tuple[IndecId, ...] = tuple(sorted(
            IndecId(a, presentation.inj_top(a)) for a in range(1, presentation.n + 1)))
        self._hom = {x: {y: 1 if (x.a <= y.a <= x.b <= y.b) else 0
                         for y in self.indecs} for x in self.indecs}
        self._ext = {x: {y: self._ext_by_syzygy(x, y) for y in self.indecs}
                     for x in self.indecs}
        self._cache: dict[tuple, object] = {}
        self._op: CategoryCtx | None = None
        self._op_of: weakref.ref | None = None

    @property
    def op(self) -> "CategoryCtx":
        """The category of the opposite algebra, where D lands; cached, so
        ctx.op.op is ctx.  The way back is a weak reference, so the pair is
        freed by reference counting."""
        base = self._op_of() if self._op_of is not None else None
        if base is not None:
            return base
        if self._op is None:
            self._op = CategoryCtx(self.presentation.op, self.field)
            self._op._op_of = weakref.ref(self)
        return self._op

    def cached(self, key, build):
        """The value cached under key, from build() on first use.  Keys are
        tuples that start with the name of what they cache; they live as
        long as the context.  Modules and morphisms are read-only from
        construction, so a cached value is stored as it is."""
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = build()
        return hit

    # -- censuses -------------------------------------------------------

    def check_id(self, x: IndecId) -> IndecId:
        if x not in self._index:
            raise ValueError(self._unknown(x))
        return x

    def index(self, x: IndecId) -> int:
        """The position of x in `indecs`."""
        return self._index[self.check_id(x)]

    def projective_cover_id(self, x: IndecId) -> IndecId:
        return IndecId(self.presentation.proj_bottom(x.b), x.b)

    def syzygy_id(self, x: IndecId) -> IndecId | None:
        """First syzygy of [a,b] inside its projective cover, None if projective."""
        p_bottom = self.presentation.proj_bottom(x.b)
        if p_bottom == x.a:
            return None
        return IndecId(p_bottom, x.a - 1)

    # -- hom / ext ------------------------------------------------------

    def hom_dim(self, x: IndecId, y: IndecId) -> int:
        try:
            return self._hom[x][y]
        except KeyError:
            raise ValueError(self._unknown(x, y)) from None

    def ext_dim(self, x: IndecId, y: IndecId) -> int:
        try:
            return self._ext[x][y]
        except KeyError:
            raise ValueError(self._unknown(x, y)) from None

    def _unknown(self, *ids: IndecId) -> str:
        bad = next(x for x in ids if x not in self._index)
        return f"{bad} is not an indecomposable of this algebra"

    def _ext_by_syzygy(self, x: IndecId, y: IndecId) -> int:
        """dim coker(Hom(P(b), y) -> Hom(syzygy(x), y)) for x = [a, b]."""
        omega = self.syzygy_id(x)
        if omega is None:
            return 0
        hom_omega = 1 if (omega.a <= y.a <= omega.b <= y.b) else 0
        if not hom_omega:
            return 0
        pcov = self.projective_cover_id(x)
        hom_p = 1 if (pcov.a <= y.a <= pcov.b <= y.b) else 0
        if not hom_p:
            return 1
        # restriction of the canonical P(b) -> y to the syzygy is nonzero
        # exactly when the overlap [y.a, omega.b] is nonempty, which holds
        # here since y.a <= omega.b; so the cokernel vanishes
        return 0

    def compose_canonical(self, x: IndecId, y: IndecId, z: IndecId) -> int:
        """Composition constant of canonical maps x->y->z: 1 if the
        composite is the canonical x->z map, else 0."""
        if not (self.hom_dim(x, y) and self.hom_dim(y, z)):
            raise ValueError("canonical maps do not exist")
        return 1 if z.a <= x.b else 0

    def canonical_hom(self, x: IndecId, y: IndecId) -> Morphism | None:
        """Quotient to [y.a, x.b] followed by inclusion into y, or None:
        a 1 from vertex v of x to vertex v of y for y.a <= v <= x.b.
        Cached, and validated once when built."""
        if not self.hom_dim(x, y):
            return None
        return self.cached(("canonical_hom", x, y), lambda: Morphism._make(
            self.realize_id(x), self.realize_id(y),
            np.eye(y.dim, x.dim, y.a - x.a, dtype=np.int64)).validate())

    # -- realization ----------------------------------------------------

    def realize_id(self, x: IndecId) -> Module:
        return self.realize(Obj.of(self.check_id(x)))

    def realize(self, o: Obj) -> Module:
        """Canonical module for an Obj: interval summands in sorted order."""
        def build():
            if not o.ids:
                return rc.zero_module(self.presentation, self.field)
            parts = [rc.interval_module(self.presentation, self.field, i.a, i.b)
                     for i in o.ids]
            return rc.direct_sum(parts, self.presentation, self.field)
        return self.cached(("realize", o.ids), build)

    def _check_module(self, m: Module) -> None:
        if m.presentation != self.presentation or m.field != self.field:
            raise rc.ContextMismatchError("module lives over another category")

    def identify(self, m: Module) -> Obj:
        """Interval multiset of a module, via composite-map ranks; cached
        by module content."""
        self._check_module(m)

        def build():
            counts = rc.interval_multiset(m)
            for (a, b) in counts:
                if not self.presentation.admissible(a, b):
                    raise ValueError(f"module contains inadmissible interval [{a},{b}]")
            return self._obj(iv for iv, c in counts.items() for _ in range(c))
        return self.cached(("identify", m.key), build)

    def _obj(self, intervals) -> Obj:
        """The Obj of (a, b) intervals, made of this context's own ids, so
        that cached objects share them."""
        return Obj(tuple(self.indecs[self.index(IndecId(a, b))] for a, b in intervals))

    def canonical_iso_from(self, m: Module) -> tuple[Obj, Morphism, Morphism]:
        """(obj, iso: realize(obj) -> m, inverse iso).  The splitting is
        cached by module content, the iso and its inverse, found by one
        elimination, packed as uint8 bytes; each call rebuilds the isos
        onto the caller's own m."""
        self._check_module(m)

        def build():
            intervals, fwd = rc.decompose(m)
            bwd = pf.inv(fwd, self.field.p)
            return self._obj(intervals), np.stack([fwd, bwd]).astype(np.uint8).tobytes()

        obj, packed = self.cached(("split", m.key), build)
        canon = self.realize(obj)
        t = m.total_dim
        fwd, bwd = np.frombuffer(packed, np.uint8).astype(np.int64).reshape(2, t, t)
        return obj, Morphism._make(canon, m, fwd), Morphism._make(m, canon, bwd)

    def _dual_order(self, o: Obj) -> np.ndarray:
        """Positions in the basis of realize(o) of the basis of
        realize(D o) over self.op: the vertices from n down to 1, and at
        each the summands in the order of their duals.  Cached, read-only."""
        def build():
            n = self.presentation.n
            blocks, start = [], 0
            for v in range(1, n + 1):
                here = [x for x in o.ids if x.a <= v <= x.b]
                blocks.append([start + k for k in sorted(range(len(here)),
                                                         key=lambda k: here[k].dual(n))])
                start += len(here)
            order = np.array([i for b in reversed(blocks) for i in b], dtype=np.intp)
            order.flags.writeable = False
            return order
        return self.cached(("dual_order", o.ids), build)

    def dual_morphism(self, src: Obj, dst: Obj, mor: Morphism) -> Morphism:
        """D of mor: realize(src) -> realize(dst), conjugated by the
        summand permutation so that it runs exactly between the canonical
        realizations of D(dst) and D(src) over self.op."""
        n = self.presentation.n
        return Morphism._make(self.op.realize(dst.dual(n)), self.op.realize(src.dual(n)),
                              mor.block.T[self._dual_order(src)[:, None],
                                          self._dual_order(dst)])

    # -- hom bases between canonical objects ----------------------------

    def hom_basis(self, src: Obj, dst: Obj) -> list[Morphism]:
        """The canonical maps x_i -> y_j with Hom nonzero, each placed in
        its block of Hom(src, dst), ordered by the position of their entry
        at vertex x_i.b in vectorized order (vertex, row of y_j, column of
        x_i): the basis `rc.hom_space` finds, with no elimination."""
        def build():
            a, b = self.realize(src), self.realize(dst)
            parts_a = [self.realize_id(x) for x in src.ids]
            parts_b = [self.realize_id(y) for y in dst.ids]
            found = sorted(
                ((x.b, basis_position(dst, j, x.b), basis_position(src, i, x.b)), i, j)
                for i, x in enumerate(src.ids) for j, y in enumerate(dst.ids)
                if self.hom_dim(x, y))
            return [rc.block_morphism(a, b, parts_a, parts_b,
                                      {(j, i): self.canonical_hom(src.ids[i], dst.ids[j])})
                    for _, i, j in found]
        return self.cached(("hom_basis", src.ids, dst.ids), build)

    # -- extensions -----------------------------------------------------

    def ext_matrix_support(self, third: Obj, first: Obj) -> list[tuple[int, int]]:
        """Index pairs (i, j) with Ext(third[i], first[j]) nonzero."""
        out = []
        for i, x in enumerate(third.ids):
            for j, y in enumerate(first.ids):
                if self.ext_dim(x, y):
                    out.append((i, j))
        return out

    def ses_for_class(self, third: Obj, first: Obj,
                      coeffs: dict[tuple[int, int], int]) -> SES:
        """Realize the extension class sum(coeffs[i,j] * e_ij) as a short
        exact sequence first -> E -> third, by pushout along the projective
        presentation of `third`.  coeffs keys index (third summand, first
        summand); entries outside the Ext support must be absent or zero.
        Cached per (third, first, class), the class reduced mod p.
        """
        p = self.field.p
        support = set(self.ext_matrix_support(third, first))
        for key, val in coeffs.items():
            if val % p and key not in support:
                raise ValueError(f"coefficient at {key} is outside the Ext support")
        cls = tuple(sorted((key, val % p) for key, val in coeffs.items() if val % p))
        return self.cached(("ses", third.ids, first.ids, cls),
                           lambda: self._pushout_ses(third, first, dict(cls)))

    def _pushout_ses(self, third: Obj, first: Obj,
                     coeffs: dict[tuple[int, int], int]) -> SES:
        pres, fld = self.presentation, self.field
        p = fld.p
        y_mod = self.realize(first)
        if third.is_zero:
            e = y_mod
            return SES(rc.identity(e), rc.zero_morphism(e, self.realize(third)))
        covers = [self.projective_cover_id(x) for x in third.ids]
        omegas = [(i, o) for i, o in enumerate(map(self.syzygy_id, third.ids))
                  if o is not None]
        o_parts = [self.realize_id(o) for _, o in omegas]
        py_parts = [self.realize_id(x) for x in covers + list(first.ids)]
        omod = rc.direct_sum(o_parts, pres, fld)
        pmod = rc.direct_sum(py_parts[:len(covers)], pres, fld)
        x_mod = self.realize(third)
        py = rc.direct_sum([pmod, y_mod], pres, fld)

        # h = (iota, -phi): omega -> P + first, with iota the canonical
        # inclusion summand by summand and phi the canonical components
        # scaled by the class
        blocks = {}
        for k, (i, o) in enumerate(omegas):
            blocks[i, k] = self.canonical_hom(o, covers[i])
            for j, y in enumerate(first.ids):
                c = coeffs.get((i, j), 0) % p
                if c:
                    can = self.canonical_hom(o, y)
                    if can is None:
                        raise ValueError("class generator missing (bug)")
                    blocks[len(covers) + j, k] = can.scale(p - c)
        h = rc.block_morphism(omod, py, o_parts, py_parts, blocks)
        e_mod, q = rc.cokernel(h)
        # v: E -> third, descends from (cover, 0): P + first -> third
        cover0 = rc.block_morphism(
            py, x_mod, py_parts, [self.realize_id(x) for x in third.ids],
            {(i, i): self.canonical_hom(ci, x)
             for i, (ci, x) in enumerate(zip(covers, third.ids))})
        vblock = pf.solve_left(q.block, cover0.block, p)
        if vblock is None:
            raise ArithmeticError("pushout projection failed (bug)")
        v = Morphism._make(e_mod, x_mod, vblock).validate()
        # u: first -> E is q on the columns of the summand `first`
        u = q.block[:, rc.layout(pres.n, [pmod.dims, y_mod.dims])[1][1]]
        return SES(Morphism._make(y_mod, e_mod, u).validate(), v)

    def ones_class_middle(self, third: Obj, first: Obj) -> Obj:
        """The middle term of `ses_for_class(third, first, ...)` with every
        coefficient 1, in closed form: no module is built.  One end is a
        single indecomposable b, and Ext between b and each summand of the
        other end is 1.

        Proof sketch for b = [a, t] the third term and Y the first terms
        (many thirds and one first is the image of this case under D).
        Hom and Ext between intervals are 0 or 1 (Auslander-Reiten-Smalo,
        ch. VI), and Ext(b, y) = 1 says y = [c, d] with c <= a-1 <= d < t,
        so every y contains a-1.  Then Hom(y, y') is nonzero iff c <= c'
        and d <= d', and the canonical y -> y' composed with the canonical
        Omega(b) -> y is the canonical Omega(b) -> y'.  So if y' receives a
        map from another member y, the automorphism id - iota of the sum of
        Y (iota: y -> y') clears the y' part of the class: y' splits off
        (of two equal members, one copy stays).  The members left form a
        chain c_1 < ... < c_k, d_1 > ... > d_k.  In the pushout the basis
        of P(t) at [a, t] steps at a-1 into the sum of the y_i; with that
        sum as a new basis below a it spans [c_1, t], and what remains is
        the same picture with the top [a, d_1] (basis y_1 - P(t)) stepping
        into minus the sum of y_2, ..., y_k.  By induction the middle is
        [c_1, t] + [c_2, d_1] + ... + [c_k, d_(k-1)] + [a, d_k] plus the
        split members, where [a, d_k] is empty when d_k = a-1.
        """
        if any(not self.ext_dim(x, y) for x in third.ids for y in first.ids):
            raise ValueError("every class cell needs Ext 1")
        n = self.presentation.n
        if len(third.ids) == 1:
            b, ys, back = third.ids[0], first.ids, lambda x: x
        elif len(first.ids) == 1:
            b, ys = first.ids[0].dual(n), [x.dual(n) for x in third.ids]
            back = lambda x: x.dual(n)
        else:
            raise ValueError("one end must be a single indecomposable")
        top, mids = b.b, []
        for y in sorted(ys):
            if y.b < top:  # no earlier member maps to y: glue it in
                mids.append(IndecId(y.a, top))
                top = y.b
            else:
                mids.append(y)
        if top >= b.a:
            mids.append(IndecId(b.a, top))
        return Obj(tuple(map(back, mids)))


def generate(presentation: QuiverPresentation, fieldc: FieldChar) -> CategoryCtx:
    """Build the category context."""
    return CategoryCtx(presentation, fieldc)
