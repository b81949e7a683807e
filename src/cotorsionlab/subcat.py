"""Summand-closed subcategories and bounded decision procedures.

A Subcategory is a set of indecomposable ids (automatically closed under
summands, always implicitly containing zero).  Membership of an object Z
in X*Y (one conflation X -> Z -> Y) is decided exactly by complete
submodule enumeration of Z.  Approximation searches enumerate extension
classes instead of raw surjections: every conflation with an
indecomposable end splits into a part whose kernel/cokernel uses each
ext-supporting indecomposable at most once plus a redundant split
summand, so subsets of the ext support with all-ones class coefficients
cover the whole search space.  Their middle terms have a closed form
(`CategoryCtx.ones_class_middle`), so a search builds no module; only a
witness that is read is realized.  A failed search is therefore complete
unless the dimension cap truncated it: an approximation table is its
winners and its truncated ids.  Searches return what they cache; only
the decisions and pair verification word a verdict.

Neither kind of search depends on the twin that asks for it, so each
runs once per category context and id-set key, in `CategoryCtx.cached`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from . import repcore as rc
from .serialcat import CategoryCtx, IndecId, Obj


@dataclass(frozen=True)
class SearchBounds:
    mult: int = 2
    dim_cap: int = 24

    def __post_init__(self):
        if self.mult < 1 or self.dim_cap < 1:
            raise ValueError("bounds must be at least 1")

    def payload(self) -> dict:
        return {"mult": self.mult, "dim_cap": self.dim_cap}


@dataclass(frozen=True)
class Subcategory:
    """Summand-closed class, given by its indecomposable ids."""

    ids: frozenset[IndecId]
    name: str = ""

    @staticmethod
    def empty(name: str = "0") -> "Subcategory":
        return Subcategory(frozenset(), name)

    @staticmethod
    def everything(ctx: CategoryCtx, name: str = "mod A") -> "Subcategory":
        return Subcategory(frozenset(ctx.indecs), name)

    @staticmethod
    def projectives(ctx: CategoryCtx) -> "Subcategory":
        return Subcategory(frozenset(ctx.projectives), "proj")

    def sorted_ids(self) -> list[IndecId]:
        return sorted(self.ids)

    def contains_obj(self, o: Obj) -> bool:
        return o.summands_in(self.ids)

    def __contains__(self, x: IndecId) -> bool:
        return x in self.ids

    def display(self) -> str:
        return "{" + ", ".join(i.as_interval() for i in self.sorted_ids()) + "}"

    def dual(self, n: int) -> "Subcategory":
        return Subcategory(frozenset(x.dual(n) for x in self.ids), f"D{self.name}")


def oplus(x: Subcategory, y: Subcategory, name: str = "") -> Subcategory:
    return Subcategory(x.ids | y.ids, name or f"oplus({x.name},{y.name})")


def inter(x: Subcategory, y: Subcategory, name: str = "") -> Subcategory:
    return Subcategory(x.ids & y.ids, name or f"inter({x.name},{y.name})")


def right_perp(ctx: CategoryCtx, x: Subcategory, name: str = "") -> Subcategory:
    """Indecomposables y with Ext(u, y) = 0 for every u in x."""
    ids = frozenset(y for y in ctx.indecs
                    if all(ctx.ext_dim(u, y) == 0 for u in x.ids))
    return Subcategory(ids, name or f"rperp({x.name})")


def left_perp(ctx: CategoryCtx, x: Subcategory, name: str = "") -> Subcategory:
    ids = frozenset(y for y in ctx.indecs
                    if all(ctx.ext_dim(y, v) == 0 for v in x.ids))
    return Subcategory(ids, name or f"lperp({x.name})")


@dataclass(frozen=True, slots=True)
class Verdict:
    """Three-valued result; Fails always carries a replayable certificate.

    `exhaustive` marks negative searches whose reduced space was fully
    enumerated, so "no witness" is a definitive non-existence statement.
    """

    status: str  # "holds" | "fails" | "unknown"
    route: str = ""
    witnesses: tuple = ()
    certificate: dict | None = None
    bounds: SearchBounds | None = None
    exhaustive: bool = False
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.status not in ("holds", "fails", "unknown"):
            raise ValueError(f"bad verdict status {self.status!r}")
        if self.status == "fails" and self.certificate is None:
            raise ValueError("a failing verdict needs a certificate")

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def fails(self) -> bool:
        return self.status == "fails"

    @property
    def unknown(self) -> bool:
        return self.status == "unknown"

    def payload(self) -> dict:
        out = {"status": self.status, "route": self.route}
        if self.witnesses:
            out["witnesses"] = list(self.witnesses)
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.bounds is not None:
            out["bounds"] = self.bounds.payload()
        if self.exhaustive:
            out["exhaustive"] = True
        if self.notes:
            out["notes"] = list(self.notes)
        return out


# -- membership of a fixed object in X * Y ------------------------------


def _first_split(ctx: CategoryCtx, z: Obj, x: Subcategory, y_holds,
                 dim_cap: int) -> tuple[int, rc.SES | None]:
    """The number of submodules of z scanned and the first conflation
    X -> z -> Y found with X in add(x) and y_holds(Y), or None."""
    checked = 0
    for sub, incl in rc.submodules(ctx.realize(z), dim_cap=dim_cap):
        checked += 1
        if not x.contains_obj(ctx.identify(sub)):
            continue
        quot, proj = rc.cokernel(incl)
        if y_holds(ctx.identify(quot)):
            return checked, rc.SES(incl, proj)
    return checked, None


def star_member(ctx: CategoryCtx, z: Obj, x: Subcategory, y: Subcategory,
                dim_cap: int) -> rc.SES | None:
    """The first conflation X -> z -> Y with X in add(x) and Y in add(y),
    or None, by complete submodule enumeration.  The scan runs once per
    context and (z, X ids, Y ids, dim_cap); it caches the pair (submodules
    scanned, conflation), never None, which `cached` would read as a miss."""
    return ctx.cached(("star", z.ids, x.ids, y.ids, dim_cap),
                      lambda: _star_scan(ctx, z, x, y, dim_cap))[1]


def _star_scan(ctx: CategoryCtx, z: Obj, x: Subcategory, y: Subcategory,
               dim_cap: int) -> tuple[int, rc.SES | None]:
    for i in x.ids | y.ids:  # a bad id raises before anything is stored
        ctx.check_id(i)
    checked, ses = _first_split(ctx, z, x, y.contains_obj, dim_cap)
    if ses is not None:
        # the scan order is fixed, so a split found at one position is the
        # same conflation whichever X and Y found it: keep one copy
        ses = ctx.cached(("star split", z.ids, checked), lambda: ses)
    return checked, ses


def subcat_in_star(ctx: CategoryCtx, a: Subcategory, x: Subcategory,
                   y: Subcategory, dim_cap: int) -> list[tuple[Obj, rc.SES]] | None:
    """a included in X*Y, checked on each indecomposable of a: each one in
    ascending order with its conflation, or None at the first without one.

    Sufficient for the whole additive closure because direct sums of
    conflations are conflations.
    """
    found = []
    for z in map(Obj.of, sorted(a.ids)):
        ses = star_member(ctx, z, x, y, dim_cap)
        if ses is None:
            return None
        found.append((z, ses))
    return found


# -- approximation searches ---------------------------------------------

_SPLIT = Obj()  # the partner of a split conflation, shared by every table


def _approx_search(ctx: CategoryCtx, b: IndecId, b_is_third: bool,
                   middle: Subcategory, partner: Subcategory,
                   bounds: SearchBounds) -> tuple[Obj | None, bool]:
    """The partner of the first conflation with b at one end (the third
    term if b_is_third, else the first), its middle in add(middle) and the
    partner in add(partner) at the other end, or None; and whether the
    search was complete, which only the dimension cap prevents.

    Partners are the subsets of the partner ids with nonzero Ext against
    b, in ascending (dim, lex) order, the empty one (the split conflation)
    first, each with all-ones class coefficients; the middle of each
    comes from `ones_class_middle`, so no module is built.
    """
    fixed = Obj.of(b)
    budget = bounds.dim_cap - fixed.total_dim
    if budget >= 0 and b in middle:
        return _SPLIT, True
    if b_is_third:
        pool = [y for y in sorted(partner.ids) if ctx.ext_dim(b, y) == 1]
    else:
        pool = [y for y in sorted(partner.ids) if ctx.ext_dim(y, b) == 1]
    for other in Obj.multisets(pool, 1, budget)[1:]:
        ends = (fixed, other) if b_is_third else (other, fixed)
        if middle.contains_obj(ctx.ones_class_middle(*ends)):
            return other, True
    return None, sum(i.dim for i in pool) <= budget


def approx_table(ctx: CategoryCtx, b_is_third: bool, middle: Subcategory,
                 partner: Subcategory, bounds: SearchBounds
                 ) -> tuple[Mapping[IndecId, Obj], frozenset[IndecId]]:
    """The winners of `_approx_search` over every indecomposable, read-only,
    each id mapped to its partner (the zero object for the split
    conflation), and the ids whose search the dimension cap cut short;
    `approx_witness` realizes a winner's conflation.

    The searches depend on the two id sets and the bounds only, so the
    table is built once per context and key, and every cotorsion pair,
    twin and heart table of the context that asks for it shares it.  It
    holds no module and no reference to the context.
    """
    def build():
        for x in middle.ids | partner.ids:  # before anything is stored
            ctx.check_id(x)
        winners, truncated = {}, set()
        for b in ctx.indecs:
            other, complete = _approx_search(ctx, b, b_is_third, middle,
                                             partner, bounds)
            if other is not None:
                winners[b] = other
            elif not complete:
                truncated.add(b)
        return MappingProxyType(winners), frozenset(truncated)

    return ctx.cached(("approx", b_is_third, middle.ids, partner.ids, bounds),
                      build)


def approx_witness(ctx: CategoryCtx, b: IndecId, b_is_third: bool,
                   other: Obj) -> rc.SES:
    """The witness conflation of a table winner: the all-ones class
    between b and its partner `other`, from `ses_for_class` and so cached
    there."""
    cells = range(len(other.ids))
    if b_is_third:
        return ctx.ses_for_class(Obj.of(b), other, {(0, j): 1 for j in cells})
    return ctx.ses_for_class(other, Obj.of(b), {(i, 0): 1 for i in cells})
