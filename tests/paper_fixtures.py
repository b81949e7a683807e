"""The paper's A6 examples, read from the shipped files under fixtures/.

The algebra is the linear quiver 6 -> 5 -> 4 -> 3 -> 2 -> 1 with the two
length-four paths 5..1 and 6..2 set to zero; it has 18 interval
indecomposables.  Each pairs file holds a twin cotorsion pair (S, T, U, V)
with a qualitatively different heart: ex-nonintegral has a non-integral
heart, ex-abelian an abelian one, and ex-nonabelian an integral but
non-abelian one with core W = U = T.  The files are read with the parser
the CLI uses.
"""

import pathlib

from cotorsionlab import fileformats as ff
from cotorsionlab.repcore import FieldChar
from cotorsionlab.serialcat import CategoryCtx, generate
from cotorsionlab.subcat import Subcategory

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FIXTURES = ("ex-nonintegral", "ex-abelian", "ex-nonabelian")


def paper_context(p: int = 2) -> CategoryCtx:
    """The A6 algebra of paper_a6.category.json, over F_p."""
    pres, _ = ff.parse_category(ff.read_json(FIXDIR / "paper_a6.category.json"))
    return generate(pres, FieldChar(p))


def fixture_subcategories(ctx: CategoryCtx, name: str) -> dict[str, Subcategory]:
    return ff.parse_pairs(ff.read_json(FIXDIR / f"{name}.pairs.json"), ctx)
