"""Twin cotorsion pairs and their hearts over bound linear Nakayama
algebras, with machine-checkable integrality/abelianness certificates."""

from .repcore import (EnumerationRefusedError, FieldChar, Module, Morphism,
                      QuiverPresentation, SES)
from .serialcat import CategoryCtx, IndecId, Obj, generate
from .subcat import (SearchBounds, Subcategory, Verdict, inter, left_perp,
                     oplus, right_perp, star_member, subcat_in_star)
from .pairs import (CotorsionPair, HeartClasses, TwinPair, compute_hearts,
                    verified_twin, verify_cotorsion, verify_twin)
from .heartcat import (HeartContext, HeartMorphism, check_abelian,
                       check_integral, cokernel_in_heart, enum_epi_triangles,
                       enum_mono_triangles, heart_context, is_epi_in_heart,
                       is_mono_in_heart, is_w_epic, is_w_monic,
                       kernel_in_heart, probe_integral_direct)

__version__ = "0.1.0"
