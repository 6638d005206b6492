"""Exact S-Euclidean minima of ideal classes in number fields (degree <= 4).

Everything numerical is exact rational arithmetic or certified interval
enclosures; results ship with replayable evidence (an explicit witness with
its exact minimum, or a finite covering certificate).
"""

from .covering import (CoverBox, CoveringCertificate, Unresolved,
                       verify_certificate)
from .errors import *  # noqa: F401,F403
from .fields import (EmbeddingBox, FieldElement, FractionalIdeal, NumberField,
                     elem_norm_trace, embed, ideal_from_gens, ideal_invert,
                     ideal_norm, make_field)
from .forms import (BinaryQuadraticForm, bsd_check, form_disc_primitive,
                    form_from_ideal, m_form)
from .minima import (EuclideanVerdict, MinimumValue, MReport, compute_M,
                     covering_verify, decide_norm_euclidean, m_exact,
                     search_lower)
from .places import (Place, SConfig, make_sconfig, places_above, s_norm,
                     shrinking_unit, strip_s_part, valuation,
                     verify_s_unit_basis)
from .torus import (QmodZ, char_pair, inverse_different, orbit, reduce_mod,
                    s_trace_dual, torsion_reps)
from .units import fundamental_unit, torsion_generator

__version__ = "0.1.0"
