"""Exact S-Euclidean minima of ideal classes in number fields (degree <= 4).

Everything numerical is exact rational arithmetic or certified interval
enclosures; results ship with replayable evidence (an explicit witness with
its exact minimum, or a finite covering certificate).

Only the exceptions load with the package; every other export is read from
its module on first use (PEP 562), so a process imports what it needs.
"""

import importlib
import sys

from . import errors
from .errors import *  # noqa: F401,F403

# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "covering": "CoverBox CoveringCertificate Unresolved verify_certificate",
    "fields": "EmbeddingBox FieldElement FractionalIdeal NumberField "
              "elem_norm_trace embed ideal_from_gens ideal_invert ideal_norm "
              "inverse_different make_field",
    "forms": "BinaryQuadraticForm bsd_check form_disc_primitive "
             "form_from_ideal m_form",
    "minima": "EuclideanVerdict MinimumValue MReport compute_M "
              "covering_verify decide_norm_euclidean m_exact search_lower",
    "places": "Place SConfig make_sconfig places_above s_norm strip_s_part "
              "valuation",
    "torus": "QmodZ char_pair orbit reduce_mod s_trace_dual torsion_reps",
    "units": "fundamental_unit shrinking_unit torsion_generator "
             "verify_s_unit_basis",
}.items() for name in names.split()}

__all__ = [n for n in vars(errors) if not n.startswith("_")] + list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    # not cached: a name always reads its module's current binding
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_EXPORTS[name]}"
    return getattr(sys.modules.get(module) or importlib.import_module(module),
                   name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
