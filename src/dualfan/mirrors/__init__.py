"""Mirror-construction pipelines over the toric LG layer.

Each pipeline builds a dual pair of marked fans from its own kind of
input data, couples them with potential families, and returns a
`MirrorReport` whose checks were verified during construction.
"""

from .report import MirrorReport
from .bhk import (
    BhkCriterionReport,
    bhk_pair,
    krawitz_dual_group,
    phase_symmetries,
    verify_bhk_criterion,
)
from .bb import (
    GorensteinReport,
    ReflexiveReport,
    bb_mirror_pair,
    dual_splittings,
    is_gorenstein,
    is_reflexive,
    support_partition,
)
from .givental import givental_mirror, hori_vafa_mirror, splitting_basis
from .quintic import fermat_pipeline, quintic_pipeline

__all__ = [
    "BhkCriterionReport",
    "GorensteinReport",
    "MirrorReport",
    "ReflexiveReport",
    "bb_mirror_pair",
    "bhk_pair",
    "dual_splittings",
    "fermat_pipeline",
    "givental_mirror",
    "hori_vafa_mirror",
    "is_gorenstein",
    "is_reflexive",
    "krawitz_dual_group",
    "phase_symmetries",
    "quintic_pipeline",
    "splitting_basis",
    "support_partition",
    "verify_bhk_criterion",
]
