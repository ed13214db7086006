"""Graded projective modules: presentations, functors, decomposition."""

from .presentations import (
    ComponentSpace,
    GradedMap,
    PresentationError,
    ProjectivePresentation,
    direct_sum,
    free_module,
    random_presentation,
    regular_module,
    restrict_rows,
    zero_module,
)
from .swan import (
    VerificationError,
    functor_S,
    functor_T,
    nakayama_zero_test,
    nu,
    psi,
    restriction_map,
    require_positive_support,
    section,
)
from .endos import EndAlgebra, SplitError, hom_basis, split_projective
from .decompose import (
    UnsupportedAlgebra,
    class_info,
    decompose,
    graded_iso,
    indec_iso,
    summand_classes,
)
from .windows import default_window

__all__ = [
    "ComponentSpace",
    "GradedMap",
    "PresentationError",
    "ProjectivePresentation",
    "direct_sum",
    "free_module",
    "random_presentation",
    "regular_module",
    "restrict_rows",
    "zero_module",
    "VerificationError",
    "functor_S",
    "functor_T",
    "nakayama_zero_test",
    "nu",
    "psi",
    "restriction_map",
    "require_positive_support",
    "section",
    "EndAlgebra",
    "SplitError",
    "hom_basis",
    "split_projective",
    "UnsupportedAlgebra",
    "class_info",
    "decompose",
    "graded_iso",
    "indec_iso",
    "summand_classes",
    "default_window",
]
