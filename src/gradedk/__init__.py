"""gradedk: graded K0 of Z^m x G-graded algebras over exact fields.

Constructs degreewise finite-dimensional graded algebras from a closed
constructor family, manipulates finitely generated graded projective
modules as homogeneous idempotent presentations, implements the
restriction/induction functor pair between an N-supported algebra and
its degree-zero part, the associated filtration, and computes graded K0
as a module over the integral group ring of the grading group.

Only K0 is computed.  Higher K-groups are homotopy-theoretic and are not
reproducible at desk scale; the category-level isomorphisms that drive
them (the correspondence functors, the filtration layers and their
additivity) are what this package verifies instead.
"""

__version__ = "0.1.0"

# The one elimination kernel, ``gradedk._kernel.pure``; recorded by the benchmark.
KERNEL_BACKEND = "pure"

from .fields import QQ, GF, Field
from .grading import (
    Degree,
    GradingGroup,
    ShiftModule,
    Subgroup,
    induce_module,
    shift_module_iso,
)

__all__ = [
    "KERNEL_BACKEND",
    "QQ",
    "GF",
    "Field",
    "Degree",
    "GradingGroup",
    "ShiftModule",
    "Subgroup",
    "induce_module",
    "shift_module_iso",
    "__version__",
]
