"""Exact computation on trigonal polynomial curves."""

from .curves import (
    NonNodalError,
    NotTrigonalError,
    PlaneCurve,
    add_triple_point,
    curve_crossings,
    perturb,
    word_from_curve,
)
from .height import (
    EmbeddingError,
    HeightError,
    alternating_overpasses,
    crossing_handedness,
    crossing_signs,
    gauss_sequence,
    height_polynomial,
    verify_embedding,
)
from .poly import Polynomial, RootInterval, chebyshev, isolate_real_roots, signs_at_roots
