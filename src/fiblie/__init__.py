"""Exact symbolic computation for the Fibonacci restricted Lie algebra
over GF(2): monomial arithmetic, bases, weight geometry, lattice series,
nilpotency experiments, Chevalley-Eilenberg homology, and a low-degree
presentation checker.
"""

from .core import (
    Element,
    FibLieError,
    IndexCeilingError,
    InputError,
    LIMITS,
    Monomial,
    MonomialLimitError,
    ZERO,
    apply,
    bracket,
    element,
    format_element,
    is_basis_monomial,
    monomial,
    power_2k,
    square,
    tau,
    v,
)
from .grading import GoldenInt, Multidegree, gr, weight, weight_coords

__all__ = [
    "Element",
    "FibLieError",
    "GoldenInt",
    "IndexCeilingError",
    "InputError",
    "LIMITS",
    "Monomial",
    "MonomialLimitError",
    "Multidegree",
    "ZERO",
    "apply",
    "bracket",
    "element",
    "format_element",
    "gr",
    "is_basis_monomial",
    "monomial",
    "power_2k",
    "square",
    "tau",
    "v",
    "weight",
    "weight_coords",
]

__version__ = "0.1.0"
