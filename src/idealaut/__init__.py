"""Exact automorphism groups of ideals generated by monic univariate polynomials.

For a monic nonconstant f in R[t] (R one of Z, Q, GF(p)) the ideal it
generates, viewed as an R-algebra without unit, has automorphisms of the
form t -> alpha*t + beta with alpha a unit.  This package computes the
full group exactly, decides whether two such ideals are isomorphic with
explicit witnesses, factors over prime fields to exhibit the induced
root permutations, and ships a brute-force finite-field oracle that
re-derives every group by exhaustive search.
"""

from .autgroup import (
    AffineMap,
    FiniteAutGroup,
    IsoWitness,
    IsoWitnessFamily,
    UnitsGroup,
    all_iso_witnesses,
    compute_aut,
    groups_equal,
    iso_test,
    layer_intersection,
    power_reduce,
    shift_conjugate,
    single_root_form,
    verify_aut,
    witness_family,
)
from .factor_fp import (
    DEFAULT_SEED,
    FpFactorization,
    RootPermutation,
    factor,
    root_permutation,
)
from .oracle import OracleReport, agrees_with, enumerate_auts, truncated_ideal_check
from .parsing import parse_affine_map, parse_element, parse_poly, parse_ring
from .poly import (
    Poly,
    SquarefreeDecomposition,
    center,
    gcd,
    squarefree_decomposition,
)
from .ring import GF, QQ, ZZ, Ring, RingElement, nth_roots, unit_torsion

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "DEFAULT_SEED",
    "FiniteAutGroup",
    "FpFactorization",
    "GF",
    "IsoWitness",
    "IsoWitnessFamily",
    "OracleReport",
    "Poly",
    "QQ",
    "Ring",
    "RingElement",
    "RootPermutation",
    "SquarefreeDecomposition",
    "UnitsGroup",
    "ZZ",
    "agrees_with",
    "all_iso_witnesses",
    "center",
    "compute_aut",
    "enumerate_auts",
    "factor",
    "gcd",
    "groups_equal",
    "iso_test",
    "layer_intersection",
    "nth_roots",
    "parse_affine_map",
    "parse_element",
    "parse_poly",
    "parse_ring",
    "power_reduce",
    "root_permutation",
    "shift_conjugate",
    "single_root_form",
    "squarefree_decomposition",
    "truncated_ideal_check",
    "unit_torsion",
    "verify_aut",
    "witness_family",
]
