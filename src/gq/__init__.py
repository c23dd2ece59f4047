"""Symbolic and numeric verification kernel for graded geometry.

Exact supercommutative polynomial charts, Q-structures and their squares,
degree-n symplectic brackets with derived Poisson/Courant brackets, twisted
fibers and central extensions, path holonomy for matrix algebroids, and
exact-rational symplectic cochain complexes, driven by a small DSL (`gq`).

The floating-point modules, `apath` (path holonomy) and `grids` (maps into
SU(2) sampled on a grid), import numpy. Their names are served on first
access, so a purely exact program never loads it.
"""

import importlib

from .errors import (
    ChartMismatchError, CompositionError, GqError, GradingError,
    InconsistentPathError, ParseError, SemanticError, StructureError,
    UnsupportedInputError,
)
from .graded_algebra import (
    Chart, GPoly, GVar, left_derivative, rescale, scaling_check, substitute,
)
from .nq_core import (
    Derivation, apply_derivation, commutator, euler_field, q_square,
)
from .sigma_structures import (
    AlgebroidData, ConjugatePair, DarbouxChart, Hamiltonian, algebroid_to_q,
    courant_chart, courant_theta, derived_bracket, hamiltonian_to_q,
    hamiltonian_vector_field, lambda_check, master_equation, poisson_bracket,
    q_to_algebroid, q_to_hamiltonian, section_encode,
)
from .forms import TangentChart, dorfman_bracket
from .extensions import (
    GradedLieAlgebra, QuadraticLieAlgebra, SymmetryPair, TwistData,
    affine_cocycle_check, broken_cocycle, cartan_3form, central_extension,
    chevalley_eilenberg_q, gauge_change, gauge_shift_consistent, iota_encode,
    iota_self_bracket, pair_decode, sl2, so3, symmetry_bracket, twisted_q,
)
from .complexes import (
    BoundaryLagrangianReport, CohomologyPairing, GradedComplex,
    LemmaThreeReport, NMapSpace, RelativeComplex, SimplicialComplex,
    SuspensionReport, SymplecticComplex, ball_relative_complex,
    boundary_lagrangian, closed_relative, cohomology_pairing, cylinder_complex,
    disk_complex, interval_complex, lattice_model, lemma3_orthogonality,
    load_complex, nmap_space, save_complex, suspension_check, tensor_complex,
    tensor_symplectic, torus_complex, two_term_fiber,
)

__version__ = "0.1.0"

# float module -> the names served from it on first access
_LAZY = {
    "apath": ("APath", "GroupoidElement", "action_integrate", "concatenate",
              "constant_path", "integrate", "load_apath", "reparametrize",
              "reparametrize_check", "save_apath"),
    "grids": ("GridMap", "load_gridmap", "save_gridmap", "wzw_cross_term", "wzw_product"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_HOME:
        return getattr(importlib.import_module(f".{_LAZY_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_HOME})
