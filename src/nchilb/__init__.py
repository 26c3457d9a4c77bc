"""Exact combinatorics and algebra of Chow rings of non-commutative Hilbert schemes.

The package has four layers: `forests` (m-ary forest combinatorics and
the index bijections), `polynomial` (exact sparse polynomials and
symmetric functions), `coha` (the shuffle-product algebra of the m-loop
quiver and its kernel generators), and `groebner`/`presentation` (reduced
bases and quotient presentations of the Chow rings).  The `cli` module
exposes everything on the command line.
"""

from .rationals import BACKEND, QQ
from .polynomial import (
    SparsePoly,
    SymmetricPoly,
    elementary_symmetric,
    from_elementary,
    is_partition,
    is_symmetric,
    monomial_symmetric,
    partitions_in_box,
    poly_from_json,
    poly_from_text,
    poly_to_json,
    poly_to_text,
    rho,
    rho_pq,
    schur,
    to_elementary,
)
from .forests import (
    CriticalPair,
    Forest,
    Tree,
    ambient_dimension,
    btuple_to_jtuple,
    codim,
    compare_forests,
    compare_words,
    critical_pairs,
    d_value,
    enumerate_btuples,
    enumerate_forests,
    enumerate_jtuples,
    enumerate_trees,
    forest_from_json,
    forest_to_json,
    forest_to_jtuple,
    is_valid_btuple,
    is_valid_jtuple,
    j_index,
    jtuple_to_btuple,
    jtuple_to_forest,
    poincare_polynomial,
    word_from_string,
    word_to_string,
)
from .coha import (
    CohaElement,
    bidegree,
    coha_mul,
    forbidden_polynomial,
    kernel_generators,
    module_basis,
    psi,
    psi_product,
    shuffle_expression,
    tautological_relation,
)
from .groebner import GroebnerBasis, buchberger, ideal_equals, normal_form
from .presentation import (
    PresentationReport,
    chern_monomial,
    kernel_ideal,
    kernel_ideal_generators,
    local_multiplicity,
    minimal_generator_subset,
    presentation_report,
    trial_dimensions,
    verify_chern_basis,
    verify_poincare_match,
)

__version__ = "0.1.0"
