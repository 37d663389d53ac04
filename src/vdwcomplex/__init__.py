"""Exact combinatorics of van der Waerden complexes.

Construction of vdW(n, k) from arithmetic progressions, facet-list
simplicial complex operations, decision procedures (vertex
decomposability with shedding trees, shellability with explicit orders,
Cohen-Macaulayness via Reisner's homological criterion), the
Stanley-Reisner ideal of the Alexander dual with its Taylor first
syzygies, and a CLI that sweeps the (n, k) grid against the closed-form
classification.
"""

from vdwcomplex._kernels import implementation_name
from vdwcomplex.certify import (
    SheddingTree,
    field_label,
    parse_field,
    verify_shedding_tree,
    verify_shelling,
)
from vdwcomplex.complexes import MAX_VERTICES, SimplicialComplex, pack, unpack
from vdwcomplex.decompose import (
    DEFAULT_SHELLING_BUDGET,
    DecompositionResult,
    ShellingResult,
    is_shellable,
    is_vertex_decomposable,
)
from vdwcomplex.homology import (
    CohenMacaulayResult,
    HomologyProfile,
    cohen_macaulay_by_field,
    is_cohen_macaulay,
    reduced_homology,
)
from vdwcomplex.ideals import (
    LinearPresentationResult,
    MonomialIdeal,
    ObstructionWitness,
    TaylorSyzygy,
    dual_ideal,
    is_linearly_presented,
    nonlinear_obstruction_vdw,
    taylor_syzygies,
)
from vdwcomplex.vdw import (
    Classification,
    OverlapCheck,
    ProgressionFacet,
    check_max_increment_overlap,
    check_odd_increment_overlap,
    classify_closed_form,
    facet_count,
    max_increment,
    max_odd_increment,
    progression_facets,
    vdw_complex,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_VERTICES",
    "SimplicialComplex",
    "pack",
    "unpack",
    "ProgressionFacet",
    "Classification",
    "OverlapCheck",
    "progression_facets",
    "facet_count",
    "vdw_complex",
    "max_increment",
    "max_odd_increment",
    "classify_closed_form",
    "check_odd_increment_overlap",
    "check_max_increment_overlap",
    "DecompositionResult",
    "SheddingTree",
    "ShellingResult",
    "DEFAULT_SHELLING_BUDGET",
    "is_vertex_decomposable",
    "verify_shedding_tree",
    "is_shellable",
    "verify_shelling",
    "HomologyProfile",
    "CohenMacaulayResult",
    "reduced_homology",
    "is_cohen_macaulay",
    "cohen_macaulay_by_field",
    "parse_field",
    "field_label",
    "MonomialIdeal",
    "TaylorSyzygy",
    "LinearPresentationResult",
    "ObstructionWitness",
    "dual_ideal",
    "taylor_syzygies",
    "is_linearly_presented",
    "nonlinear_obstruction_vdw",
    "implementation_name",
    "__version__",
]
