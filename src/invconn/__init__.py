"""Invariant-connection multiplicities on isotropy irreducible spaces.

Exact root-system and character arithmetic (`rootsys`, `chars`), the
catalog classification of invariant affine/metric connection counts
(`siiclass`), a double-precision connection calculus on matrix Lie
algebras (`conncalc`), and a command-line front end (`cli`).
"""

from .chars import (Character, PlethysmOps, adams, alt2, alt3, decompose,
                    decompose_expression, expand, irrep_character, multiplicity, sym2,
                    sym3, tensor, trivial_character)
from .conncalc import (MatrixAlgebra, build_algebra, laquer_basis, classify_type,
                       torsion, curvature, ricci, einstein_check)
from .rootsys import RootSystem, SimpleType, adjoint_weight
from .siiclass import (Budget, IsotropyDatum, SIIReport, classify, classify_reducible,
                       duality_type, external_cross_check, emit_tables, family, get_row,
                       isotropy_from_embedding, load_catalog, unitary_group_module)

__version__ = "0.1.0"

__all__ = [
    "Budget", "Character", "IsotropyDatum", "MatrixAlgebra", "PlethysmOps",
    "RootSystem", "SIIReport", "SimpleType", "adams", "adjoint_weight", "alt2",
    "alt3", "build_algebra", "classify", "classify_reducible", "classify_type",
    "curvature", "decompose", "decompose_expression", "duality_type", "einstein_check",
    "emit_tables", "expand", "external_cross_check", "family", "get_row",
    "irrep_character", "isotropy_from_embedding", "laquer_basis", "load_catalog",
    "multiplicity", "ricci", "sym2", "sym3", "tensor", "torsion",
    "trivial_character", "unitary_group_module",
]
