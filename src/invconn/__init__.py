"""Invariant-connection multiplicities on isotropy irreducible spaces.

Exact root-system and character arithmetic (`rootsys`, `chars`), the
catalog classification of invariant affine/metric connection counts
(`siiclass`), a double-precision connection calculus on matrix Lie
algebras (`conncalc`), and a command-line front end (`cli`).

Each public name is imported from its module on first use (PEP 562), so
`import invconn` alone loads no engine module, and a program that uses
only the exact engine never loads `conncalc`.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "chars": ("Character", "PlethysmOps", "adams", "alt2", "alt3", "decompose",
              "decompose_expression", "expand", "irrep_character", "multiplicity", "sym2",
              "sym3", "tensor", "trivial_character"),
    "conncalc": ("MatrixAlgebra", "build_algebra", "laquer_basis", "classify_type",
                 "torsion", "ricci"),
    "rootsys": ("RootSystem", "SimpleType", "adjoint_weight"),
    "siiclass": ("Budget", "IsotropyDatum", "SIIReport", "classify", "classify_reducible",
                 "duality_type", "external_cross_check", "emit_tables", "family", "get_row",
                 "isotropy_from_embedding", "load_catalog", "unitary_group_module"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
