"""The bundled example algebras, addressable by name.

Each entry is a builder taking the prime and returning a validated
algebra. The collection covers the semisimple, hereditary, local and
mixed cases that exercise every branch of the homology pipelines, and all
structure constants are 0 or 1 so every entry lifts literally mod p**2.
"""

from __future__ import annotations

from typing import Callable

from .algebra import (
    Quiver,
    StructureConstantsAlgebra,
    direct_product,
    dual_numbers,
    group_algebra_cyclic,
    matrix_algebra,
    path_algebra,
    truncated_poly,
    upper_triangular,
)
from .errors import ConstructionError


def ground_field(p: int) -> StructureConstantsAlgebra:
    return StructureConstantsAlgebra(p, ["1"], [1], [[[1]]], name="ground-field")


def a2_quiver() -> Quiver:
    return Quiver(vertices=(1, 2), arrows=(("a", 1, 2),))


def kronecker_quiver() -> Quiver:
    return Quiver(vertices=(1, 2), arrows=(("a", 1, 2), ("b", 1, 2)))


_BUILDERS: dict[str, Callable[[int], StructureConstantsAlgebra]] = {
    "ground-field": ground_field,
    "dual-numbers": lambda p: _named(dual_numbers(p), "dual-numbers"),
    "trunc-poly-3": lambda p: truncated_poly(p, 3, name="trunc-poly-3"),
    "trunc-poly-4": lambda p: truncated_poly(p, 4, name="trunc-poly-4"),
    "m2": lambda p: matrix_algebra(2, p, name="m2"),
    "upper-tri-2": lambda p: upper_triangular(2, p, name="upper-tri-2"),
    "group-z2": lambda p: group_algebra_cyclic(p, 2, name="group-z2"),
    "group-z3": lambda p: group_algebra_cyclic(p, 3, name="group-z3"),
    "group-z4": lambda p: group_algebra_cyclic(p, 4, name="group-z4"),
    "a2-path": lambda p: path_algebra(a2_quiver(), p, name="a2-path"),
    "kronecker": lambda p: path_algebra(kronecker_quiver(), p, name="kronecker"),
    "product-dual-upper": lambda p: _named(direct_product(
        dual_numbers(p), upper_triangular(2, p)), "product-dual-upper"),
    "product-ground-m2": lambda p: _named(direct_product(
        ground_field(p), matrix_algebra(2, p)), "product-ground-m2"),
}

DESCRIPTIONS: dict[str, str] = {
    "ground-field": "the base field itself",
    "dual-numbers": "k[x]/x^2, the smallest non-semisimple algebra",
    "trunc-poly-3": "k[x]/x^3",
    "trunc-poly-4": "k[x]/x^4",
    "m2": "2x2 matrices, semisimple and Morita trivial",
    "upper-tri-2": "2x2 upper triangular matrices, hereditary",
    "group-z2": "group algebra of Z/2",
    "group-z3": "group algebra of Z/3 (modular when p = 3)",
    "group-z4": "group algebra of Z/4",
    "a2-path": "path algebra of the A2 quiver",
    "kronecker": "path algebra of the Kronecker quiver",
    "product-dual-upper": "dual numbers times upper triangular 2x2",
    "product-ground-m2": "ground field times 2x2 matrices",
}


def _named(a: StructureConstantsAlgebra, name: str) -> StructureConstantsAlgebra:
    a.name = name
    return a


def corpus_names() -> list[str]:
    return sorted(_BUILDERS)


def build(name: str, p: int) -> StructureConstantsAlgebra:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConstructionError(
            f"unknown builtin algebra {name!r}; known: {', '.join(corpus_names())}")
    return builder(p)
