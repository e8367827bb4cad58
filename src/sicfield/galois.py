"""Automorphisms of Q(u, r) and the structure of its Galois group.

An automorphism is pinned down by where it sends the two generators.
The images must satisfy the defining relations: the image of u must be
a root of the degree-8 minimal polynomial, and the image of r must
satisfy the quadratic r^2 + c r + 1 = 0 with c = 2/x transported
through the map. The four standard generators are

    g1: u -> 1/u, r -> r        (complex conjugation)
    g2: u -> -u,  r -> -r
    g3: u -> u,   r -> 1/r
    g4: u -> r,   r -> u

and they generate a group of order 16 isomorphic to Z2 x D8. Products
compose right to left: (sigma * phi)(e) = sigma(phi(e)).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

from .tower import (
    FieldElement,
    LinearMap,
    constant,
    substitution_map,
)

__all__ = [
    "Automorphism",
    "StructureCertificate",
    "standard_generators",
    "generate_group",
    "multiplication_table",
    "element_order",
    "order_census",
    "center",
    "is_abelian",
    "is_normal",
    "certify_structure",
    "action_table",
    "fixed_subfield_check",
]


class Automorphism:
    """A field automorphism, held as its integer matrix on the basis
    u^k r^e. It is built from the images of u and r, which must satisfy
    the tower relations; products are matrix products and inverses are
    powers, so they need no check."""

    __slots__ = ("matrix",)

    matrix: LinearMap

    def __init__(self, image_u: FieldElement, image_r: FieldElement) -> None:
        object.__setattr__(self, "matrix", substitution_map(image_u, image_r))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Automorphism is immutable")

    @classmethod
    def _from_matrix(cls, matrix: LinearMap) -> Automorphism:
        self = object.__new__(cls)
        object.__setattr__(self, "matrix", matrix)
        return self

    @classmethod
    def identity(cls) -> Automorphism:
        return cls._from_matrix(_IDENTITY)

    def is_identity(self) -> bool:
        return self.matrix == _IDENTITY

    @property
    def image_u(self) -> FieldElement:
        return self.matrix(constant("u"))

    @property
    def image_r(self) -> FieldElement:
        return self.matrix(constant("r"))

    def apply(self, elem: FieldElement) -> FieldElement:
        """Image of a field element under the automorphism."""
        return self.matrix(elem)

    def __mul__(self, other: Automorphism) -> Automorphism:
        """Composition, other first: (self * other)(e) = self(other(e))."""
        if not isinstance(other, Automorphism):
            return NotImplemented
        return Automorphism._from_matrix(self.matrix @ other.matrix)

    def __pow__(self, n: int) -> Automorphism:
        """The group is finite, so n counts modulo the order of self; a
        negative n is a power of the inverse."""
        result = Automorphism.identity()
        for _ in range(n % element_order(self)):
            result = result * self
        return result

    def inverse(self) -> Automorphism:
        return self ** -1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"<Automorphism u -> {self.image_u}, r -> {self.image_r}>"


_IDENTITY = LinearMap.identity()


def standard_generators() -> dict[str, Automorphism]:
    u = constant("u")
    r = constant("r")
    return {
        "g1": Automorphism(u.inverse(), r),
        "g2": Automorphism(-u, -r),
        "g3": Automorphism(u, r.inverse()),
        "g4": Automorphism(r, u),
    }


def generate_group(generators: Sequence[Automorphism],
                   max_order: int = 10_000) -> list[Automorphism]:
    """Closure of the generators under composition, BFS order.

    Aborts once the closure exceeds max_order elements, which signals
    that the generators do not span a finite group of that size.
    """
    elements = [Automorphism.identity()]
    seen = set(elements)
    for g in generators:
        if g not in seen:
            seen.add(g)
            elements.append(g)
    # the list is the BFS queue: it grows while it is walked
    for current in elements:
        for g in generators:
            product = g * current
            if product not in seen:
                seen.add(product)
                elements.append(product)
                if len(elements) > max_order:
                    raise RuntimeError(
                        "group closure exceeded the safety bound; "
                        "a generator is not a field automorphism"
                    )
    return elements


def multiplication_table(group: Sequence[Automorphism]) -> list[list[int]]:
    """Index table: table[i][j] = k with group[i] * group[j] = group[k].

    An automorphism is fixed by the images of u and r, two columns of
    its matrix, so each product is identified from those two columns of
    the matrix product alone.
    """
    images = [(g.image_u, g.image_r) for g in group]
    index = {pair: k for k, pair in enumerate(images)}
    table = []
    for a in group:
        row = []
        for image_u, image_r in images:
            k = index.get((a.apply(image_u), a.apply(image_r)))
            if k is None:
                raise ValueError("sequence is not closed under composition")
            row.append(k)
        table.append(row)
    return table


def element_order(g: Automorphism) -> int:
    generators = (constant("u"), constant("r"))
    images = (g.image_u, g.image_r)
    for order in range(1, 17):
        if images == generators:
            return order
        images = (g.apply(images[0]), g.apply(images[1]))
    raise ValueError("element order exceeds the field degree")


def _commute(table: list[list[int]], xs: Collection[int], ys: Collection[int]) -> bool:
    """Whether every index in xs commutes with every index in ys."""
    return all(table[i][j] == table[j][i] for i in xs for j in ys)


def order_census(group: Sequence[Automorphism]) -> dict[int, int]:
    return dict(Counter(element_order(g) for g in group))


def is_abelian(group: Sequence[Automorphism]) -> bool:
    indices = range(len(group))
    return _commute(multiplication_table(group), indices, indices)


def center(group: Sequence[Automorphism]) -> list[Automorphism]:
    table = multiplication_table(group)
    indices = range(len(group))
    return [group[i] for i in indices if _commute(table, (i,), indices)]


def is_normal(group: Sequence[Automorphism],
              subgroup: Sequence[Automorphism]) -> bool:
    members = set(subgroup)
    return all(
        g * h * g.inverse() in members
        for g in group for h in subgroup
    )


def _closure_indices(table: list[list[int]], identity: int,
                     gens: Sequence[int]) -> set[int]:
    elements = {identity, *gens}
    frontier = list(elements)
    while frontier:
        a = frontier.pop()
        for b in list(elements):
            for prod in (table[a][b], table[b][a]):
                if prod not in elements:
                    elements.add(prod)
                    frontier.append(prod)
    return elements


@dataclass(frozen=True)
class StructureCertificate:
    """Evidence that a group of order 16 is Z2 x D8.

    The census separates candidates, the dihedral subgroup with its
    five involutions rules out the quaternion alternative, and a
    central involution outside it splits the group as a direct product.
    """

    order: int
    census: dict[int, int]
    abelian: bool
    isomorphism_type: str | None
    central_involution: int | None
    dihedral_generators: tuple[int, int] | None

    @property
    def certified(self) -> bool:
        return self.isomorphism_type is not None


def certify_structure(group: Sequence[Automorphism]) -> StructureCertificate:
    """Decide whether the group is Z2 x D8 and return the evidence."""
    order = len(group)
    table = multiplication_table(group)
    identity = next(k for k, g in enumerate(group) if g.is_identity())
    orders = [element_order(g) for g in group]
    census = dict(Counter(orders))
    abelian = _commute(table, range(order), range(order))
    failed = StructureCertificate(order, census, abelian, None, None, None)
    if order != 16 or abelian or census != {1: 1, 2: 11, 4: 4}:
        return failed
    central = [k for k in range(order)
               if orders[k] == 2 and _commute(table, (k,), range(order))]
    for z in central:
        for a in range(order):
            for b in range(a):
                sub = _closure_indices(table, identity, [a, b])
                if len(sub) != 8 or z in sub:
                    continue
                if _commute(table, sub, sub):
                    continue
                involutions = sum(1 for k in sub if orders[k] == 2)
                if involutions == 5:
                    return StructureCertificate(
                        order, census, abelian, "Z2 x D8", z, (b, a),
                    )
    return failed


def action_table(group: Sequence[Automorphism],
                 elements: Mapping[str, FieldElement]) -> list[dict[str, FieldElement]]:
    """Row per group element: the exact image of each named element."""
    return [
        {name: g.apply(elem) for name, elem in elements.items()}
        for g in group
    ]


def fixed_subfield_check(subgroup: Sequence[Automorphism],
                         elem: FieldElement) -> bool:
    """True when every automorphism in the subgroup fixes the element."""
    return all(g.apply(elem) == elem for g in subgroup)
