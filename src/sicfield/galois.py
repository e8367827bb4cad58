"""The Galois group of Q(u, r): generation, tables and the structure
certificate, over tower's Automorphism type.

An automorphism is pinned down by where it sends the two generators.
Automorphism(image_u, image_r) builds the linear map m: u^k r^e ->
image_u^k image_r^e and checks the structure tensor's two products
through it, u * u^7 and r * r: m(u) m(u^7) = m(u^8) and m(r) m(r) =
m(r^2). The four standard generators are

    g1: u -> 1/u, r -> r        (complex conjugation)
    g2: u -> -u,  r -> -r
    g3: u -> u,   r -> 1/r
    g4: u -> r,   r -> u

and they generate a group of order 16 isomorphic to Z2 x D8. They are
the tower's norm steps, defined once in tower (_norm_steps), through
which FieldElement.inverse takes the norm down the tower. Products
compose right to left: (sigma * phi)(e) = sigma(phi(e)).
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Callable, Collection, Mapping, NamedTuple, Sequence

from .tower import Automorphism, FieldElement, _norm_steps, constant, element_order

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


def standard_generators() -> dict[str, Automorphism]:
    g3, g1, g2, g4 = _norm_steps()
    return {"g1": g1, "g2": g2, "g3": g3, "g4": g4}


def _closure(identity, generators: Sequence, product: Callable, act=None, start=None) -> list:
    """The identity and every product(g, x) of a generator g with an
    element x already found, in BFS order, so the generators come first.
    In a finite group that is the subgroup the generators generate. With
    act, start keys the identity and act(g, k) keys product(g, x) from the
    key k of x, equal exactly when the products are, so product runs once
    per new element instead of once per pair."""
    keys, elements = [identity if act is None else start], [identity]
    seen = set(keys)
    # the lists are the BFS queue: they grow while they are walked
    for k, current in zip(keys, elements):
        for g in generators:
            p = product(g, k) if act is None else act(g, k)
            if p not in seen:
                seen.add(p)
                keys.append(p)
                elements.append(p if act is None else product(g, current))
    return elements


def generate_group(generators: Sequence[Automorphism]) -> list[Automorphism]:
    """Closure of the generators under composition, BFS order. Every
    Automorphism is checked when it is built, so the closure is a
    subgroup of the 16 automorphisms and always ends. g * x is keyed by
    its images g(x(u)), g(x(r)) and composed only when they are new."""
    return _closure(Automorphism.identity(), generators, operator.mul,
                    act=lambda g, k: (g.apply(k[0]), g.apply(k[1])),
                    start=(constant("u"), constant("r")))


def multiplication_table(group: Sequence[Automorphism]) -> list[list[int]]:
    """Index table: table[i][j] = k with group[i] * group[j] = group[k].

    An automorphism is fixed by the images of u and r, two columns of
    its matrix, so each product is identified from those two columns of
    the matrix product alone. A row applies its automorphism once to
    each distinct image: the group of 16 sends u and r to the same 8
    elements.
    """
    images = [(g.image_u, g.image_r) for g in group]
    index = {pair: k for k, pair in enumerate(images)}
    distinct = set().union(*images)
    table = []
    for a in group:
        moved = {e: a.apply(e) for e in distinct}
        row = []
        for image_u, image_r in images:
            k = index.get((moved[image_u], moved[image_r]))
            if k is None:
                raise ValueError("sequence is not closed under composition")
            row.append(k)
        table.append(row)
    return table


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


class StructureCertificate(NamedTuple):
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
                sub = _closure(identity, [a, b], lambda x, y: table[x][y])
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
