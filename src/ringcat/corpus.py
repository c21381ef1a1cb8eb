"""Built-in instance set.

A fixed list of small validated systems covering the structural variety
the rest of the package cares about: identity structure maps, zero
structure maps with scalar actions, an ideal inside a product ring, the
doubling embedding of the even residues mod 8, and full multiplier
systems.  The test and acceptance suites iterate over `corpus()`, and
`corpus_triples()` feeds the obstruction cross-checks.
"""

from __future__ import annotations

import numpy as np

from .crossed import (
    ESystem,
    ideal_esystem,
    identity_esystem,
    is_regular,
    multiplier_esystem,
    validate_esystem,
)
from .rings import (
    FiniteRing,
    HomError,
    RingHom,
    _additive_maps,
    product_ring,
    validate_ring,
    zero_mult,
    zero_mult_klein,
    zmod,
)

__all__ = [
    "corpus",
    "corpus_triples",
    "doubling_esystem",
    "even_residues_mod8",
    "scalar_zero_esystem",
    "unital_homs",
]


def even_residues_mod8(name: str = "2z8") -> FiniteRing:
    """Carrier 0..3 standing for 0, 2, 4, 6 modulo 8."""
    i = np.arange(4)
    return validate_ring(
        (i[:, None] + i[None, :]) % 4,
        (2 * i[:, None] * i[None, :]) % 4,
        None,
        name=name,
    )


def scalar_zero_esystem(d: FiniteRing, name: str | None = None) -> ESystem:
    """Zero structure map over the zero ring on |D| elements.

    With d = 0 the base must square to zero, and D then acts through its
    own multiplication table.
    """
    b = zero_mult(d.order)
    return validate_esystem(
        b, d, np.zeros(d.order, dtype=np.int16), d.mul.copy(), d.mul.T.copy(),
        name=name or f"flat_{d.name}",
    )


def doubling_esystem(name: str = "double_2z8") -> ESystem:
    """b -> 2b from the even residues mod 8 into Z/4, scalars acting."""
    b, d4 = even_residues_mod8(), zmod(4)
    i = np.arange(4)
    scal = (i[:, None] * i[None, :]) % 4
    return validate_esystem(b, d4, (2 * i) % 4, scal, scal.copy(), name=name)


def _flat_in_z4() -> ESystem:
    # Z/4 acting on the two-element zero ring through reduction mod 2.
    d4 = zmod(4)
    tl = (np.arange(4)[:, None] * np.arange(2)[None, :]) % 2
    return validate_esystem(
        zero_mult(2), d4, np.zeros(2, dtype=np.int16), tl, tl.copy(),
        name="flat_z2_in_z4",
    )


def _flat_klein() -> ESystem:
    # Klein zero ring with Z/2 switching the identity action on and off.
    b, d = zero_mult_klein(), zmod(2)
    tl = np.stack([np.zeros(4, dtype=np.int16), np.arange(4, dtype=np.int16)])
    return validate_esystem(
        b, d, np.zeros(4, dtype=np.int16), tl, tl.copy(), name="flat_klein0"
    )


def corpus() -> list[ESystem]:
    """Fresh copies of the built-in instances, every one validated.

    All are regular except `mult_klein0`: the Klein zero ring has
    non-permutable bimultiplications, so its full multiplier system
    cannot be regular.
    """
    klein = product_ring(zmod(2), zmod(2))
    return [
        identity_esystem(zmod(2), name="id_z2"),
        identity_esystem(zmod(3), name="id_z3"),
        identity_esystem(zmod(4), name="id_z4"),
        identity_esystem(klein, name="id_klein"),
        scalar_zero_esystem(zmod(2), name="flat_z2"),
        scalar_zero_esystem(zmod(3), name="flat_z3"),
        _flat_in_z4(),
        _flat_klein(),
        doubling_esystem(),
        ideal_esystem(klein, [0, 2], name="ideal_in_klein"),
        multiplier_esystem(zmod(2), name="mult_z2"),
        multiplier_esystem(zmod(3), name="mult_z3"),
        multiplier_esystem(even_residues_mod8(), name="mult_2z8"),
        multiplier_esystem(zero_mult_klein(), name="mult_klein0"),
    ]


def unital_homs(q: FiniteRing, r: FiniteRing) -> list[RingHom]:
    """All unital ring maps q -> r, in lexicographic order of their tables."""
    if q.unit is None or r.unit is None:
        raise HomError(f"unital maps need unital rings, got {q.name} and {r.name}")
    maps = _additive_maps(q.add, r.add)
    maps = maps[maps[:, q.unit] == r.unit]
    ok = (r.mul[maps[:, :, None], maps[:, None, :]] == maps[:, q.mul]).all(axis=(1, 2))
    return [RingHom(q, r, m) for m in maps[ok]]


def corpus_triples(limit: int = 8):
    """Every (base, quotient, psi) with a regular base and |B||Q| <= limit.

    psi ranges over all unital ring maps from the candidate quotient into
    the cokernel of the base's structure map.
    """
    quotients = [zmod(2), zmod(3), zmod(4), product_ring(zmod(2), zmod(2))]
    triples = []
    for es in corpus():
        if not is_regular(es):
            continue
        for q in quotients:
            if es.b.order * q.order > limit:
                continue
            for psi in unital_homs(q, es.cokernel.ring):
                triples.append((es, q, psi))
    return triples
