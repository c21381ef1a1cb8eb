"""Rings acting on rings: action systems and crossed bimodules.

An action system is a ring map d from a base ring B into a unital ring D,
together with a D-indexed family of bimultiplications of B (the action),
subject to two compatibility laws: acting through d is inner
multiplication, and d intertwines the action with multiplication in D.

A crossed bimodule is the stricter classical notion: B is a unital
D-bimodule and d is equivariant, with the Peiffer law making B's own
product redundant.  Regular action systems (identity acts as identity,
action images pairwise permutable) are exactly crossed bimodules, and the
two validators plus converters below witness that equivalence.  Both
validators, the bimodule validator and the regularity test are lists of
the action-table laws in `bimult`, each under its own condition names.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .ablin import FinAbGroup
from .bimult import (
    _additive,
    _additive_in_source,
    _equivariant,
    _first_failure,
    _intertwined,
    _left_multiplicative,
    _left_product,
    _mixed_product,
    _permutable,
    _right_multiplicative,
    _right_product,
    _through,
    _unital,
    bimult_ring,
    inner_hom,
)
from .rings import (
    FiniteRing,
    HomError,
    IdealQuotient,
    RingAxiomError,
    RingHom,
    WitnessError,
    _first_bad,
    _ideal_actions,
    _preimages,
    decompose_abelian,
    ideal_cokernel,
    identity_hom,
    subring,
    validate_ring,
)


class ESystemError(WitnessError):
    """An action-system, bimodule or morphism condition failed."""


@dataclass(eq=False)
class ESystem:
    """An action system.  Its tables are not changed after validation, so
    the cokernel of d and the kernel module are built on first read and
    kept."""

    name: str
    b: FiniteRing
    d_ring: FiniteRing
    d: RingHom
    theta_left: np.ndarray
    theta_right: np.ndarray

    @functools.cached_property
    def cokernel(self) -> IdealQuotient:
        return ideal_cokernel(self.d, name=f"coker_{self.name}")

    @functools.cached_property
    def kernel_module(self) -> KernelModule:
        """Ker d as a bimodule over the cokernel: each class acts as any
        of its representatives does."""
        r = self.cokernel.ring
        carrier = sorted(int(x) for x in np.nonzero(self.d.map == 0)[0])
        factors, _, coords_b = decompose_abelian(self.b.add, carrier)
        kc = np.array(carrier, dtype=np.int64)
        # b_to_m[x] is the module index of the kernel element x, else -1.
        b_to_m = _preimages(kc, self.b.order)
        add = b_to_m[self.b.add[np.ix_(kc, kc)]]
        neg = b_to_m[self.b.neg[kc]]
        coords = np.array([coords_b[x] for x in carrier], dtype=np.int64)
        lrows, rrows, fail = _class_actions(self, kc)
        if fail:
            raise ESystemError(*fail)
        left, right = b_to_m[lrows], b_to_m[rrows]
        ar = np.arange(len(carrier))
        if not ((left[r.unit] == ar).all() and (right[r.unit] == ar).all()):
            raise ESystemError("kernel-action-unital", (int(r.unit),))
        module = validate_bimodule(r, FinAbGroup(tuple(factors)), add, neg, left, right, coords)
        return KernelModule(module, carrier, b_to_m)

    def describe(self) -> str:
        return (
            f"esystem {self.name}: base order {self.b.order}, "
            f"target order {self.d_ring.order}, regular={is_regular(self)}"
        )


def _action_tables(left, right, nx: int, n: int):
    """The two stacked action tables as int16 arrays, checked to be
    nx x n with entries below n."""
    out = []
    for t, nm in ((left, "left"), (right, "right")):
        t = np.asarray(t, dtype=np.int16)
        if t.shape != (nx, n) or (t.size and (t.min() < 0 or t.max() >= n)):
            raise ESystemError(f"action-{nm}-shape", (nx, n))
        out.append(t)
    return out


def _structure(b, d_ring, d_map, left, right):
    """A unital target, the ring map d and the two action tables: what both
    presentations check before any law."""
    if d_ring.unit is None:
        raise ESystemError("target-unital", ())
    try:
        d = RingHom(b, d_ring, d_map)
    except HomError as e:
        raise ESystemError("structure-map", str(e)) from e
    return d, *_action_tables(left, right, d_ring.order, b.order)


def _raise_first_failure(checks):
    fail = _first_failure(checks)
    if fail:
        raise ESystemError(*fail)


def _esystem_laws(b, d_ring, d_map, tl, tr):
    """The action-system conditions on stacked action tables, in check
    order.  `anncat` proves 2-ring laws from them by name."""
    return [
        # Each theta(x) is a bimultiplication of B.
        ("action-left-additive", _additive, b.add, tl),
        ("action-right-additive", _additive, b.add, tr),
        ("action-left-product", _left_product, b.mul, tl),
        ("action-right-product", _right_product, b.mul, tr),
        ("action-mixed-product", _mixed_product, b.mul, tl, tr),
        # theta is a ring map into the bimultiplication ring.
        ("action-left-additive-in-source", _additive_in_source, b.add, d_ring.add, tl),
        ("action-right-additive-in-source", _additive_in_source, b.add, d_ring.add, tr),
        ("action-left-multiplicative", _left_multiplicative, d_ring.mul, tl),
        ("action-right-multiplicative", _right_multiplicative, d_ring.mul, tr),
        # Acting through d is inner multiplication.
        ("inner-action-left", _through, tl, d_map, b.mul),
        ("inner-action-right", _through, tr, d_map, b.mul.T),
        # d intertwines the action with multiplication in D.
        ("equivariance-left", _equivariant, d_ring.mul, tl, d_map),
        ("equivariance-right", _equivariant, d_ring.mul.T, tr, d_map),
    ]


def validate_esystem(b, d_ring, d_map, theta_left, theta_right, name="es") -> ESystem:
    """Check every axiom; raise ESystemError naming the first violated one."""
    d, tl, tr = _structure(b, d_ring, d_map, theta_left, theta_right)
    _raise_first_failure(_esystem_laws(b, d_ring, d.map, tl, tr))
    return ESystem(name, b, d_ring, d, tl, tr)


def regularity_witness(es: ESystem):
    """None if regular; else which condition fails and where."""
    fail = _first_failure([
        ("unit-action-left", _unital, es.d_ring.unit, es.theta_left),
        ("unit-action-right", _unital, es.d_ring.unit, es.theta_right),
        ("permutability", _permutable, es.theta_left, es.theta_right),
    ])
    if fail and fail[0] != "permutability":
        return fail[0], fail[1][0]  # a unit row reports the bare element
    return fail


def is_regular(es: ESystem) -> bool:
    return regularity_witness(es) is None


def _require_regular(es: ESystem) -> None:
    w = regularity_witness(es)
    if w is not None:
        raise ESystemError("not-regular", w)


@dataclass(eq=False)
class CrossedBimodule:
    name: str
    b: FiniteRing
    d_ring: FiniteRing
    d: RingHom
    left: np.ndarray
    right: np.ndarray


def _bimodule_laws(add, ring: FiniteRing, left, right):
    """The unital ring-bimodule conditions on stacked action tables over
    `ring`, in check order."""
    return [
        ("bimodule-left-additive-in-ring", _additive_in_source, add, ring.add, left),
        ("bimodule-left-additive", _additive, add, left),
        ("bimodule-right-additive-in-ring", _additive_in_source, add, ring.add, right),
        ("bimodule-right-additive", _additive, add, right),
        ("bimodule-left-associative", _left_multiplicative, ring.mul, left),
        ("bimodule-right-associative", _right_multiplicative, ring.mul, right),
        ("bimodule-mixed-associative", _permutable, left, right),
        ("bimodule-left-unital", _unital, ring.unit, left),
        ("bimodule-right-unital", _unital, ring.unit, right),
    ]


def validate_crossed_bimodule(b, d_ring, d_map, left, right, name="xb") -> CrossedBimodule:
    d, lf, rt = _structure(b, d_ring, d_map, left, right)
    _raise_first_failure(_bimodule_laws(b.add, d_ring, lf, rt) + [
        # d is equivariant.
        ("equivariance-left", _equivariant, d_ring.mul, lf, d.map),
        ("equivariance-right", _equivariant, d_ring.mul.T, rt, d.map),
        # Peiffer law: acting through d(c) is multiplying by c.
        ("peiffer-left", _through, lf, d.map, b.mul),
        ("peiffer-right", _through, rt, d.map, b.mul.T),
    ])
    return CrossedBimodule(name, b, d_ring, d, lf, rt)


def es_to_xb(es: ESystem) -> CrossedBimodule:
    """Regular action systems are crossed bimodules; refuse otherwise."""
    _require_regular(es)
    return validate_crossed_bimodule(
        es.b, es.d_ring, es.d.map, es.theta_left, es.theta_right, name=es.name
    )


def xb_to_es(xb: CrossedBimodule) -> ESystem:
    es = validate_esystem(xb.b, xb.d_ring, xb.d.map, xb.left, xb.right, name=xb.name)
    _require_regular(es)
    return es


@dataclass(eq=False)
class ESystemMorphism:
    """Pair of ring maps (on bases and on targets) commuting with the
    structure maps and the actions; the target-level map must be unital."""

    source: ESystem
    target: ESystem
    f1: RingHom
    f0: RingHom


def _morphism_maps(src, tgt, src_tables, tgt_tables, f1_map, f0_map):
    """The ring maps (f1 on bases, f0 on targets) of a morphism between two
    systems whose actions are the stacked (left, right) tables given."""
    try:
        f1 = RingHom(src.b, tgt.b, f1_map)
        f0 = RingHom(src.d_ring, tgt.d_ring, f0_map)
    except HomError as e:
        raise ESystemError("morphism-hom", str(e)) from e
    _check_morphism(src.d, tgt.d, src_tables, tgt_tables, f1.map, f0)
    return f1, f0


def _check_morphism(src_d, tgt_d, src_tables, tgt_tables, f1, f0: RingHom):
    """The morphism conditions on ring maps already built: f0 (on targets)
    is unital, f0 after src_d equals tgt_d after f1 (on bases, an index
    array), and the two intertwine the stacked (left, right) actions."""
    if not f0.unital:
        raise ESystemError("morphism-target-unit", (f0.source.unit,))
    _raise_first_failure([
        ("morphism-square", np.equal, f0.map[src_d.map], tgt_d.map[f1]),
        ("morphism-action-left", _intertwined, f1, f0.map, src_tables[0], tgt_tables[0]),
        ("morphism-action-right", _intertwined, f1, f0.map, src_tables[1], tgt_tables[1]),
    ])


def validate_morphism(src: ESystem, tgt: ESystem, f1_map, f0_map) -> ESystemMorphism:
    f1, f0 = _morphism_maps(src, tgt, (src.theta_left, src.theta_right),
                            (tgt.theta_left, tgt.theta_right), f1_map, f0_map)
    return ESystemMorphism(src, tgt, f1, f0)


def identity_morphism(es: ESystem) -> ESystemMorphism:
    return validate_morphism(es, es, identity_hom(es.b).map, identity_hom(es.d_ring).map)


def compose_morphisms(g: ESystemMorphism, f: ESystemMorphism) -> ESystemMorphism:
    """g after f."""
    if f.target is not g.source:
        raise ESystemError("composable", (f.target.name, g.source.name))
    return validate_morphism(
        f.source, g.target, g.f1.map[f.f1.map], g.f0.map[f.f0.map]
    )


@dataclass(eq=False)
class XBMorphism:
    """Morphism of crossed bimodules: equivariant ring maps over a square."""

    source: CrossedBimodule
    target: CrossedBimodule
    f1: RingHom
    f0: RingHom


def validate_xb_morphism(src: CrossedBimodule, tgt: CrossedBimodule, f1_map, f0_map) -> XBMorphism:
    f1, f0 = _morphism_maps(src, tgt, (src.left, src.right), (tgt.left, tgt.right),
                            f1_map, f0_map)
    return XBMorphism(src, tgt, f1, f0)


def compose_xb_morphisms(g: XBMorphism, f: XBMorphism) -> XBMorphism:
    """g after f."""
    if f.target is not g.source:
        raise ESystemError("composable", (f.target.name, g.source.name))
    return validate_xb_morphism(f.source, g.target, g.f1.map[f.f1.map], g.f0.map[f.f0.map])


def es_to_xb_morphism(m: ESystemMorphism, src: CrossedBimodule | None = None,
                      tgt: CrossedBimodule | None = None) -> XBMorphism:
    """Reinterpret an E-system morphism over the converted endpoints.

    The compatibility conditions on the two sides coincide once the actions
    are identified; validation is redone against the bimodule formulation
    rather than assumed."""
    src = src if src is not None else es_to_xb(m.source)
    tgt = tgt if tgt is not None else es_to_xb(m.target)
    return validate_xb_morphism(src, tgt, m.f1.map, m.f0.map)


def xb_to_es_morphism(m: XBMorphism, src: ESystem | None = None,
                      tgt: ESystem | None = None) -> ESystemMorphism:
    src = src if src is not None else xb_to_es(m.source)
    tgt = tgt if tgt is not None else xb_to_es(m.target)
    return validate_morphism(src, tgt, m.f1.map, m.f0.map)


# ---------------------------------------------------------------------------
# Stock constructions.


def ideal_esystem(d_ring: FiniteRing, subset, name: str | None = None) -> ESystem:
    """A two-sided ideal sitting inside its ambient ring, acting by
    ambient multiplication."""
    b, emb = subring(d_ring, subset)
    tl, tr = _ideal_actions(d_ring, emb)
    ok = (tl >= 0) & (tr >= 0)
    if not ok.all():
        x, c = _first_bad(ok)
        raise ESystemError("not-an-ideal", (x, int(emb[c])))
    return validate_esystem(b, d_ring, emb, tl, tr, name=name or f"ideal_{d_ring.name}")


def identity_esystem(r: FiniteRing, name: str | None = None) -> ESystem:
    """B = D with d the identity; the action is forced to be inner."""
    return validate_esystem(
        r, r, np.arange(r.order, dtype=np.int16), r.mul, r.mul.T, name=name or f"id_{r.name}"
    )


def multiplier_esystem(b: FiniteRing, name: str | None = None) -> ESystem:
    """D = the full bimultiplication ring of B, d = inner, action tautological."""
    mb = bimult_ring(b)
    return validate_esystem(b, mb.ring, inner_hom(mb).map, mb.left, mb.right,
                            name=name or f"mult_{b.name}")


def bimodule_esystem(module: "Bimodule", name: str | None = None) -> ESystem:
    """Zero structure map over a bimodule: B is the module's additive group
    with all products zero, and the action comes straight from the module."""
    m = module.order
    b = validate_ring(module.add, np.zeros((m, m), int), None,
                      name=f"zero_{module.ring.name}_mod")
    d_map = np.zeros(m, dtype=np.int16)
    return validate_esystem(
        b, module.ring, d_map, module.left, module.right,
        name=name or f"mod_{module.ring.name}",
    )


def _class_actions(es: ESystem, kernel: np.ndarray):
    """How each cokernel class acts on Ker d, read off its least member,
    and the first (condition, witness) at which some other member acts
    differently or a class moves the kernel out of itself (None if
    neither happens)."""
    quo = es.cokernel
    proj = quo.projection.map
    reps = _preimages(proj, quo.ring.order)
    lrows, rrows = es.theta_left[:, kernel], es.theta_right[:, kernel]
    lrep, rrep = lrows[reps], rrows[reps]
    agree = (lrows == lrep[proj]).all(axis=1) & (rrows == rrep[proj]).all(axis=1)
    constant = np.ones(len(reps), dtype=bool)
    constant[proj[~agree]] = False
    fail = _first_failure([
        ("kernel-action-constant", np.asarray, constant),
        ("kernel-action-closed", np.asarray, np.isin(lrep, kernel) & np.isin(rrep, kernel)),
    ])
    return lrep, rrep, fail


def coker_action_well_defined(es: ESystem) -> bool:
    """Do all representatives of each coset act identically on Ker d?

    This is the representative-independence part of the induced-module
    construction alone; the full bimodule axioms may still fail when the
    system is not regular."""
    kernel = np.nonzero(es.d.map == 0)[0]
    return _class_actions(es, kernel)[2] is None


# ---------------------------------------------------------------------------
# The kernel of d as a bimodule over the cokernel of d.


@dataclass(eq=False)
class Bimodule:
    """A finite unital ring acting on both sides of a finite abelian group.

    Elements of the module are plain indices 0..order-1 with 0 the zero;
    `coords` gives each element's coordinates in `group`; `by_code[k]` is
    the element whose reduced coordinates have mixed-radix code k, the
    dot product with `strides`.
    """

    ring: FiniteRing
    group: FinAbGroup
    add: np.ndarray
    neg: np.ndarray
    left: np.ndarray
    right: np.ndarray
    coords: np.ndarray
    by_code: np.ndarray = field(repr=False)
    strides: np.ndarray = field(repr=False)

    @property
    def order(self) -> int:
        return int(self.add.shape[0])

    def elements_at(self, coords) -> np.ndarray:
        """The elements with the coordinates along the last axis of
        `coords`, taken modulo the factors."""
        factors = np.asarray(self.group.factors, dtype=np.int64)
        return self.by_code[(np.asarray(coords, dtype=np.int64) % factors) @ self.strides]

    def from_coords(self, c) -> int:
        return int(self.elements_at(c))


def validate_bimodule(ring, group, add, neg, left, right, coords) -> Bimodule:
    add = np.asarray(add, dtype=np.int16)
    m = group.order
    if add.shape != (m, m) or np.shape(neg) != (m,) or np.shape(coords) != (m, group.rank):
        raise ESystemError("group-shape", (m,))
    _check_group(add)
    return _bimodule_over_group(ring, group, add, neg, left, right, coords)


def _check_group(add) -> FiniteRing:
    """The table as a zero ring; raise ESystemError("group-<axiom>",
    witness) unless it is an abelian group's addition with 0 as its zero."""
    try:
        return validate_ring(add, np.zeros_like(add))
    except RingAxiomError as e:
        raise ESystemError(f"group-{e.condition}", e.witness) from e


def _bimodule_over_group(ring, group, add, neg, left, right, coords) -> Bimodule:
    """validate_bimodule's checks after the shapes and the group axioms,
    which the caller has checked on `add` as an int16 table."""
    neg = np.asarray(neg, dtype=np.int16)
    coords = np.asarray(coords, dtype=np.int64)
    m = group.order
    if ring.unit is None:
        raise ESystemError("ring-unital", ())
    left, right = _action_tables(left, right, ring.order, m)
    # Coordinates are compared through their mixed-radix codes; pos[k] is
    # the first element whose code is k.
    factors = np.asarray(group.factors, dtype=np.int64)
    strides = np.array([math.prod(group.factors[i + 1:]) for i in range(group.rank)], np.int64)
    red = coords % factors
    codes = red @ strides
    pos = _preimages(codes, m)
    sums = ((red[:, None, :] + red[None, :, :]) % factors) @ strides
    _raise_first_failure([
        ("group-negation", np.equal, add[np.arange(m), neg], 0),
        *_bimodule_laws(add, ring, left, right),
        # coords must enumerate the group bijectively and additively (so 0
        # sits at the origin).
        ("coords-bijective", np.equal, pos[codes], np.arange(m)),
        ("coords-additive", np.equal, pos[sums], add),
    ])
    return Bimodule(ring, group, add, neg, left, right, coords, pos, strides)


@dataclass(eq=False)
class KernelModule:
    """Kernel of the structure map as a bimodule over its cokernel, as
    `ESystem.kernel_module` builds it: `carrier` lists the kernel's base
    elements in module order, and `b_to_m` sends a base element to its
    module index, or -1 off the kernel."""

    module: Bimodule
    carrier: list[int]
    b_to_m: np.ndarray
