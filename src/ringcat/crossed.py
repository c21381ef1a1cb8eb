"""Rings acting on rings: action systems and crossed bimodules.

An action system is a ring map d from a base ring B into a unital ring D,
together with a D-indexed family of bimultiplications of B (the action),
subject to two compatibility laws: acting through d is inner
multiplication, and d intertwines the action with multiplication in D.

A crossed bimodule is the stricter classical notion: B is a unital
D-bimodule and d is equivariant, with the Peiffer law making B's own
product redundant.  Regular action systems (identity acts as identity,
action images pairwise permutable) are exactly crossed bimodules, and the
two validators plus converters below witness that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ablin import FinAbGroup
from .bimult import Bimult, bimult_ring, inner_hom, validate_bimult
from .rings import (
    FiniteRing,
    HomError,
    IdealQuotient,
    RingHom,
    _first_bad,
    decompose_abelian,
    ideal_cokernel,
    identity_hom,
    subring,
    validate_ring,
)


class ESystemError(ValueError):
    def __init__(self, axiom: str, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} fails at {witness}")


@dataclass(eq=False)
class ESystem:
    name: str
    b: FiniteRing
    d_ring: FiniteRing
    d: RingHom
    theta_left: np.ndarray
    theta_right: np.ndarray

    def theta(self, x: int) -> Bimult:
        return Bimult(
            tuple(int(v) for v in self.theta_left[x]),
            tuple(int(v) for v in self.theta_right[x]),
        )

    def describe(self) -> str:
        return (
            f"esystem {self.name}: base order {self.b.order}, "
            f"target order {self.d_ring.order}, regular={is_regular(self)}"
        )


def validate_esystem(b, d_ring, d_map, theta_left, theta_right, name="es") -> ESystem:
    """Check every axiom; raise ESystemError naming the first violated one."""
    if d_ring.unit is None:
        raise ESystemError("target-unital", ())
    try:
        d = RingHom(b, d_ring, d_map)
    except HomError as e:
        raise ESystemError("structure-map", str(e)) from e
    tl = np.asarray(theta_left, dtype=np.int16)
    tr = np.asarray(theta_right, dtype=np.int16)
    nb, nd = b.order, d_ring.order
    for t, nm in ((tl, "left"), (tr, "right")):
        if t.shape != (nd, nb) or (t.size and (t.min() < 0 or t.max() >= nb)):
            raise ESystemError(f"action-{nm}-shape", (nd, nb))
    ar = np.arange(nb)

    # Each theta(x) is a bimultiplication of B.
    ok = tl[:, b.add] == b.add[tl[:, :, None], tl[:, None, :]]
    if not ok.all():
        raise ESystemError("action-left-additive", _first_bad(ok))
    ok = tr[:, b.add] == b.add[tr[:, :, None], tr[:, None, :]]
    if not ok.all():
        raise ESystemError("action-right-additive", _first_bad(ok))
    ok = tl[:, b.mul] == b.mul[tl[:, :, None], ar[None, None, :]]
    if not ok.all():
        raise ESystemError("action-left-product", _first_bad(ok))
    ok = tr[:, b.mul] == b.mul[ar[None, :, None], tr[:, None, :]]
    if not ok.all():
        raise ESystemError("action-right-product", _first_bad(ok))
    ok = b.mul[ar[None, :, None], tl[:, None, :]] == b.mul[tr[:, :, None], ar[None, None, :]]
    if not ok.all():
        raise ESystemError("action-mixed-product", _first_bad(ok))

    # theta is a ring map into the bimultiplication ring.
    ok = tl[d_ring.add] == b.add[tl[:, None, :], tl[None, :, :]]
    if not ok.all():
        raise ESystemError("action-left-additive-in-source", _first_bad(ok))
    ok = tr[d_ring.add] == b.add[tr[:, None, :], tr[None, :, :]]
    if not ok.all():
        raise ESystemError("action-right-additive-in-source", _first_bad(ok))
    xs = np.arange(nd)
    ok = tl[d_ring.mul] == tl[xs[:, None, None], tl[xs[None, :, None], ar[None, None, :]]]
    if not ok.all():
        raise ESystemError("action-left-multiplicative", _first_bad(ok))
    ok = tr[d_ring.mul] == tr[xs[None, :, None], tr[xs[:, None, None], ar[None, None, :]]]
    if not ok.all():
        raise ESystemError("action-right-multiplicative", _first_bad(ok))

    # Acting through d is inner multiplication.
    ok = tl[d.map] == b.mul
    if not ok.all():
        raise ESystemError("inner-action-left", _first_bad(ok))
    ok = tr[d.map] == b.mul.T
    if not ok.all():
        raise ESystemError("inner-action-right", _first_bad(ok))

    # d intertwines the action with multiplication in D.
    ok = d.map[tl] == d_ring.mul[xs[:, None], d.map[None, :]]
    if not ok.all():
        raise ESystemError("equivariance-left", _first_bad(ok))
    ok = d.map[tr] == d_ring.mul[d.map[None, :], xs[:, None]]
    if not ok.all():
        raise ESystemError("equivariance-right", _first_bad(ok))
    return ESystem(name, b, d_ring, d, tl, tr)


def regularity_witness(es: ESystem):
    """None if regular; else which condition fails and where."""
    one = es.d_ring.unit
    ar = np.arange(es.b.order)
    if not (es.theta_left[one] == ar).all():
        return ("unit-action-left", int(np.nonzero(es.theta_left[one] != ar)[0][0]))
    if not (es.theta_right[one] == ar).all():
        return ("unit-action-right", int(np.nonzero(es.theta_right[one] != ar)[0][0]))
    tl, tr = es.theta_left, es.theta_right
    xs = np.arange(es.d_ring.order)
    # theta(x)(a theta(y)) == (theta(x) a) theta(y) for all x, y, a
    ok = tl[xs[:, None, None], tr[xs[None, :, None], ar[None, None, :]]] == tr[
        xs[None, :, None], tl[xs[:, None, None], ar[None, None, :]]
    ]
    if not ok.all():
        x, y, a = _first_bad(ok)
        return ("permutability", (x, y, a))
    return None


def is_regular(es: ESystem) -> bool:
    return regularity_witness(es) is None


@dataclass(eq=False)
class CrossedBimodule:
    name: str
    b: FiniteRing
    d_ring: FiniteRing
    d: RingHom
    left: np.ndarray
    right: np.ndarray


def validate_crossed_bimodule(b, d_ring, d_map, left, right, name="xb") -> CrossedBimodule:
    if d_ring.unit is None:
        raise ESystemError("target-unital", ())
    try:
        d = RingHom(b, d_ring, d_map)
    except HomError as e:
        raise ESystemError("structure-map", str(e)) from e
    lf = np.asarray(left, dtype=np.int16)
    rt = np.asarray(right, dtype=np.int16)
    nb, nd = b.order, d_ring.order
    for t, nm in ((lf, "left"), (rt, "right")):
        if t.shape != (nd, nb) or (t.size and (t.min() < 0 or t.max() >= nb)):
            raise ESystemError(f"action-{nm}-shape", (nd, nb))
    xs, ar = np.arange(nd), np.arange(nb)

    # Unital D-bimodule structure on (B, +).
    ok = lf[d_ring.add] == b.add[lf[:, None, :], lf[None, :, :]]
    if not ok.all():
        raise ESystemError("bimodule-left-additive-in-ring", _first_bad(ok))
    ok = lf[:, b.add] == b.add[lf[:, :, None], lf[:, None, :]]
    if not ok.all():
        raise ESystemError("bimodule-left-additive", _first_bad(ok))
    ok = rt[d_ring.add] == b.add[rt[:, None, :], rt[None, :, :]]
    if not ok.all():
        raise ESystemError("bimodule-right-additive-in-ring", _first_bad(ok))
    ok = rt[:, b.add] == b.add[rt[:, :, None], rt[:, None, :]]
    if not ok.all():
        raise ESystemError("bimodule-right-additive", _first_bad(ok))
    ok = lf[d_ring.mul] == lf[xs[:, None, None], lf[xs[None, :, None], ar[None, None, :]]]
    if not ok.all():
        raise ESystemError("bimodule-left-associative", _first_bad(ok))
    ok = rt[d_ring.mul] == rt[xs[None, :, None], rt[xs[:, None, None], ar[None, None, :]]]
    if not ok.all():
        raise ESystemError("bimodule-right-associative", _first_bad(ok))
    ok = rt[xs[None, :, None], lf[xs[:, None, None], ar[None, None, :]]] == lf[
        xs[:, None, None], rt[xs[None, :, None], ar[None, None, :]]
    ]
    if not ok.all():
        raise ESystemError("bimodule-mixed-associative", _first_bad(ok))
    one = d_ring.unit
    if not (lf[one] == ar).all():
        raise ESystemError("bimodule-left-unital", (int(np.nonzero(lf[one] != ar)[0][0]),))
    if not (rt[one] == ar).all():
        raise ESystemError("bimodule-right-unital", (int(np.nonzero(rt[one] != ar)[0][0]),))

    # d is equivariant.
    ok = d.map[lf] == d_ring.mul[xs[:, None], d.map[None, :]]
    if not ok.all():
        raise ESystemError("equivariance-left", _first_bad(ok))
    ok = d.map[rt] == d_ring.mul[d.map[None, :], xs[:, None]]
    if not ok.all():
        raise ESystemError("equivariance-right", _first_bad(ok))

    # Peiffer law: acting through d(c) is multiplying by c.
    ok = lf[d.map] == b.mul
    if not ok.all():
        raise ESystemError("peiffer-left", _first_bad(ok))
    ok = rt[d.map] == b.mul.T
    if not ok.all():
        raise ESystemError("peiffer-right", _first_bad(ok))
    return CrossedBimodule(name, b, d_ring, d, lf, rt)


def es_to_xb(es: ESystem) -> CrossedBimodule:
    """Regular action systems are crossed bimodules; refuse otherwise."""
    w = regularity_witness(es)
    if w is not None:
        raise ESystemError("not-regular", w)
    return validate_crossed_bimodule(
        es.b, es.d_ring, es.d.map, es.theta_left, es.theta_right, name=es.name
    )


def xb_to_es(xb: CrossedBimodule) -> ESystem:
    es = validate_esystem(xb.b, xb.d_ring, xb.d.map, xb.left, xb.right, name=xb.name)
    assert is_regular(es)
    return es


@dataclass(eq=False)
class ESystemMorphism:
    """Pair of ring maps (on bases and on targets) commuting with the
    structure maps and the actions; the target-level map must be unital."""

    source: ESystem
    target: ESystem
    f1: RingHom
    f0: RingHom


def validate_morphism(src: ESystem, tgt: ESystem, f1_map, f0_map) -> ESystemMorphism:
    try:
        f1 = RingHom(src.b, tgt.b, f1_map)
        f0 = RingHom(src.d_ring, tgt.d_ring, f0_map)
    except HomError as e:
        raise ESystemError("morphism-hom", str(e)) from e
    if not f0.unital:
        raise ESystemError("morphism-target-unit", (src.d_ring.unit,))
    ok = f0.map[src.d.map] == tgt.d.map[f1.map]
    if not ok.all():
        raise ESystemError("morphism-square", (int(np.nonzero(~ok)[0][0]),))
    ok = f1.map[src.theta_left] == tgt.theta_left[f0.map[:, None], f1.map[None, :]]
    if not ok.all():
        raise ESystemError("morphism-action-left", _first_bad(ok))
    ok = f1.map[src.theta_right] == tgt.theta_right[f0.map[:, None], f1.map[None, :]]
    if not ok.all():
        raise ESystemError("morphism-action-right", _first_bad(ok))
    return ESystemMorphism(src, tgt, f1, f0)


def identity_morphism(es: ESystem) -> ESystemMorphism:
    return validate_morphism(es, es, identity_hom(es.b).map, identity_hom(es.d_ring).map)


def compose_morphisms(g: ESystemMorphism, f: ESystemMorphism) -> ESystemMorphism:
    """g after f."""
    assert f.target is g.source
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
    try:
        f1 = RingHom(src.b, tgt.b, f1_map)
        f0 = RingHom(src.d_ring, tgt.d_ring, f0_map)
    except HomError as e:
        raise ESystemError("morphism-hom", str(e)) from e
    if not f0.unital:
        raise ESystemError("morphism-target-unit", (src.d_ring.unit,))
    ok = f0.map[src.d.map] == tgt.d.map[f1.map]
    if not ok.all():
        raise ESystemError("morphism-square", (int(np.nonzero(~ok)[0][0]),))
    ok = f1.map[src.left] == tgt.left[f0.map[:, None], f1.map[None, :]]
    if not ok.all():
        raise ESystemError("morphism-action-left", _first_bad(ok))
    ok = f1.map[src.right] == tgt.right[f0.map[:, None], f1.map[None, :]]
    if not ok.all():
        raise ESystemError("morphism-action-right", _first_bad(ok))
    return XBMorphism(src, tgt, f1, f0)


def compose_xb_morphisms(g: XBMorphism, f: XBMorphism) -> XBMorphism:
    """g after f."""
    assert f.target is g.source
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
    pos = {int(e): i for i, e in enumerate(emb)}
    nd = d_ring.order
    tl = np.zeros((nd, b.order), dtype=np.int16)
    tr = np.zeros((nd, b.order), dtype=np.int16)
    for x in range(nd):
        for c in range(b.order):
            p = int(d_ring.mul[x, emb[c]])
            q = int(d_ring.mul[emb[c], x])
            if p not in pos or q not in pos:
                raise ESystemError("not-an-ideal", (x, int(emb[c])))
            tl[x, c] = pos[p]
            tr[x, c] = pos[q]
    return validate_esystem(b, d_ring, emb, tl, tr, name=name or f"ideal_{d_ring.name}")


def identity_esystem(r: FiniteRing, name: str | None = None) -> ESystem:
    """B = D with d the identity; the action is forced to be inner."""
    assert r.unit is not None
    return validate_esystem(
        r, r, np.arange(r.order, dtype=np.int16), r.mul, r.mul.T, name=name or f"id_{r.name}"
    )


def multiplier_esystem(b: FiniteRing, name: str | None = None) -> ESystem:
    """D = the full bimultiplication ring of B, d = inner, action tautological."""
    mb = bimult_ring(b)
    h = inner_hom(mb)
    nd = mb.ring.order
    tl = np.zeros((nd, b.order), dtype=np.int16)
    tr = np.zeros((nd, b.order), dtype=np.int16)
    for x, s in enumerate(mb.elements):
        tl[x] = s.left
        tr[x] = s.right
    return validate_esystem(b, mb.ring, h.map, tl, tr, name=name or f"mult_{b.name}")


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


def coker_action_well_defined(es: ESystem) -> bool:
    """Do all representatives of each coset act identically on Ker d?

    This is the representative-independence part of the induced-module
    construction alone; the full bimodule axioms may still fail when the
    system is not regular."""
    quo = ideal_cokernel(es.d)
    kernel = np.nonzero(es.d.map == 0)[0]
    for cls in range(quo.ring.order):
        members = np.nonzero(quo.projection.map == np.int64(cls))[0]
        lrows = es.theta_left[members][:, kernel]
        rrows = es.theta_right[members][:, kernel]
        if not ((lrows == lrows[0]).all() and (rrows == rrows[0]).all()):
            return False
        if not (np.isin(lrows[0], kernel).all() and np.isin(rrows[0], kernel).all()):
            return False
    return True


# ---------------------------------------------------------------------------
# The kernel of d as a bimodule over the cokernel of d.


@dataclass(eq=False)
class Bimodule:
    """A finite unital ring acting on both sides of a finite abelian group.

    Elements of the module are plain indices 0..order-1 with 0 the zero;
    `coords` gives each element's coordinates in `group`.
    """

    ring: FiniteRing
    group: FinAbGroup
    add: np.ndarray
    neg: np.ndarray
    left: np.ndarray
    right: np.ndarray
    coords: np.ndarray
    index: dict = field(repr=False)

    @property
    def order(self) -> int:
        return int(self.add.shape[0])

    def from_coords(self, c) -> int:
        return self.index[tuple(int(v) for v in self.group.reduce(c))]


def validate_bimodule(ring, group, add, neg, left, right, coords) -> Bimodule:
    add = np.asarray(add, dtype=np.int16)
    neg = np.asarray(neg, dtype=np.int16)
    left = np.asarray(left, dtype=np.int16)
    right = np.asarray(right, dtype=np.int16)
    coords = np.asarray(coords, dtype=np.int64)
    m = add.shape[0]
    assert m == group.order
    ar, xs = np.arange(m), np.arange(ring.order)
    assert (add == add.T).all() and (add[0] == ar).all()
    assert (add[add[:, :, None], ar[None, None, :]] == add[ar[:, None, None], add[None, :, :]]).all()
    assert (add[ar, neg] == 0).all()
    assert ring.unit is not None
    for t, nm in ((left, "left"), (right, "right")):
        assert t.shape == (ring.order, m), nm
        assert (t[ring.unit] == ar).all(), f"{nm} action not unital"
        assert (t[ring.add] == add[t[:, None, :], t[None, :, :]]).all(), f"{nm} not additive in ring"
        assert (t[:, add] == add[t[:, :, None], t[:, None, :]]).all(), f"{nm} not additive"
    assert (left[ring.mul] == left[xs[:, None, None], left[xs[None, :, None], ar[None, None, :]]]).all()
    assert (right[ring.mul] == right[xs[None, :, None], right[xs[:, None, None], ar[None, None, :]]]).all()
    assert (
        right[xs[None, :, None], left[xs[:, None, None], ar[None, None, :]]]
        == left[xs[:, None, None], right[xs[None, :, None], ar[None, None, :]]]
    ).all()
    # coords must enumerate the group bijectively, 0 at the origin.
    index = {}
    for i in range(m):
        key = tuple(int(v) for v in group.reduce(coords[i]))
        assert key not in index
        index[key] = i
    assert index[tuple(group.zero())] == 0
    for i in range(m):
        for j in range(m):
            s = group.reduce(coords[i] + coords[j])
            assert index[tuple(int(v) for v in s)] == add[i, j]
    return Bimodule(ring, group, add, neg, left, right, coords, index)


@dataclass(eq=False)
class KernelModule:
    """Kernel of the structure map as a bimodule over its cokernel."""

    es: ESystem
    module: Bimodule
    quotient: IdealQuotient
    carrier: list[int]
    b_to_m: dict

    def in_kernel(self, b_elem: int) -> bool:
        return b_elem in self.b_to_m


def induced_kernel_module(es: ESystem, name: str | None = None) -> KernelModule:
    quo = ideal_cokernel(es.d, name=name or f"coker_{es.name}")
    r = quo.ring
    kernel = sorted(int(x) for x in np.nonzero(es.d.map == 0)[0])
    factors, gens, coords_b = decompose_abelian(es.b.add, kernel)
    group = FinAbGroup(tuple(factors))
    carrier = kernel
    b_to_m = {b: i for i, b in enumerate(carrier)}
    m = len(carrier)
    kc = np.array(carrier, dtype=np.int64)
    add = np.zeros((m, m), dtype=np.int16)
    for i, x in enumerate(carrier):
        row = es.b.add[x, kc]
        add[i] = [b_to_m[int(v)] for v in row]
    neg = np.array([b_to_m[int(es.b.neg[x])] for x in carrier], dtype=np.int16)
    coords = np.array([coords_b[x] for x in carrier], dtype=np.int64)

    # The action of a class is the action of any representative; check that
    # every representative agrees and stays inside the kernel.
    left = np.zeros((r.order, m), dtype=np.int16)
    right = np.zeros((r.order, m), dtype=np.int16)
    for cls in range(r.order):
        members = [x for x in range(es.d_ring.order) if quo.projection.map[x] == cls]
        lrows = es.theta_left[np.array(members)][:, kc]
        rrows = es.theta_right[np.array(members)][:, kc]
        assert (lrows == lrows[0]).all() and (rrows == rrows[0]).all(), (
            f"action not constant on class {cls}"
        )
        for i in range(m):
            lv, rv = int(lrows[0, i]), int(rrows[0, i])
            assert lv in b_to_m and rv in b_to_m, f"action leaves kernel at {(cls, i)}"
            left[cls, i] = b_to_m[lv]
            right[cls, i] = b_to_m[rv]
    ar = np.arange(m)
    if not ((left[r.unit] == ar).all() and (right[r.unit] == ar).all()):
        raise ESystemError("kernel-action-unital", (int(r.unit),))
    module = validate_bimodule(r, group, add, neg, left, right, coords)
    return KernelModule(es, module, quo, carrier, b_to_m)
