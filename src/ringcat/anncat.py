"""The strict 2-ring carried by an action system, and its axiom checker.

Objects are the elements of the target ring D.  A morphism x -> y is a
base element b with y = d(b) + x, written (b, x).  Vertical composition
adds base parts, morphism addition is componentwise, and the tensor of
(b, x) and (b', x') is (bb' + b.theta(x') + theta(x).b', xx').

The checker re-evaluates every categorical law directly on the tables,
without assuming the action system validates, so it doubles as a detector
for corrupted inputs.  The associativity of each addition table (laws
add-associative and compose-associative) is proved by Light's test on
additive generators and scanned only when that test fails, as in
`rings.validate_ring`.  Every other law the checker can prove is listed
in `_PROOFS` with the named conditions of lower arity that prove it
(`_conditions`, the action-system laws among them), each evaluated at
most once per check and only when a law reached names it.  Add-interchange
and tensor-cod are scanned, as one grid each, only when their proof
fails.  Laws quantified over three or more morphisms (tensor-interchange,
tensor-associative and the two distributive laws) are split into chunks
over the first object x1, proved chunk by chunk.  Only the unproved
chunks are scanned, in ascending x1, each in C-order slabs of at most
`rings.BLOCK_CELLS` cells (`_scan`) up to the first slab that holds a
failure.  The report, first witness in scan order and cells checked
included, is the one a scan of every chunk gives: proved cells count as
checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ablin import CELL_LIMIT, _guard
from .bimult import _additive, _additive_in_source, _left_multiplicative, _permutable
from .crossed import ESystem, ESystemMorphism, _esystem_laws, validate_esystem, validate_morphism
from .rings import BLOCK_CELLS, _assoc_failure, _first_bad, _sum_generators, validate_ring


@dataclass
class LawResult:
    law: str
    ok: bool
    witness: tuple | None
    checked: int


@dataclass
class CheckReport:
    name: str
    results: list[LawResult]
    complete: bool

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list[LawResult]:
        return [r for r in self.results if not r.ok]

    def describe(self) -> str:
        lines = [f"2-ring laws for {self.name}:"]
        for r in self.results:
            if r.ok:
                lines.append(f"  {r.law}: ok ({r.checked} instances)")
            else:
                lines.append(f"  {r.law}: FAIL at {r.witness}")
        if not self.complete:
            lines.append("  (stopped at first failure)")
        return "\n".join(lines)


def _tensor(es: ESystem, b1, x1, b2, x2):
    """Base part of (b1, x1) (x) (b2, x2), elementwise over broadcast index
    arrays, bracketed (b1.b2 + rho_x2(b1)) + lambda_x1(b2)."""
    add = es.b.add
    return add[add[es.b.mul[b1, b2], es.theta_right[x2, b1]], es.theta_left[x1, b2]]


class AnnCategory:
    """Computed view of the 2-ring; morphisms are (base, source) pairs."""

    def __init__(self, es: ESystem):
        self.es = es
        self.objects = range(es.d_ring.order)

    def target(self, f):
        b, x = f
        return int(self.es.d_ring.add[self.es.d.map[b], x])

    def identity(self, x):
        return (0, x)

    def hom(self, x, y):
        return [(b, x) for b in range(self.es.b.order) if self.target((b, x)) == y]

    def compose(self, g, f):
        """g after f; sources must match up."""
        if g[1] != self.target(f):
            raise ValueError(f"not composable: {f} then {g}")
        return (int(self.es.b.add[f[0], g[0]]), f[1])

    def add(self, f, g):
        return (
            int(self.es.b.add[f[0], g[0]]),
            int(self.es.d_ring.add[f[1], g[1]]),
        )

    def neg(self, f):
        return (int(self.es.b.neg[f[0]]), int(self.es.d_ring.neg[f[1]]))

    def tensor(self, f, g):
        b = _tensor(self.es, f[0], f[1], g[0], g[1])
        return (int(b), int(self.es.d_ring.mul[f[1], g[1]]))


def anncat_to_esystem(ac: AnnCategory, name: str | None = None) -> ESystem:
    """Read the action system back off the categorical operations.

    The base is the set of morphisms out of 0, d is the target map, and
    the action tensors with identity morphisms.  Returns an equal-tables
    copy of the underlying system.
    """
    es = ac.es
    nb, nd = es.b.order, es.d_ring.order
    out0 = [(b, 0) for b in range(nb)]
    add = np.zeros((nb, nb), dtype=np.int16)
    mul = np.zeros((nb, nb), dtype=np.int16)
    for b1, x1 in out0:
        for b2, x2 in out0:
            add[b1, b2] = ac.add((b1, x1), (b2, x2))[0]
            mul[b1, b2] = ac.tensor((b1, x1), (b2, x2))[0]
    d_map = np.array([ac.target((b, 0)) for b in range(nb)], dtype=np.int16)
    tl = np.zeros((nd, nb), dtype=np.int16)
    tr = np.zeros((nd, nb), dtype=np.int16)
    for x in ac.objects:
        for b in range(nb):
            tl[x, b] = ac.tensor(ac.identity(x), (b, 0))[0]
            tr[x, b] = ac.tensor((b, 0), ac.identity(x))[0]
    base = validate_ring(add, mul, None if es.b.unit is None else es.b.unit, name=es.b.name)
    return validate_esystem(base, es.d_ring, d_map, tl, tr, name=name or es.name)


# ---------------------------------------------------------------------------
# The axiom checker.


_PROOFS = {
    "add-interchange": ((), ()),
    "tensor-cod": (("d-additive", "d-multiplicative", "equivariance-left", "equivariance-right",
                    "d-distributive-left", "d-distributive-right"), ()),
    "tensor-interchange": (
        ("b-distributive-left", "b-distributive-right", "action-right-additive-in-source",
         "action-right-additive", "inner-action-left", "inner-action-right"),
        ("action-left-additive", "action-left-additive-at-d"),
    ),
    "tensor-associative": (
        ("b-distributive-left", "b-distributive-right", "b-associative", "action-right-additive",
         "action-right-multiplicative", "action-right-product", "action-mixed-product",
         "d-distributive-right"),
        ("action-left-additive", "action-left-multiplicative", "action-left-product",
         "permutability", "d-distributive-left", "d-associative"),
    ),
    "tensor-distributive-left": (
        ("b-distributive-left", "action-right-additive-in-source"),
        ("action-left-additive", "d-distributive-left"),
    ),
    "tensor-distributive-right": (
        ("b-distributive-right", "action-left-additive-in-source"),
        ("action-right-additive", "d-distributive-right"),
    ),
}
"""For each law the checker proves instead of scanning, the conditions of
`_conditions` that prove it, in the order they are evaluated: first those
the whole law needs, then those chunk x1 of a law scanned in chunks over
the first object x1 needs for itself.

Every proof also needs addition in B and D commutative and associative
(laws add-commutative and add-associative), which the checker
establishes first.  Write lam_x = theta_left[x] and rho_x =
theta_right[x], so (b, x) (x) (c, y) has base part
bc + rho_y(b) + lam_x(c), biadditive.  Expanding both sides of a law by
the conditions listed for it turns each side into a sum of the same
terms, matched one for one; with commutative and associative addition
any two bracketings of one family of terms have the same sum.  Where the
conditions hold, every cell of the law, or of its chunk x1, therefore
passes, so a scan of the unproved chunks alone finds the same first
failure as a scan of every chunk.  Morphisms are f_i = (b_i, x_i).

add-interchange, (g o f) + (g' o f') = (g + g') o (f + f') on base parts,
that is (a + b) + (c + d) = (a + c) + (b + d): both sides equal
a + (b + (c + d)) = a + ((b + c) + d) = a + ((c + b) + d)
= a + (c + (b + d)).  It needs nothing more.
tensor-cod, d((b1b2 + rho_x2(b1)) + lam_x1(b2)) + x1x2
= (d(b1) + x1)(d(b2) + x2).  If d is additive and multiplicative on B,
d(lam_x(b)) = x d(b) and d(rho_x(b)) = d(b) x, the left side is
((d(b1)d(b2) + d(b1)x2) + x1d(b2)) + x1x2.  If D is left and right
distributive, the right side is (d(b1)d(b2) + x1d(b2)) + (d(b1)x2 + x1x2),
the same four terms.  The conditions on d, nb^2 and nb*nd cells, come
before D's distributivity.
tensor-interchange, (f1 (x) f2) + (g1 (x) g2) = (f1 + g1) (x) (f2 + g2)
with g_i = (c_i, y_i), y_i = d(b_i) + x_i; terms b1b2, b1c2, c1b2, c1c2,
rho_x2(b1), rho_x2(c1), lam_x1(b2), lam_x1(c2).  The left side's
second summand is c1c2 + rho_y2(c1) + lam_y1(c2).  Additivity in x at
the pair (d(b1), x1) and Peiffer give
lam_y1(c2) = lam_d(b1)(c2) + lam_x1(c2) = b1c2 + lam_x1(c2), and
likewise rho_y2(c1) = c1b2 + rho_x2(c1); x2 runs over all of D in
every chunk, but x1 is fixed, so lam is needed additive in x only at
the pairs (d(b), x1).
  whole law: B left and right distributive; rho additive in x;
    rho_x additive in b; Peiffer lam_d(b)(c) = bc = rho_d(c)(b).
  per x1: lam_x1 additive in b; lam_d(b)+x1 = lam_d(b) + lam_x1 for
    every b.
tensor-associative, (f1 (x) f2) (x) f3 = f1 (x) (f2 (x) f3); terms
(b1b2)b3 = b1(b2b3), rho_x2(b1)b3 = b1 lam_x2(b3),
lam_x1(b2)b3 = lam_x1(b2b3), rho_x3(b1b2) = b1 rho_x3(b2),
rho_x3(rho_x2(b1)) = rho_x2x3(b1), rho_x3(lam_x1(b2)) = lam_x1(rho_x3(b2)),
lam_x1x2(b3) = lam_x1(lam_x2(b3)); objects (x1x2)x3 = x1(x2x3).
  whole law: B distributive and associative; rho_x additive in b;
    rho_xy = rho_y rho_x; rho_x(bc) = b rho_x(c); rho_x(b)c = b lam_x(c).
  per x1: lam_x1 additive in b; lam_x1y = lam_x1 lam_y;
    lam_x1(b)c = lam_x1(bc); rho_y lam_x1 = lam_x1 rho_y
    (permutability); (x1y)z = x1(yz).
tensor-distributive-left, f1 (x) (f2 + f3) = f1 (x) f2 + f1 (x) f3;
terms b1b2, b1b3, rho_x2(b1), rho_x3(b1), lam_x1(b2), lam_x1(b3).
  whole law: B left distributive; rho additive in x.
  per x1: lam_x1 additive in b; x1(y + z) = x1y + x1z.
tensor-distributive-right, (f2 + f3) (x) f1 = f2 (x) f1 + f3 (x) f1;
terms b2b1, b3b1, rho_x1(b2), rho_x1(b3), lam_x2(b1), lam_x3(b1).
  whole law: B right distributive; lam additive in x.
  per x1: rho_x1 additive in b; (y + z)x1 = yx1 + zx1.

D's identities are evaluated with y restricted to a set S of which
every element of D is a nonempty sum (`_sum_generators`).  A map f
with f(s + z) = f(s) + f(z) for all s in S and z in D is additive, by
induction on the length of its argument as a sum; that checks
x1(y + z) = x1y + x1z and (y + z)x1 = yx1 + zx1.  If moreover D is
right distributive and x1(y + z) = x1y + x1z, then y -> (x1y)z and
y -> x1(yz) are additive, so (x1y)z = x1(yz) holds once it holds for
y in S; tensor-associative takes those two as further conditions of the
whole law and of chunk x1.
"""
_PER_X1 = {name for _, per_x1 in _PROOFS.values() for name in per_x1}


def _conditions(es: ESystem, d_gens: np.ndarray) -> list:
    """The conditions `_PROOFS` names, as (condition, grid, *tables) entries
    whose ok-grid is grid(*tables), x on axis 0 where a proof needs one per
    x1: the action-system laws, then identities of B (acting on itself by
    mul), of d and of D, the last on D's sum generators d_gens."""
    tl, tr, dm = es.theta_left, es.theta_right, es.d.map
    ba, bm, da, dmul = es.b.add, es.b.mul, es.d_ring.add, es.d_ring.mul
    ad = np.arange(es.d_ring.order)

    def additive_on_gens(t):
        # ok[x, s, z]: t_x(s + z) == t_x(s) + t_x(z), s a generator
        return t[:, da[d_gens]] == da[t[:, d_gens, None], t[:, None, :]]

    return [
        *_esystem_laws(es.b, es.d_ring, dm, tl, tr),
        ("b-distributive-left", _additive, ba, bm),
        ("b-distributive-right", _additive_in_source, ba, ba, bm),
        ("b-associative", _left_multiplicative, bm, bm),
        ("d-additive", lambda: dm[ba] == da[dm[:, None], dm]),
        ("d-multiplicative", lambda: dm[bm] == dmul[dm[:, None], dm]),
        # axes (x, b, c): lam_d(b)+x(c) == lam_d(b)(c) + lam_x(c)
        ("action-left-additive-at-d",
         lambda: tl[da[dm[None, :], ad[:, None]]] == ba[tl[dm][None, :, :], tl[:, None, :]]),
        ("permutability", _permutable, tl, tr),
        ("d-distributive-left", additive_on_gens, dmul),
        ("d-distributive-right", additive_on_gens, dmul.T),
        # axes (x, s, z): (xs)z == x(sz), s a generator
        ("d-associative", lambda: dmul[dmul[:, d_gens, None], ad] == dmul[:, dmul[d_gens]]),
    ]


def _prover(es: ESystem, d_gens: np.ndarray):
    """A function law -> boolean mask over x1, True where the conditions
    `_PROOFS[law]` prove chunk x1 (all True where they prove a law not
    chunked), given addition in B and D commutative and associative.

    Each condition is evaluated when a law first names it, at most once
    for all laws, and kept as whether it holds and, if some law needs it
    per x1 (`_PER_X1`), its mask over axis 0 of its grid; a law whose
    whole-law conditions fail evaluates none of its per-x1 ones.
    """
    conditions, known = None, {}  # gathered when a proof first names a condition

    def holds(name):
        nonlocal conditions
        if name not in known:
            conditions = conditions or {entry[0]: entry for entry in _conditions(es, d_gens)}
            _, grid, *tables = conditions[name]
            ok = grid(*tables)
            rows = ok.reshape(len(ok), -1).all(axis=1) if name in _PER_X1 else None
            known[name] = bool((ok if rows is None else rows).all()), rows
        return known[name]

    def proved(law: str) -> np.ndarray:
        needed_by_all, needed_per_x1 = _PROOFS[law]
        if not all(holds(name)[0] for name in needed_by_all):
            return np.zeros(es.d_ring.order, dtype=bool)
        mask = np.ones(es.d_ring.order, dtype=bool)
        for name in needed_per_x1:
            mask &= holds(name)[1]
        return mask

    return proved


def _scan(law, todo: np.ndarray, shape: tuple[int, ...]) -> tuple | None:
    """First failure of a law chunked over x1, scanning only the chunks
    where the mask `todo` is True, in ascending x1.

    law(x1, *axes) is the law's ok-grid on chunk x1, whose axes have the
    sizes `shape`, b1 first; each of `axes` is an index array along its
    own axis or, for a fixed axis, an int.  A chunk is evaluated in
    contiguous C-order slabs of at most `rings.BLOCK_CELLS` cells: one b1
    row at a time, and within a row larger than that, one value at a time
    of as few leading axes as bring a slab under it.  The scan stops at
    the first slab that holds a failure, so the witness (x1, b1, ...) is
    the first of its chunk in C order.  Returns None if every scanned
    chunk passes.  (Slabs let a failing chunk stop after few cells, while
    rows below the budget are still built one call each.)
    """
    fixed = 1
    while fixed < len(shape) and math.prod(shape[fixed:]) > BLOCK_CELLS:
        fixed += 1
    free = [np.arange(shape[k]).reshape([-1 if i == k else 1 for i in range(len(shape))])
            for k in range(fixed, len(shape))]
    for x1 in np.flatnonzero(todo):
        for lead in itertools.product(*(range(n) for n in shape[:fixed])):
            ok = law(int(x1), *lead, *free)
            if not ok.all():
                return (int(x1), *lead, *_first_bad(ok)[fixed:])
    return None


def anncat_axiom_check(es: ESystem, stop_at_first: bool = False) -> CheckReport:
    """Evaluate every strict 2-ring law on the morphism tables.

    Returns a report with one entry per law; each failing law carries the
    first witness in scan order.  With stop_at_first, later laws are
    skipped once one fails.  Raises SearchGuardError before building a
    grid of more than `CELL_LIMIT` cells; proved laws and chunks build none.
    A chunked law with chunks left to scan is charged one whole b1 row,
    though `_scan` builds at most one slab of it at a time.  B's and D's
    sum generators are found once for every law that uses them; `_prover`
    evaluates each condition of `_PROOFS` only when a law reached names it.
    """
    b, d = es.b, es.d_ring
    dm = es.d.map.astype(np.int64)
    nb, nd = b.order, d.order
    ab = np.arange(nb)
    ad = np.arange(nd)
    b_gens, d_gens = _sum_generators(b.add), _sum_generators(d.add)
    results: list[LawResult] = []
    complete = True

    def run(law, fn):
        nonlocal complete
        if stop_at_first and results and not results[-1].ok:  # nothing runs after a failure
            complete = False
            return
        ok, witness, checked = fn()
        results.append(LawResult(law, ok, witness, checked))

    def add_comm():
        for t, tag in ((b.add, "base"), (d.add, "object")):
            ok = t == t.T
            if not ok.all():
                return False, (tag, *_first_bad(ok)), nb * nb + nd * nd
        return True, None, nb * nb + nd * nd

    run("add-commutative", add_comm)

    assoc = []  # B's witness, then D's, as add-associative finds them

    def add_assoc():
        for t, gens, tag in ((b.add, b_gens, "base"), (d.add, d_gens, "object")):
            assoc.append(_assoc_failure(t, gens))
            if assoc[-1]:
                return False, (tag, *assoc[-1]), nb**3 + nd**3
        return True, None, nb**3 + nd**3

    run("add-associative", add_assoc)

    def add_inverse():
        for t, tag in ((b.add, "base"), (d.add, "object")):
            has = (t == 0).any(axis=1)
            if not has.all():
                return False, (tag, int(np.nonzero(~has)[0][0])), nb + nd
        return True, None, nb + nd

    run("add-inverse", add_inverse)

    def compose_identity():
        ok = (b.add[ab, 0] == ab) & (b.add[0, ab] == ab)
        if ok.all():
            return True, None, 2 * nb
        return False, (int(np.nonzero(~ok)[0][0]),), 2 * nb

    run("compose-identity", compose_identity)

    def compose_assoc():
        return assoc[0] is None, assoc[0], nb**3

    run("compose-associative", compose_assoc)

    prover = _prover(es, d_gens)

    def proved(law):
        # Every proof needs add-commutative and add-associative, the first two results.
        return prover(law) if results[0].ok and results[1].ok else np.zeros(nd, dtype=bool)

    def whole(law, grid, cells):
        # A law proved whole is counted; otherwise grid() is its ok-grid.
        if not proved(law).all():
            _guard(cells, f"{law} grid cells", CELL_LIMIT)
            ok = grid()
            if not ok.all():
                return False, _first_bad(ok), cells
        return True, None, cells

    def add_interchange():
        # base parts of (g o f) + (g' o f') and (g + g') o (f + f'), that is
        # (a + b) + (c + d) and (a + c) + (b + d)
        lhs = b.add[b.add[:, :, None, None], b.add[None, None, :, :]]
        rhs = b.add[b.add[ab[:, None, None, None], ab[None, None, :, None]],
                    b.add[ab[None, :, None, None], ab[None, None, None, :]]]
        return lhs == rhs

    run("add-interchange", lambda: whole("add-interchange", add_interchange, nb**4))

    def tensor_unit():
        one = d.unit
        # axes (x, c): id_1 (x) (c, x), then (c, x) (x) id_1
        left = _tensor(es, 0, one, ab[None, :], ad[:, None])
        ok = left == ab[None, :]
        if not ok.all():
            x, c = _first_bad(ok)
            return False, ("left", x, c), 2 * nb * nd + 2 * nd
        right = _tensor(es, ab[None, :], ad[:, None], 0, one)
        ok = right == ab[None, :]
        if not ok.all():
            x, c = _first_bad(ok)
            return False, ("right", x, c), 2 * nb * nd + 2 * nd
        ok = (d.mul[one, ad] == ad) & (d.mul[ad, one] == ad)
        if not ok.all():
            return False, ("object", int(np.nonzero(~ok)[0][0])), 2 * nb * nd + 2 * nd
        return True, None, 2 * nb * nd + 2 * nd

    run("tensor-unit", tensor_unit)

    def tensor_cod():
        # axes (b1, x1, b2, x2)
        b1, b2 = ab[:, None, None, None], ab[None, None, :, None]
        x1, x2 = ad[None, :, None, None], ad[None, None, None, :]
        lhs = d.add[dm[_tensor(es, b1, x1, b2, x2)], d.mul[x1, x2]]
        return lhs == d.mul[d.add[dm[b1], x1], d.add[dm[b2], x2]]

    run("tensor-cod", lambda: whole("tensor-cod", tensor_cod, nb * nb * nd * nd))

    def chunked(law, grid, shape):
        # grid(x1, *axes) -> ok-grid of chunk x1, see `_scan`.  Proved
        # chunks are counted, not scanned.
        cells = math.prod(shape)
        todo = ~proved(law)
        witness = None
        if todo.any():  # the guard charges a whole b1 row, `_scan` builds at most one
            _guard(cells // nb, f"{law} row cells", CELL_LIMIT)
            witness = _scan(grid, todo, shape)
        if witness is None:
            return True, None, nd * cells
        return False, witness, (witness[0] + 1) * cells

    def tensor_interchange(x1, b1, c1, b2, c2, x2):
        # (f1 (x) f2) + (g1 (x) g2) vs (f1 + g1) (x) (f2 + g2),
        # axes (b1, c1, b2, c2, x2)
        y1, y2 = d.add[dm[b1], x1], d.add[dm[b2], x2]
        lhs = b.add[_tensor(es, b1, x1, b2, x2), _tensor(es, c1, y1, c2, y2)]
        return lhs == _tensor(es, b.add[b1, c1], x1, b.add[b2, c2], x2)

    # the remaining triple laws share axes (b1, b2, b3, x2, x3)
    def tensor_assoc(x1, b1, b2, b3, x2, x3):
        x12, x23 = d.mul[x1, x2], d.mul[x2, x3]
        lhs = _tensor(es, _tensor(es, b1, x1, b2, x2), x12, b3, x3)
        rhs = _tensor(es, b1, x1, _tensor(es, b2, x2, b3, x3), x23)
        return (lhs == rhs) & (d.mul[x12, x3] == d.mul[x1, x23])

    def distrib_left(x1, b1, b2, b3, x2, x3):
        # f (g + h)
        sx = d.add[x2, x3]
        lhs = _tensor(es, b1, x1, b.add[b2, b3], sx)
        rhs = b.add[_tensor(es, b1, x1, b2, x2), _tensor(es, b1, x1, b3, x3)]
        return (lhs == rhs) & (d.mul[x1, sx] == d.add[d.mul[x1, x2], d.mul[x1, x3]])

    def distrib_right(x1, b1, b2, b3, x2, x3):
        # (g + h) f; x1 is the source of f
        sx = d.add[x2, x3]
        lhs = _tensor(es, b.add[b2, b3], sx, b1, x1)
        rhs = b.add[_tensor(es, b2, x2, b1, x1), _tensor(es, b3, x3, b1, x1)]
        return (lhs == rhs) & (d.mul[sx, x1] == d.add[d.mul[x2, x1], d.mul[x3, x1]])

    for law, fn, shape in (
        ("tensor-interchange", tensor_interchange, (nb, nb, nb, nb, nd)),
        ("tensor-associative", tensor_assoc, (nb, nb, nb, nd, nd)),
        ("tensor-distributive-left", distrib_left, (nb, nb, nb, nd, nd)),
        ("tensor-distributive-right", distrib_right, (nb, nb, nb, nd, nd)),
    ):
        run(law, lambda: chunked(law, fn, shape))

    return CheckReport(es.name, results, complete)


# ---------------------------------------------------------------------------
# Functors between the 2-rings, with unit defects.


@dataclass(eq=False)
class AnnFunctor:
    """A morphism of action systems plus two kernel-valued constants: the
    component of the constraint F(x)+F(y) -> F(x+y) and of the constraint
    F(x)F(y) -> F(xy), both independent of x and y.

    Coherence with tensor associativity and the two distributivities pins
    them down hard: acting by anything in the image of f0 kills both
    constants, and the tensor constant is the negative of the additive
    one.  Validation checks the raw coherence equations and asserts the
    consequences."""

    morphism: ESystemMorphism
    add_defect: int
    mul_defect: int

    @property
    def source(self) -> ESystem:
        return self.morphism.source

    @property
    def target(self) -> ESystem:
        return self.morphism.target

    def same_form(self, other: "AnnFunctor") -> bool:
        return (
            (self.morphism.f1.map == other.morphism.f1.map).all()
            and (self.morphism.f0.map == other.morphism.f0.map).all()
        )


def validate_ann_functor(src: ESystem, tgt: ESystem, f1, f0, add_defect=0, mul_defect=0) -> AnnFunctor:
    m = validate_morphism(src, tgt, f1, f0)
    bp = tgt.b
    fp, ft = int(add_defect), int(mul_defect)
    if tgt.d.map[fp] != 0 or tgt.d.map[ft] != 0:
        raise ValueError("constraint constants must lie in the kernel of the structure map")
    img = m.f0.map
    tlp, trp = tgt.theta_left, tgt.theta_right
    # tensor associativity: acting on the tensor constant from either side
    # must give one common value, whatever acts
    vals = {int(v) for v in tlp[img, ft]} | {int(v) for v in trp[img, ft]}
    if len(vals) != 1:
        raise ValueError("tensor constraint breaks associativity coherence")
    # distributivity: acting on the additive constant gives its sum with
    # the tensor constant
    want = int(bp.add[fp, ft])
    if not (tlp[img, fp] == want).all() or not (trp[img, fp] == want).all():
        raise ValueError("constraint constants break distributivity coherence")
    # consequences of the above at x = 0
    if vals != {0} or ft != int(bp.neg[fp]):
        raise AssertionError("constraint constants break their consequences at 0")
    return AnnFunctor(m, fp, ft)


def functor_from_morphism(
    m: ESystemMorphism, add_defect: int = 0, mul_defect: int = 0
) -> AnnFunctor:
    checked = validate_ann_functor(
        m.source, m.target, m.f1.map, m.f0.map, add_defect, mul_defect
    )
    return AnnFunctor(m, checked.add_defect, checked.mul_defect)


def morphism_from_functor(fun: AnnFunctor) -> ESystemMorphism:
    """Strip the constraint constants, keeping the underlying morphism.

    Inverse to functor_from_morphism only up to homotopy: the round trip
    lands on the constant-free functor of the same form."""
    return fun.morphism


def homotopy_between(f: AnnFunctor, g: AnnFunctor):
    """Constant natural transformation from f to g, or None.

    One exists iff the functors share their underlying maps; its component
    is then the difference of additive constants, and compatibility with
    both constraints is automatic (asserted here, not assumed)."""
    if f.source is not g.source or f.target is not g.target:
        return None
    if not f.same_form(g):
        return None
    bp = f.target.b
    alpha = int(bp.sub(f.add_defect, g.add_defect))
    if f.target.d.map[alpha] != 0:
        raise AssertionError("homotopy component leaves the kernel of d")
    if alpha != int(bp.sub(g.mul_defect, f.mul_defect)):
        raise AssertionError("homotopy component misses the tensor constants")
    img = f.morphism.f0.map
    tlp, trp = f.target.theta_left, f.target.theta_right
    if not ((tlp[img, alpha] == 0).all() and (trp[img, alpha] == 0).all()):
        raise AssertionError("homotopy component is not annihilated by the actions")
    return alpha
