"""Action systems, crossed bimodules, and the kernel-as-bimodule reduction."""

import numpy as np
import pytest

from ringcat.ablin import FinAbGroup
from ringcat.crossed import (
    ESystem,
    ESystemError,
    bimodule_esystem,
    coker_action_well_defined,
    compose_morphisms,
    compose_xb_morphisms,
    es_to_xb,
    es_to_xb_morphism,
    ideal_esystem,
    identity_esystem,
    identity_morphism,
    is_regular,
    multiplier_esystem,
    regularity_witness,
    validate_crossed_bimodule,
    validate_bimodule,
    validate_esystem,
    validate_morphism,
    validate_xb_morphism,
    xb_to_es,
    xb_to_es_morphism,
)
from ringcat.rings import (
    dual_numbers,
    product_ring,
    validate_ring,
    zero_mult,
    zero_mult_klein,
    zmod,
)


def doubled_into_z4():
    """Base: additive zmod(4) with product i*j = 2ij; structure map b -> 2b
    into zmod(4) with the scalar action."""
    i = np.arange(4)
    b = validate_ring((i[:, None] + i[None, :]) % 4, (2 * i[:, None] * i[None, :]) % 4, name="2z8")
    scal = (i[:, None] * i[None, :]) % 4
    return validate_esystem(b, zmod(4), (2 * i) % 4, scal, scal, name="d2b")


def scalar_action_d0(n_b, d_ring, reduce_mod):
    b = zero_mult(n_b)
    tl = np.array([[(x % reduce_mod) * c % n_b for c in range(n_b)] for x in range(d_ring.order)])
    return validate_esystem(b, d_ring, np.zeros(n_b, dtype=np.int16), tl, tl)


def test_validated_tables_are_private_and_read_only():
    # The cokernel and kernel module an action system keeps, and memos
    # keyed on a system by identity, rely on its tables never changing.
    # The inputs are int16 already, so keeping them would share memory.
    i = np.arange(4, dtype=np.int16)
    b = validate_ring((i[:, None] + i) % 4, (2 * i[:, None] * i) % 4, name="2z8")
    d_map, scal = (2 * i) % 4, (i[:, None] * i) % 4
    tl, tr = scal.copy(), scal.copy()
    es = validate_esystem(b, zmod(4), d_map, tl, tr)
    xb = validate_crossed_bimodule(b, zmod(4), d_map, tl, tr)
    for given, kept in ((tl, es.theta_left), (tr, es.theta_right), (d_map, es.d.map),
                        (tl, xb.left), (tr, xb.right), (d_map, xb.d.map)):
        assert not np.shares_memory(given, kept)
        with pytest.raises(ValueError, match="read-only"):
            kept[1] = 0
    tl[1, 1], tr[1, 1], d_map[1] = 0, 0, 0
    assert es.theta_left[1, 1] == es.theta_right[1, 1] == 1 and es.d.map[1] == 2


def test_ideal_esystem_two_in_z4():
    es = ideal_esystem(zmod(4), [0, 2])
    assert es.b.order == 2 and es.b.unit is None
    assert list(es.d.map) == [0, 2]
    assert is_regular(es)
    assert es.kernel_module.module.order == 1
    assert es.cokernel.ring.order == 2


def test_ideal_esystem_rejects_non_ideal():
    with pytest.raises(Exception, match="closed|ideal"):
        ideal_esystem(zmod(4), [0, 1])


def upper_triangular_z2():
    """2x2 upper-triangular matrices over Z/2, [[a, b], [0, c]] at index
    4a + 2b + c: a noncommutative ring of order 8 with unit 5."""
    i = np.arange(8)
    a, b, c = i >> 2, (i >> 1) & 1, i & 1
    mul = 4 * (a[:, None] & a) + 2 * ((a[:, None] & b) ^ (b[:, None] & c)) + (c[:, None] & c)
    return validate_ring(i[:, None] ^ i, mul, 5, name="ut2_z2")


@pytest.mark.parametrize(
    "subset, witness",
    [
        ([0, 1], (2, 1)),  # 2 * 1 = 2 leaves the subring {0, 1}
        ([0, 4], (2, 4)),  # 2 * 4 = 0 stays, 4 * 2 = 2 leaves {0, 4}
    ],
)
def test_ideal_esystem_not_an_ideal_witness(subset, witness):
    # Both subsets are subrings, so the ideal check itself reports: the
    # first (x, c) in scan order with x * c or c * x outside.
    with pytest.raises(ESystemError) as e:
        ideal_esystem(upper_triangular_z2(), subset)
    assert (e.value.condition, e.value.witness) == ("not-an-ideal", witness)


def test_identity_esystem_regular_and_trivial_reduction():
    es = identity_esystem(zmod(2))
    assert is_regular(es)
    assert es.kernel_module.module.order == 1 and es.cokernel.ring.order == 1


def test_multiplier_esystem_of_z2_zero_mult():
    es = multiplier_esystem(zero_mult(2))
    assert es.d_ring.order == 4
    assert (es.d.map == 0).all()
    assert is_regular(es)
    km = es.kernel_module
    assert km.module.order == 2
    assert es.cokernel.ring.order == 4
    assert tuple(km.module.group.factors) == (2,)


def test_multiplier_esystem_of_klein_is_not_regular():
    es = multiplier_esystem(zero_mult_klein())
    assert es.d_ring.order == 256
    w = regularity_witness(es)
    assert w is not None and w[0] == "permutability"
    x, y, a = w[1]
    # replay the witness against the raw tables
    lhs = es.theta_left[x, es.theta_right[y, a]]
    rhs = es.theta_right[y, es.theta_left[x, a]]
    assert lhs != rhs
    with pytest.raises(ESystemError, match="not-regular"):
        es_to_xb(es)


def test_doubled_into_z4_reduction_frozen():
    es = doubled_into_z4()
    assert is_regular(es)
    km = es.kernel_module
    assert km.carrier == [0, 2]
    assert es.cokernel.reps == [0, 1]
    assert km.module.order == 2
    # the nonzero class acts as the identity on the kernel
    assert list(km.module.left[1]) == [0, 1]
    assert list(km.module.right[1]) == [0, 1]


def test_zero_action_is_valid_but_not_regular():
    b = zero_mult(2)
    tl = np.zeros((2, 2), dtype=np.int16)
    es = validate_esystem(b, zmod(2), [0, 0], tl, tl)
    assert regularity_witness(es) == ("unit-action-left", 1)
    with pytest.raises(ESystemError, match="kernel-action-unital"):
        es.kernel_module


def test_validation_witnesses():
    b2 = zero_mult(2)
    with pytest.raises(ESystemError, match="target-unital"):
        validate_esystem(b2, zero_mult(2), [0, 0], np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ESystemError, match="structure-map"):
        validate_esystem(b2, zmod(4), [0, 1], np.zeros((4, 2)), np.zeros((4, 2)))
    # theta(0) = identity is a bimultiplication but not additive in x
    tl = np.array([[0, 1], [0, 1]])
    with pytest.raises(ESystemError, match="action-left-additive-in-source"):
        validate_esystem(b2, zmod(2), [0, 0], tl, tl)
    # honest multiplication, trivial action: acting through d is not inner
    z2 = zmod(2)
    with pytest.raises(ESystemError, match="inner-action-left"):
        validate_esystem(z2, z2, [0, 1], np.zeros((2, 2)), np.zeros((2, 2)))
    # zero action with a nonzero square-zero structure map: d fails to
    # intertwine at (unit, generator)
    dn = dual_numbers(2)
    with pytest.raises(ESystemError, match="equivariance-left") as ei:
        validate_esystem(b2, dn, [0, 1], np.zeros((4, 2)), np.zeros((4, 2)))
    assert ei.value.witness == (2, 1)


def test_crossed_bimodule_round_trip():
    for es in (doubled_into_z4(), multiplier_esystem(zero_mult(2)), identity_esystem(zmod(4))):
        xb = es_to_xb(es)
        back = xb_to_es(xb)
        assert (back.theta_left == es.theta_left).all()
        assert (back.theta_right == es.theta_right).all()
        assert (back.d.map == es.d.map).all()


def test_crossed_bimodule_witnesses():
    z2 = zmod(2)
    with pytest.raises(ESystemError, match="bimodule-left-unital"):
        validate_crossed_bimodule(zero_mult(2), z2, [0, 0], np.zeros((2, 2)), np.zeros((2, 2)))
    ident = np.array([[0, 0], [0, 1]])
    with pytest.raises(ESystemError, match="peiffer-left") as ei:
        validate_crossed_bimodule(z2, z2, [0, 0], ident, ident)
    assert ei.value.witness == (1, 1)


def test_morphism_embedding_of_ideal():
    src = ideal_esystem(zmod(4), [0, 2])
    tgt = identity_esystem(zmod(4))
    m = validate_morphism(src, tgt, [0, 2], np.arange(4))
    i = identity_morphism(tgt)
    c = compose_morphisms(i, m)
    assert (c.f1.map == m.f1.map).all() and (c.f0.map == m.f0.map).all()


def test_morphism_mod_two_between_identity_systems():
    src = identity_esystem(zmod(4))
    tgt = identity_esystem(zmod(2))
    m = validate_morphism(src, tgt, np.arange(4) % 2, np.arange(4) % 2)
    assert m.f0.unital
    with pytest.raises(ESystemError, match="morphism-target-unit"):
        validate_morphism(tgt, tgt, [0, 0], [0, 0])
    with pytest.raises(ESystemError, match="morphism-square"):
        validate_morphism(ideal_esystem(zmod(4), [0, 2]), src, [0, 0], np.arange(4))


def test_compose_morphisms_rejects_a_gap():
    m = identity_morphism(identity_esystem(zmod(2)))
    with pytest.raises(ESystemError, match="composable"):
        compose_morphisms(identity_morphism(identity_esystem(zmod(4))), m)


def test_compose_xb_morphisms_rejects_a_gap():
    mx = es_to_xb_morphism(identity_morphism(identity_esystem(zmod(2))))
    nx = es_to_xb_morphism(identity_morphism(identity_esystem(zmod(4))))
    with pytest.raises(ESystemError, match="composable"):
        compose_xb_morphisms(nx, mx)


def test_morphism_composition_preserved_under_conversion():
    a = ideal_esystem(zmod(4), [0, 2])
    b = identity_esystem(zmod(4))
    c = identity_esystem(zmod(2))
    m = validate_morphism(a, b, [0, 2], np.arange(4))
    g = validate_morphism(b, c, np.arange(4) % 2, np.arange(4) % 2)
    xa, xb_, xc = es_to_xb(a), es_to_xb(b), es_to_xb(c)
    mx = es_to_xb_morphism(m, xa, xb_)
    gx = es_to_xb_morphism(g, xb_, xc)
    one_way = compose_xb_morphisms(gx, mx)
    other = es_to_xb_morphism(compose_morphisms(g, m), xa, xc)
    assert (one_way.f1.map == other.f1.map).all()
    assert (one_way.f0.map == other.f0.map).all()
    back = xb_to_es_morphism(mx, a, b)
    assert (back.f1.map == m.f1.map).all() and (back.f0.map == m.f0.map).all()


def test_bimodule_esystem_roundtrips_module_action():
    km = doubled_into_z4().kernel_module
    es = bimodule_esystem(km.module)
    assert es.b.order == 2 and (es.d.map == 0).all()
    assert is_regular(es)
    assert (es.theta_left == km.module.left).all()
    km2 = es.kernel_module
    assert (km2.module.left == km.module.left).all()


def test_coker_action_well_defined_even_when_not_regular():
    assert coker_action_well_defined(doubled_into_z4())
    assert coker_action_well_defined(multiplier_esystem(zero_mult_klein()))


def test_scalar_action_with_zero_structure_map():
    es = scalar_action_d0(2, zmod(4), 2)
    assert is_regular(es)
    assert es.kernel_module.module.order == 2 and es.cokernel.ring.order == 4


# ---------------------------------------------------------------------------
# Each condition of each validator, tripped first by one perturbed input.
# The pinned (condition, witness) pairs are the ones each validator
# reported while it spelled out its own laws.

SWAP = [0, 2, 1, 3]  # exchanges the two additive coordinates of Z/2[eps]


def _scalars(coeffs, n):
    """Stacked tables of the scalar maps c -> k c on Z/n, one row per k."""
    return np.array([[k * c % n for c in range(n)] for k in coeffs])


def _tables(name):
    """(B, D, d, theta_left, theta_right) for one named system."""
    z2 = zmod(2)
    zero = np.zeros(4, dtype=int)
    if name.startswith("id_z2"):
        # the identity system of Z/2 with its structure map zeroed ("id_z2:d")
        # or one action entry flipped ("id_z2:l:x,c", "id_z2:r:x,c")
        tl, tr, d = z2.mul.copy(), z2.mul.T.copy(), [0, 1]
        _, where, *cell = name.split(":")
        if where == "d":
            d = [0, 0]
        else:
            x, c = (int(v) for v in cell[0].split(","))
            (tl if where == "l" else tr)[x, c] ^= 1
        return z2, z2, d, tl, tr
    if name in ("dual_swap_left", "dual_swap_right"):
        # Z/2 acting on Z/2[eps] through the coordinate swap, an additive
        # map that commutes with neither product
        ident = [0, 1, 2, 3]
        tl, tr = (SWAP, SWAP) if name == "dual_swap_left" else (ident, SWAP)
        return dual_numbers(2), z2, zero, np.array([zero, tl]), np.array([zero, tr])
    if name == "z4_mixed":
        # left by 1, right by 2: both product maps, but a(1b) != (2a)b
        return zmod(4), z2, zero, _scalars([0, 1], 4), _scalars([0, 2], 4)
    if name in ("flat_left_source", "flat_right_source"):
        bad, good = np.array([[0, 1], [0, 1]]), np.array([[0, 0], [0, 1]])
        tl, tr = (bad, good) if name == "flat_left_source" else (good, bad)
        return zero_mult(2), z2, [0, 0], tl, tr
    if name in ("klein_sum_left", "klein_sum_right", "klein_coords"):
        # Z/2 x Z/2 acting on the zero ring Z/2 through x1, x2 or x1 + x2;
        # x1 + x2 is additive but not multiplicative
        x1, x2 = np.arange(4) >> 1, np.arange(4) & 1
        first, second, total = _scalars(x1, 2), _scalars(x2, 2), _scalars(x1 ^ x2, 2)
        tl, tr = {
            "klein_sum_left": (total, first),
            "klein_sum_right": (first, total),
            "klein_coords": (first, second),
        }[name]
        return zero_mult(2), product_ring(z2, z2), [0, 0], tl, tr
    if name == "klein_shift":
        # Z/2[eps] acting on the Klein zero ring through a + b s, where
        # s = ([0, 2, 0, 2], [0, 0, 1, 1]) squares to zero but does not
        # permute with itself
        a, b = np.arange(4)[:, None] >> 1, np.arange(4)[:, None] & 1
        ident = np.arange(4)[None, :]
        tl = (a * ident) ^ (b * np.array([0, 2, 0, 2]))
        tr = (a * ident) ^ (b * np.array([0, 0, 1, 1]))
        return zero_mult_klein(), dual_numbers(2), [0, 0, 0, 0], tl, tr
    if name == "klein_nilpotent_right":
        # Z/2[eps] acting on the Klein zero ring, d(c) = (second bit of c) eps:
        # on the left through a, on the right through a + b N with
        # N = [0, 0, 1, 1]; d(2) = eps then acts by N, not by 0
        a, b = np.arange(4)[:, None] >> 1, np.arange(4)[:, None] & 1
        ident = np.arange(4)[None, :]
        tl = a * ident
        tr = (a * ident) ^ (b * np.array([0, 0, 1, 1]))
        return zero_mult_klein(), dual_numbers(2), [0, 0, 1, 1], tl, tr
    if name in ("dual_equivariance_left", "dual_equivariance_right"):
        # the zero ring Z/2 as eps Z/2[eps]; acting through the real part
        # on one side and by zero on the other breaks d(theta_x(c)) = x d(c)
        real = _scalars(np.arange(4) >> 1, 2)
        nil = np.zeros((4, 2), dtype=int)
        tl, tr = (nil, nil) if name == "dual_equivariance_left" else (real, nil)
        return zero_mult(2), dual_numbers(2), [0, 1], tl, tr
    if name == "dual4_right":
        # the zero ring Z/4 as eps Z/4[eps]; a + b eps acts by a on the left
        # and by a + 2b on the right
        a, b = np.arange(16) // 4, np.arange(16) % 4
        return zero_mult(4), dual_numbers(4), np.arange(4), _scalars(a, 4), _scalars(a + 2 * b, 4)
    raise KeyError(name)


@pytest.mark.parametrize(
    "name, condition, witness",
    [
        ("id_z2:l:0,0", "action-left-additive", (0, 0, 0)),
        ("id_z2:r:0,0", "action-right-additive", (0, 0, 0)),
        ("dual_swap_left", "action-left-product", (1, 1, 1)),
        ("dual_swap_right", "action-right-product", (1, 1, 1)),
        ("z4_mixed", "action-mixed-product", (1, 1, 1)),
        ("flat_left_source", "action-left-additive-in-source", (0, 0, 1)),
        ("flat_right_source", "action-right-additive-in-source", (0, 0, 1)),
        ("klein_sum_left", "action-left-multiplicative", (1, 2, 1)),
        ("klein_sum_right", "action-right-multiplicative", (1, 2, 1)),
        ("id_z2:d", "inner-action-left", (1, 1)),
        ("klein_nilpotent_right", "inner-action-right", (2, 2)),
        ("dual_equivariance_left", "equivariance-left", (2, 1)),
        ("dual_equivariance_right", "equivariance-right", (2, 1)),
    ],
)
def test_esystem_condition_witnesses(name, condition, witness):
    with pytest.raises(ESystemError) as e:
        validate_esystem(*_tables(name))
    assert (e.value.condition, e.value.witness) == (condition, witness)


@pytest.mark.parametrize(
    "name, condition, witness",
    [
        ("id_z2:l:0,0", "bimodule-left-additive-in-ring", (0, 0, 0)),
        ("id_z2:l:1,0", "bimodule-left-additive", (1, 0, 0)),
        ("id_z2:r:0,0", "bimodule-right-additive-in-ring", (0, 0, 0)),
        ("id_z2:r:1,0", "bimodule-right-additive", (1, 0, 0)),
        ("klein_sum_left", "bimodule-left-associative", (1, 2, 1)),
        ("klein_sum_right", "bimodule-right-associative", (1, 2, 1)),
        ("klein_shift", "bimodule-mixed-associative", (1, 1, 1)),
        ("id_z2:l:1,1", "bimodule-left-unital", (1,)),
        ("id_z2:r:1,1", "bimodule-right-unital", (1,)),
        ("ideal_in_klein", "equivariance-left", (1, 1)),
        ("dual4_right", "equivariance-right", (1, 1)),
        ("id_z2:d", "peiffer-left", (1, 1)),
        ("klein_nilpotent_right", "peiffer-right", (2, 2)),
    ],
)
def test_crossed_bimodule_condition_witnesses(name, condition, witness):
    if name == "ideal_in_klein":
        # the ideal {0, (1, 0)} of Z/2 x Z/2, mapped to (1, 1) instead
        es = ideal_esystem(product_ring(zmod(2), zmod(2)), [0, 2])
        tables = (es.b, es.d_ring, [0, 3], es.theta_left, es.theta_right)
    else:
        tables = _tables(name)
    with pytest.raises(ESystemError) as e:
        validate_crossed_bimodule(*tables)
    assert (e.value.condition, e.value.witness) == (condition, witness)
    if condition.startswith("bimodule-"):
        # the bimodule validator checks the same laws in the same order
        b, d_ring, _, tl, tr = tables
        group, coords = FinAbGroup((2,) * (b.order // 2)), _bits(b.order)
        with pytest.raises(ESystemError) as e:
            validate_bimodule(d_ring, group, b.add, b.neg, tl, tr, coords)
        assert (e.value.condition, e.value.witness) == (condition, witness)


def _bits(n):
    """Coordinates of 0..n-1 in (Z/2)^k for tables whose addition is XOR."""
    k = n.bit_length() - 1
    return np.array([[(i >> (k - 1 - j)) & 1 for j in range(k)] for i in range(n)])


def _klein_module_args():
    """Z/2 x Z/2 acting on the Klein group, by x1 on the left and x2 on
    the right."""
    x1, x2 = np.arange(4)[:, None] >> 1, np.arange(4)[:, None] & 1
    ident = np.arange(4)[None, :]
    return {"ring": product_ring(zmod(2), zmod(2)), "group": FinAbGroup((2, 2)),
            "add": zero_mult_klein().add.copy(), "neg": np.arange(4),
            "left": x1 * ident, "right": x2 * ident, "coords": _bits(4)}


@pytest.mark.parametrize(
    "change, condition, witness",
    [
        ("neg_shape", "group-shape", (4,)),
        ("add_comm", "group-add-commutative", (1, 2)),
        ("neg", "group-negation", (1,)),
        ("ring", "ring-unital", ()),
        ("left_shape", "action-left-shape", (4, 4)),
        ("coords_dup", "coords-bijective", (3,)),
        ("coords_zero", "coords-additive", (0, 0)),
        ("coords_add", "coords-additive", (1, 1)),
    ],
)
def test_bimodule_group_and_coordinate_conditions(change, condition, witness):
    args = _klein_module_args()
    validate_bimodule(**args)
    if change == "neg_shape":
        args["neg"] = np.arange(3)
    elif change == "add_comm":
        args["add"][1, 2] = 2
    elif change == "neg":
        args["neg"] = np.array([0, 2, 1, 3])
    elif change == "ring":
        args["ring"] = zero_mult(4)
    elif change == "left_shape":
        args["left"] = args["left"][:, :3]
    elif change == "coords_dup":
        args["coords"] = np.array([[0, 0], [0, 1], [1, 0], [0, 1]])
    elif change == "coords_zero":
        args["coords"] = np.array([[1, 1], [0, 1], [1, 0], [0, 0]])
    elif change == "coords_add":
        # every relabelling of (Z/2)^2 fixing 0 is additive; Z/4 as a module
        # over itself, with 1 and 2 swapped, is not
        z4 = zmod(4)
        args = {"ring": z4, "group": FinAbGroup((4,)), "add": z4.add, "neg": z4.neg,
                "left": z4.mul, "right": z4.mul, "coords": np.array([[0], [2], [1], [3]])}
    with pytest.raises(ESystemError) as e:
        validate_bimodule(**args)
    assert (e.value.condition, e.value.witness) == (condition, witness)


@pytest.mark.parametrize(
    "name, witness",
    [
        ("unit_left", ("unit-action-left", 1)),
        ("unit_right", ("unit-action-right", 1)),
        ("klein_shift", ("permutability", (1, 1, 1))),
    ],
)
def test_regularity_witnesses(name, witness):
    if name == "klein_shift":
        es = validate_esystem(*_tables(name))
    else:
        ident, zero = np.array([[0, 0], [0, 1]]), np.zeros((2, 2), dtype=int)
        tl, tr = (zero, ident) if name == "unit_left" else (ident, zero)
        es = validate_esystem(zero_mult(2), zmod(2), [0, 0], tl, tr)
    assert regularity_witness(es) == witness
    with pytest.raises(ESystemError, match="not-regular"):
        es_to_xb(es)


@pytest.mark.parametrize("as_crossed", [False, True])
@pytest.mark.parametrize(
    "f1, f0, target, condition, witness",
    [
        ([0, 0], [0, 2, 1, 2], "klein_coords", "morphism-hom", None),
        ([0, 1], [0, 0, 0, 0], "klein_coords", "morphism-target-unit", (3,)),
        ([0, 1], [0, 2, 1, 3], "klein_coords", "morphism-action-left", (1, 1)),
        ([0, 1], [0, 1, 2, 3], "klein_first", "morphism-action-right", (1, 1)),
    ],
)
def test_morphism_condition_witnesses(f1, f0, target, condition, witness, as_crossed):
    src = validate_esystem(*_tables("klein_coords"))
    if target == "klein_first":
        b, q, d, tl, _ = _tables("klein_coords")
        tgt = validate_esystem(b, q, d, tl, tl)
    else:
        tgt = src
    validate = validate_morphism
    if as_crossed:
        src, tgt, validate = es_to_xb(src), es_to_xb(tgt), validate_xb_morphism
    with pytest.raises(ESystemError) as e:
        validate(src, tgt, f1, f0)
    assert e.value.condition == condition
    if witness is not None:
        assert e.value.witness == witness


def test_morphism_square_witness_on_both_sides():
    src, tgt = ideal_esystem(zmod(4), [0, 2]), identity_esystem(zmod(4))
    for validate, s, t in ((validate_morphism, src, tgt),
                           (validate_xb_morphism, es_to_xb(src), es_to_xb(tgt))):
        with pytest.raises(ESystemError) as e:
            validate(s, t, [0, 0], np.arange(4))
        assert (e.value.condition, e.value.witness) == ("morphism-square", (1,))


@pytest.mark.parametrize(
    "rows, condition, witness",
    [
        ({3: [0, 0, 0, 0]}, "kernel-action-constant", (1,)),
        ({1: [0, 1, 1, 3], 3: [0, 3, 1, 1]}, "kernel-action-closed", (1, 1)),
    ],
)
def test_induced_kernel_module_rejects_ill_defined_actions(rows, condition, witness):
    # Validated systems always pass these checks; tables set directly on
    # an ESystem need not.  In doubled_into_z4 the classes are {0, 2} and
    # {1, 3}, and the kernel is {0, 2}.
    es = doubled_into_z4()
    tl = es.theta_left.copy()
    for x, row in rows.items():
        tl[x] = row
    broken = ESystem("broken", es.b, es.d_ring, es.d, tl, es.theta_right)
    assert not coker_action_well_defined(broken)
    with pytest.raises(ESystemError) as e:
        broken.kernel_module
    assert (e.value.condition, e.value.witness) == (condition, witness)
