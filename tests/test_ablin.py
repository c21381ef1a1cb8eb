import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcat.ablin import (
    FinAbGroup,
    LinearMap,
    Subgroup,
    cokernel,
    det_exact,
    homology,
    identity_map,
    image_order,
    kernel,
    kernel_order,
    smith_normal_form,
    solve,
    solve_with_certificate,
    span_subgroup,
)


def check_snf(a):
    res = smith_normal_form(a)
    a = np.asarray(a, dtype=np.int64)
    assert np.array_equal(res.u @ a @ res.v, res.s)
    assert np.array_equal(res.u @ res.uinv, np.eye(a.shape[0], dtype=np.int64))
    assert np.array_equal(res.v @ res.vinv, np.eye(a.shape[1], dtype=np.int64))
    d = res.diagonal
    # off-diagonal zero, nonnegative diagonal, divisibility chain
    mask = np.ones_like(res.s, dtype=bool)
    for i in range(min(a.shape)):
        mask[i, i] = False
    assert not res.s[mask].any()
    assert all(x >= 0 for x in d)
    for i in range(len(d) - 1):
        if d[i] == 0:
            assert d[i + 1] == 0
        else:
            assert d[i + 1] % d[i] == 0
    return res


def test_snf_frozen_2x2():
    # Hand-checked: row/column reduction of [[2,4],[6,8]] gives diag(2, 4).
    res = check_snf([[2, 4], [6, 8]])
    assert res.diagonal == [2, 4]
    assert abs(det_exact(res.u)) == 1
    assert abs(det_exact(res.v)) == 1


def test_snf_shapes_and_rank():
    assert smith_normal_form(np.zeros((3, 2), dtype=int)).rank == 0
    assert smith_normal_form(np.zeros((0, 4), dtype=int)).diagonal == []
    res = check_snf([[0, 0, 5]])
    assert res.diagonal == [5]
    res = check_snf([[2, 0], [0, 3]])
    assert res.diagonal == [1, 6]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_snf_random(nr, nc, data):
    a = np.array(
        [[data.draw(st.integers(-30, 30)) for _ in range(nc)] for _ in range(nr)]
    )
    check_snf(a)


def test_det_exact():
    assert det_exact([[2, 4], [6, 8]]) == -8
    assert det_exact([[1, 0], [0, 1]]) == 1
    assert det_exact([[0, 1], [1, 0]]) == -1
    assert det_exact([[2, 0], [0, 0]]) == 0


def test_group_basics():
    g = FinAbGroup((2, 4))
    assert g.order == 8
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.neg((1, 3)) == (1, 1)
    assert g.element_order((1, 2)) == 2
    assert g.element_order((0, 3)) == 4
    assert len(list(g.elements())) == 8
    trivial = FinAbGroup(())
    assert trivial.order == 1
    assert list(trivial.elements()) == [()]


def test_linear_map_rejects_ill_defined():
    z2, z4 = FinAbGroup((2,)), FinAbGroup((4,))
    with pytest.raises(ValueError, match="modulus"):
        # 1 has order 2 in the source but its image would have order 4.
        LinearMap(z2, z4, [[1]])
    LinearMap(z2, z4, [[2]])  # fine: doubling lands in the 2-torsion


def test_solve_frozen_doubling():
    # x -> 2x from Z/2 into Z/4: image element 2 pulls back to 1, while 1
    # itself has no preimage.
    lm = LinearMap(FinAbGroup((2,)), FinAbGroup((4,)), [[2]])
    assert solve(lm, (2,)) == (1,)
    x, cert = solve_with_certificate(lm, (1,))
    assert x is None
    assert cert is not None and cert.residue != 0
    assert "mod" in cert.describe()


def test_kernel_cokernel_frozen_doubling_z4():
    # Doubling on Z/4 has kernel {0, 2} and cokernel of order 2.
    z4 = FinAbGroup((4,))
    lm = LinearMap(z4, z4, [[2]])
    ker = kernel(lm)
    assert ker.group.factors == (2,)
    assert sorted(ker.elements()) == [(0,), (2,)]
    cok = cokernel(lm)
    assert cok.group.factors == (2,)
    assert cok.project((1,)) != cok.project((0,))
    assert cok.project((2,)) == cok.project((0,))
    assert image_order(lm) == 2


def test_cokernel_lift_is_a_section():
    g = FinAbGroup((2, 4))
    lm = LinearMap(g, g, [[0, 0], [0, 2]])
    cok = cokernel(lm)
    for c in cok.group.elements():
        assert cok.project(cok.lift(c)) == c


def test_subgroup_membership():
    g = FinAbGroup((4, 4))
    sub = Subgroup(g, FinAbGroup((2,)), [(2, 2)])
    assert sub.contains((0, 0))
    assert sub.contains((2, 2))
    assert not sub.contains((1, 1))
    assert sorted(sub.elements()) == [(0, 0), (2, 2)]


def _random_group(rng, max_order=256):
    while True:
        rank = int(rng.integers(0, 4))
        factors = tuple(int(rng.choice([1, 2, 2, 3, 4, 5, 8])) for _ in range(rank))
        g = FinAbGroup(factors)
        if g.order <= max_order:
            return g


def _random_map(rng, src, dst):
    cols = []
    for m in src.factors:
        # Generator images must respect the source modulus; build them from
        # elements killed by m.
        col = [int(rng.integers(0, n)) * (n // np.gcd(n, m)) for n in dst.factors]
        cols.append(col)
    mat = np.array(cols, dtype=np.int64).T if cols else np.zeros((dst.rank, 0), int)
    return LinearMap(src, dst, mat)


def test_solve_against_exhaustive_search():
    rng = np.random.default_rng(20260823)
    for _ in range(100):
        src = _random_group(rng)
        dst = _random_group(rng, max_order=64)
        lm = _random_map(rng, src, dst)
        b = dst.random_element(rng)
        got = solve(lm, b)
        brute = next((x for x in src.elements() if lm.apply(x) == b), None)
        if brute is None:
            assert got is None
        else:
            assert got is not None and lm.apply(got) == b


def test_kernel_image_product_invariant():
    rng = np.random.default_rng(7)
    for _ in range(60):
        src = _random_group(rng, 64)
        dst = _random_group(rng, 64)
        lm = _random_map(rng, src, dst)
        ker = kernel(lm)
        brute_kernel = [x for x in src.elements() if lm.apply(x) == dst.zero()]
        assert ker.order == len(set(brute_kernel))
        for x in brute_kernel:
            assert ker.contains(x)
        assert kernel_order(lm) * image_order(lm) == src.order
        images = {lm.apply(x) for x in src.elements()}
        assert image_order(lm) == len(images)
        cok = cokernel(lm)
        assert cok.group.order * len(images) == dst.order
        classes = {cok.project(y) for y in dst.elements()}
        assert len(classes) == cok.group.order


def test_identity_and_compose():
    g = FinAbGroup((6,))
    lm = identity_map(g)
    assert kernel(lm).order == 1
    assert cokernel(lm).group.order == 1
    double = LinearMap(g, g, [[2]])
    assert double.compose(double).apply((1,)) == (4,)


def test_enumerate_kernel_matches_presentation():
    # Mixed moduli with a nontrivial kernel in both coordinates.
    src = FinAbGroup((4, 2))
    dst = FinAbGroup((8,))
    lm = LinearMap(src, dst, [[2, 4]])
    ker = kernel(lm)
    brute = sorted(x for x in src.elements() if lm.apply(x) == (0,))
    assert sorted(ker.elements()) == brute
    assert ker.order == len(brute)
    for x in brute:
        c = ker.coords_of(x)
        assert c is not None and ker.embed(c) == x


def test_span_subgroup_against_closure():
    rng = np.random.default_rng(11)
    for _ in range(40):
        amb = _random_group(rng, 64)
        k = int(rng.integers(0, 3))
        gens = [amb.random_element(rng) for _ in range(k)]
        cols = np.array([list(g) for g in gens], dtype=np.int64).T if gens else np.zeros((amb.rank, 0), int)
        sub = span_subgroup(amb, cols)
        # Closure of the generators under addition.
        closure = {amb.zero()}
        frontier = [amb.zero()]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = amb.add(x, g)
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        assert sub.order == len(closure)
        for x in closure:
            assert sub.contains(x)


def test_homology_frozen_doubling_complex():
    # Z/2 --x2--> Z/4 --mod 2--> Z/2 is exact in the middle.
    z2, z4 = FinAbGroup((2,)), FinAbGroup((4,))
    h = homology(LinearMap(z2, z4, [[2]]), LinearMap(z4, z2, [[1]]))
    assert h.order == 1
    # With no incoming map the homology is the whole kernel.
    h2 = homology(LinearMap(FinAbGroup(()), z4, np.zeros((1, 0), int)), LinearMap(z4, z2, [[1]]))
    assert h2.group.factors == (2,)
    assert sorted(h2.representatives()) == [(0,), (2,)]
    assert h2.class_of((2,)) != h2.class_of((0,))


def test_homology_against_exhaustive_quotient():
    rng = np.random.default_rng(23)
    for _ in range(40):
        a = _random_group(rng, 32)
        b = _random_group(rng, 32)
        c = _random_group(rng, 32)
        outgoing = _random_map(rng, b, c)
        ker = kernel(outgoing)
        # Incoming maps land in the kernel by construction.
        inner = _random_map(rng, a, ker.group)
        cols = np.array(
            [list(ker.embed(inner.apply(e))) for e in np.eye(a.rank, dtype=np.int64)],
            dtype=np.int64,
        ).T if a.rank else np.zeros((b.rank, 0), int)
        incoming = LinearMap(a, b, cols)
        h = homology(incoming, outgoing)
        cycles = [x for x in b.elements() if outgoing.apply(x) == c.zero()]
        boundaries = {incoming.apply(x) for x in a.elements()}
        assert h.order == len(cycles) // len(boundaries)
        # Two cycles share a class exactly when they differ by a boundary.
        for _ in range(10):
            x = cycles[int(rng.integers(0, len(cycles)))]
            y = cycles[int(rng.integers(0, len(cycles)))]
            same = h.class_of(x) == h.class_of(y)
            assert same == (b.sub(x, y) in boundaries)
        reps = h.representatives()
        assert len({h.class_of(r) for r in reps}) == h.order
