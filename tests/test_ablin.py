import itertools
import re
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringcat import ablin, rings
from ringcat.ablin import (
    FinAbGroup,
    LinearMap,
    Quotient,
    HomologyData,
    Subgroup,
    _augmented,
    _replay,
    _solve,
    as_int_matrix,
    cokernel,
    homology,
    kernel,
    smith_normal_form,
    solve,
    solve_with_certificate,
    span_subgroup,
)
from ringcat.cohomology import complex_for
from ringcat.crossed import validate_bimodule


def det_exact(a) -> int:
    """Fraction-free determinant in arbitrary precision (small matrices)."""
    m = [[int(x) for x in row] for row in as_int_matrix(a)]
    n = len(m)
    if n == 0:
        return 1
    if n != len(m[0]):
        raise ValueError("determinant of a non-square matrix")
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def identity_map(g):
    return LinearMap(g, g, np.eye(g.rank, dtype=np.int64))


def kernel_order(lm):
    return kernel(lm).order


def image_order(lm):
    """Order of the image; checked against |source| = |kernel| * |image|."""
    via_coker = lm.target.order // cokernel(lm).group.order
    via_kernel = lm.source.order // kernel(lm).order
    assert via_coker == via_kernel, "rank-nullity over the two routes"
    return via_coker


INT64_MAX = int(np.iinfo(np.int64).max)


SNF_ARRAYS = ("s", "u", "v", "uinv", "vinv")
TRANSFORMS = SNF_ARRAYS[1:]


def reference_snf(a, dtype=object):
    """The elimination one entry at a time that smith_normal_form batches;
    its transforms are the ones smith_normal_form must return.

    Returns the five arrays, by name, and for each the largest |entry| any
    step wrote to it.  In the default object dtype it runs in exact
    integers."""
    s = as_int_matrix(a).astype(dtype)
    nr, nc = s.shape
    u = np.eye(nr, dtype=np.int64).astype(dtype)
    uinv = u.copy()
    v = np.eye(nc, dtype=np.int64).astype(dtype)
    vinv = v.copy()
    peak = dict.fromkeys(SNF_ARRAYS, 1)
    peak["s"] = int(np.abs(s).max(initial=1))

    def record(**written):
        for name, x in written.items():
            peak[name] = max(peak[name], int(np.abs(x).max()))

    def swap_rows(i, j):
        if i != j:
            s[[i, j]] = s[[j, i]]
            u[[i, j]] = u[[j, i]]
            uinv[:, [i, j]] = uinv[:, [j, i]]

    def swap_cols(i, j):
        if i != j:
            s[:, [i, j]] = s[:, [j, i]]
            v[:, [i, j]] = v[:, [j, i]]
            vinv[[i, j]] = vinv[[j, i]]

    def add_row(i, j, q):
        # row_i += q * row_j
        s[i] += q * s[j]
        u[i] += q * u[j]
        uinv[:, j] -= q * uinv[:, i]
        record(s=s[i], u=u[i], uinv=uinv[:, j])

    def add_col(i, j, q):
        # col_i += q * col_j
        s[:, i] += q * s[:, j]
        v[:, i] += q * v[:, j]
        vinv[j] -= q * vinv[i]
        record(s=s[:, i], v=v[:, i], vinv=vinv[j])

    def negate_row(i):
        s[i] = -s[i]
        u[i] = -u[i]
        uinv[:, i] = -uinv[:, i]

    t = 0
    while t < min(nr, nc):
        sub = s[t:, t:]
        if not sub.any():
            break
        # Move a least nonzero entry to the pivot position.
        nz = np.nonzero(sub)
        k = int(np.argmin(np.abs(sub[nz])))
        swap_rows(t, t + int(nz[0][k]))
        swap_cols(t, t + int(nz[1][k]))
        # Clear row and column t; remainders shrink, so this terminates.
        while True:
            piv = int(s[t, t])
            col = s[t + 1 :, t]
            if col.any():
                i = t + 1 + int(np.nonzero(col)[0][0])
                q = -(int(s[i, t]) // piv)
                add_row(i, t, q)
                if s[i, t] != 0:
                    swap_rows(i, t)
                continue
            row = s[t, t + 1 :]
            if row.any():
                j = t + 1 + int(np.nonzero(row)[0][0])
                q = -(int(s[t, j]) // piv)
                add_col(j, t, q)
                if s[t, j] != 0:
                    swap_cols(j, t)
                continue
            break
        # Fold any entry the pivot does not divide into the pivot block.
        rest = s[t + 1 :, t + 1 :]
        if rest.size and np.any(rest % s[t, t]):
            i, j = np.argwhere(rest % s[t, t])[0]
            add_row(t, t + 1 + int(i), 1)
            continue
        if s[t, t] < 0:
            negate_row(t)
        t += 1

    return SimpleNamespace(s=s, u=u, v=v, uinv=uinv, vinv=vinv), peak


def built(res):
    """The transforms of `res` built so far."""
    return {name for name in TRANSFORMS if name in vars(res)}


def snf_or_overflow(a):
    """smith_normal_form(a) with every transform built, or None when that
    raises OverflowError, which it may do only for an array whose exact
    elimination leaves the int64 range."""
    try:
        res = smith_normal_form(a)
        for name in TRANSFORMS:
            getattr(res, name)
        return res
    except OverflowError as e:
        name = re.fullmatch(r"Smith normal form: entry \d+ of (\w+) leaves int64", str(e))[1]
        assert reference_snf(a)[1][name] > INT64_MAX, f"raised on {name}, which fits int64"
        return None


def assert_same_snf(a, dtype=object, order=TRANSFORMS):
    """Read the transforms of smith_normal_form(a) one by one in `order`.
    Each read builds that transform alone, and every array equals the
    reference's, or raises OverflowError naming it when its exact
    elimination leaves the int64 range."""
    want, peak = reference_snf(a, dtype)
    try:
        got = smith_normal_form(a)
    except OverflowError as e:
        assert "of s leaves int64" in str(e) and peak["s"] > INT64_MAX
        return
    assert np.array_equal(got.s, want.s), "s"
    assert built(got) == set()
    done = set()
    for name in order:
        try:
            x = getattr(got, name)
        except OverflowError as e:
            assert f"of {name} leaves int64" in str(e) and peak[name] > INT64_MAX, name
        else:
            assert np.array_equal(x, getattr(want, name)), name
            done.add(name)
        assert built(got) == done


def check_snf(a):
    res = snf_or_overflow(a)
    if res is None:
        return None
    # The identities in exact integers: int64 products would wrap.
    a = np.asarray(a, dtype=np.int64).astype(object)
    u, v, uinv, vinv = (getattr(res, k).astype(object) for k in ("u", "v", "uinv", "vinv"))
    assert np.array_equal(u @ a @ v, res.s)
    assert np.array_equal(u @ uinv, np.eye(a.shape[0], dtype=np.int64))
    assert np.array_equal(v @ vinv, np.eye(a.shape[1], dtype=np.int64))
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


@st.composite
def snf_inputs(draw):
    """Up to 8x8 with entries in -30..30, some rows and columns zeroed, and
    a common factor now and then, so that every pivot is a non-unit."""
    nr, nc = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    scale = draw(st.sampled_from([1, 1, 2, 3, 6]))
    entry = st.integers(-30 // scale, 30 // scale).map(lambda x: scale * x)
    a = np.array([[draw(entry) for _ in range(nc)] for _ in range(nr)], dtype=np.int64)
    a = a.reshape(nr, nc)
    a[draw(st.lists(st.booleans(), min_size=nr, max_size=nr)), :] = 0
    a[:, draw(st.lists(st.booleans(), min_size=nc, max_size=nc))] = 0
    return a


@settings(max_examples=400, deadline=None)
@given(snf_inputs())
# The pivot divides neither 3 (fold) nor 6 (swap in the column, then the row).
@example(np.array([[2, 0], [0, 3]]))
@example(np.array([[4, 6, 4], [6, 4, 8]]))
@example(np.array([[4, 4], [6, 8], [-4, 10]]))
@example(np.array([[0, 0, 0], [0, -4, 6], [0, 10, -14]]))
@example(np.zeros((0, 0), dtype=np.int64))
@example(np.zeros((0, 3), dtype=np.int64))
@example(np.zeros((3, 0), dtype=np.int64))
@example(np.zeros((2, 3), dtype=np.int64))
def test_snf_matches_one_entry_at_a_time(a):
    assert_same_snf(a)


@settings(max_examples=200, deadline=None)
@given(snf_inputs(), st.permutations(TRANSFORMS))
@example(np.zeros((0, 0), dtype=np.int64), ("vinv", "v", "uinv", "u"))
@example(np.zeros((3, 2), dtype=np.int64), ("v", "u", "vinv", "uinv"))
@example(np.array([[4, 6, 4], [6, 4, 8]]), ("vinv", "uinv", "v", "u"))
def test_snf_builds_each_transform_alone_in_any_order(a, order):
    assert_same_snf(a, order=order)


def klein_complex():
    """The cochain complex of the Klein zero ring as a module over
    Z/2 x Z/2, where (1, 0) acts as the identity and (0, 1) as zero on
    both sides."""
    kl = rings.zero_mult_klein()
    q = rings.product_ring(rings.zmod(2), rings.zmod(2), name="klein")
    e = next(x for x in range(q.order) if x not in (0, q.unit) and q.mul[x, x] == x)
    acts = np.array(
        [np.arange(4) if q.mul[x, e] == e else np.zeros(4) for x in range(q.order)],
        dtype=np.int16,
    )
    factors, _, coords = rings.decompose_abelian(kl.add)
    mod = validate_bimodule(
        q, FinAbGroup(tuple(factors)), kl.add, kl.neg, acts, acts,
        np.array([coords[i] for i in range(kl.order)], dtype=np.int64),
    )
    return complex_for(mod)


def klein_d2_block():
    """[d2 | 2*I], the matrix `kernel` reduces for the d2 map of the Klein
    complex."""
    return _augmented(klein_complex().d2_map)


def test_snf_matches_one_entry_at_a_time_on_census_block():
    a = klein_d2_block()
    assert a.shape == (234, 270)
    # Its entries stay small, so the int64 reference is exact and quicker.
    assert_same_snf(a, dtype=np.int64)


def recorded_snfs(monkeypatch):
    """Every SNFResult `smith_normal_form` returns from now on, in order."""
    results = []
    snf = ablin.smith_normal_form

    def recording(a):
        results.append(snf(a))
        return results[-1]

    monkeypatch.setattr(ablin, "smith_normal_form", recording)
    return results


def test_each_caller_builds_only_the_transforms_it_reads(monkeypatch):
    d2_map = klein_complex().d2_map
    results = recorded_snfs(monkeypatch)
    ker = kernel(d2_map)
    # The augmented d2 block, then span_subgroup's lattice and relations.
    # kernel reads v's first rows from the column log, and solve its
    # products from both logs, so neither builds a transform.
    assert [r.s.shape for r in results] == [(234, 270), (36, 72), (36, 36)]
    assert [built(r) for r in results] == [set(), {"u", "uinv"}, {"uinv"}]
    results.clear()
    cokernel(d2_map)
    assert [built(r) for r in results] == [{"u", "uinv"}]
    results.clear()
    assert solve(d2_map, d2_map.apply(ker.gens[0])) is not None
    assert [built(r) for r in results] == [set()]


def test_class_of_factors_the_cycles_embedding_once(monkeypatch):
    # homology solves its boundaries against the factorisation of the
    # cycles' embedding that class_of reads again, so across homology and
    # every class_of that block is factored once.  The other four blocks
    # are kernel's three and the cokernel of the boundaries in cycles.
    cx = klein_complex()
    blocks = []
    snf = ablin.smith_normal_form
    monkeypatch.setattr(ablin, "smith_normal_form", lambda a: blocks.append(np.array(a)) or snf(a))
    h = homology(cx.d1_map, cx.d2_map)
    classes = [h.class_of(x) for x in h.cycles.gens]
    embed = _augmented(h.cycles._embed)
    assert sum(a.shape == embed.shape and (a == embed).all() for a in blocks) == 1
    assert len(blocks) == 5 and built(h.cycles._snf) == set()
    monkeypatch.undo()
    assert classes == [reference_class_of(h, x) for x in h.cycles.gens]
    assert len(set(classes)) > 1


def test_snf_raises_instead_of_wrapping_past_int64():
    # The diagonal is (1, 1, 1, 442245), but in exact integers an entry of
    # v reaches about 5e20; in int64 it would wrap, and u @ a @ v would
    # equal s only modulo 2**64.
    # uinv passes int64 as well; u and vinv fit, and are read as usual.
    a = [[-6, 12, -12, 25], [27, 0, 6, 0], [-20, 13, 30, 13], [24, -28, 15, -24]]
    with pytest.raises(OverflowError, match="of v leaves int64"):
        smith_normal_form(a).v
    res = smith_normal_form(a)
    with pytest.raises(OverflowError, match="of uinv leaves int64"):
        res.uinv
    want, peak = reference_snf(a)
    assert res.diagonal == [int(x) for x in np.diagonal(want.s)] == [1, 1, 1, 442245]
    assert peak["v"] > INT64_MAX and peak["uinv"] > INT64_MAX
    assert np.array_equal(res.u, want.u) and np.array_equal(res.vinv, want.vinv)
    assert built(res) == {"u", "vinv"}


def scaled_snf(m, *factors):
    """Make call k of `smith_normal_form` factor factors[k] times its input."""
    snf, it = ablin.smith_normal_form, iter(factors)
    m.setattr(ablin, "smith_normal_form", lambda a: snf(next(it) * np.asarray(a)))


Z4 = FinAbGroup((4,))


def solve_rank(m):
    # A factorisation of a zero block has a zero diagonal.
    lm = LinearMap(Z4, Z4, [[1]])
    return partial(_solve, lm, [1], smith_normal_form([[0, 0]])), "target moduli must make the system full row rank"


def solve_post(m):
    # x -> 3x solved with the factorisation of x -> x returns x = b.
    lm = LinearMap(Z4, Z4, [[3]])
    return partial(_solve, lm, [1], smith_normal_form([[1, 4]])), "solver postcondition"


def span_rank(m):
    scaled_snf(m, 0)
    return partial(span_subgroup, Z4, [[2]]), "the moduli force a full-rank lattice"


def span_moduli(m):
    # The lattice of [6 | 12] does not hold the modulus 4.
    scaled_snf(m, 3)
    return partial(span_subgroup, Z4, [[2]]), "moduli must lie in the lattice"


def span_order(m):
    # The relations [[4]] instead of [[2]] present Z/4, not the order 2 of <2>.
    scaled_snf(m, 1, 2)
    return partial(span_subgroup, Z4, [[2]]), "subgroup order must match the lattice index"


def kernel_gens(m):
    # The kernel of the zero map read against the identity.
    lm = LinearMap(Z4, Z4, [[1]])
    return partial(kernel, lm, smith_normal_form([[0, 4]])), "kernel generator sanity"


def kernel_last_gen(m):
    # A true kernel generator, then one outside the kernel: the check
    # reads every generator, not only the first.
    lm = LinearMap(FinAbGroup((4, 4)), Z4, [[1, 0]])
    span = ablin.span_subgroup

    def with_a_wrong_last(ambient, cols):
        sub = span(ambient, cols)
        return Subgroup(ambient, FinAbGroup((*sub.group.factors, 4)), [*sub.gens, (1, 0)])

    assert kernel(lm).gens == [(0, 1)]
    m.setattr(ablin, "span_subgroup", with_a_wrong_last)
    return partial(kernel, lm), "kernel generator sanity"


def section(m):
    quot = Quotient(Z4, FinAbGroup((2,)), np.array([[1]]), np.array([[2]]))
    return partial(quot.lift, (1,)), "section postcondition"


def cokernel_rank(m):
    scaled_snf(m, 0)
    lm = LinearMap(Z4, Z4, [[1]])
    return partial(cokernel, lm), "target moduli must make the system full row rank"


POSTCONDITIONS = {f.__name__: f for f in (
    solve_rank, solve_post, span_rank, span_moduli, span_order, kernel_gens, kernel_last_gen,
    section, cokernel_rank,
)}


@pytest.mark.parametrize("check", list(POSTCONDITIONS))
def test_broken_postconditions_raise_without_assert(check, monkeypatch):
    # Each internal check raises AssertionError itself, so `python -O`
    # keeps it.
    call, message = POSTCONDITIONS[check](monkeypatch)
    with pytest.raises(AssertionError) as e:
        call()
    assert str(e.value) == message


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


def test_group_rejects_factor_below_one():
    with pytest.raises(ValueError, match="at least 1"):
        FinAbGroup((2, 0))


def test_compose_rejects_mismatched_groups():
    z2, z4 = FinAbGroup((2,)), FinAbGroup((4,))
    with pytest.raises(ValueError, match="compose"):
        identity_map(z2).compose(identity_map(z4))


def test_homology_rejects_mismatched_groups():
    z2, z4 = FinAbGroup((2,)), FinAbGroup((4,))
    with pytest.raises(ValueError, match="outgoing source"):
        homology(identity_map(z2), identity_map(z4))


def test_homology_rejects_maps_that_do_not_compose_to_zero():
    z4 = FinAbGroup((4,))
    with pytest.raises(ValueError, match="not a cycle"):
        homology(identity_map(z4), identity_map(z4))


def test_class_of_rejects_a_non_cycle():
    z2, z4 = FinAbGroup((2,)), FinAbGroup((4,))
    h = homology(LinearMap(FinAbGroup(()), z4, np.zeros((1, 0), int)), LinearMap(z4, z2, [[1]]))
    with pytest.raises(ValueError, match="not a cycle"):
        h.class_of((1,))


def test_linear_map_rejects_ill_defined():
    z2, z4 = FinAbGroup((2,)), FinAbGroup((4,))
    with pytest.raises(ValueError, match="modulus"):
        # 1 has order 2 in the source but its image would have order 4.
        LinearMap(z2, z4, [[1]])
    LinearMap(z2, z4, [[2]])  # fine: doubling lands in the 2-torsion
    # Generator 0 is fine; generators 1 and 2 both break, and the first
    # one is named.
    with pytest.raises(ValueError, match=r"^generator 1 breaks the modulus 3$"):
        LinearMap(FinAbGroup((2, 3, 4)), FinAbGroup((4, 6)), [[2, 1, 1], [3, 2, 1]])


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


def reference_subgroup_elements(sub):
    """The distinct embedded elements of a subgroup, one abstract element
    at a time through `embed`."""
    seen = set()
    for c in sub.group.elements():
        e = sub.embed(c)
        if e not in seen:
            seen.add(e)
            yield e


def test_subgroup_elements_match_the_one_at_a_time_loop():
    rng = np.random.default_rng(49)
    subs = [kernel(klein_complex().d2_map), Subgroup(FinAbGroup(()), FinAbGroup(()), []),
            Subgroup(FinAbGroup(()), FinAbGroup((3,)), [()])]
    for _ in range(60):
        src, dst = _random_group(rng, 64), _random_group(rng, 64)
        lm = _random_map(rng, src, dst)
        subs += [kernel(lm), span_subgroup(dst, lm.matrix),
                 Subgroup(dst, src, [tuple(c) for c in lm.matrix.T.tolist()])]
    # In (Z/2)^16 a block holds BLOCK_CELLS // 16 = 4096 rows, so the 2^14
    # sums of 14 generators fill four.
    dst = FinAbGroup((2,) * 16)
    subs.append(Subgroup(dst, FinAbGroup((2,) * 14),
                         [tuple(int(x) for x in rng.integers(0, 2, 16)) for _ in range(14)]))
    for sub in subs:
        assert list(sub.elements()) == list(reference_subgroup_elements(sub))


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


def reference_solve_with_certificate(lm, b):
    """The one-column solve that `_solve` batches: factor lm's augmented
    block and divide one row at a time, stopping at the first row whose
    residue is nonzero."""
    h, g = lm.target.rank, lm.source.rank
    if h == 0:
        return lm.source.zero(), None
    res = smith_normal_form(_augmented(lm))
    c = res.u @ np.asarray(b, dtype=np.int64)
    w = np.zeros(g + h, dtype=np.int64)
    for i in range(h):
        d = int(res.s[i, i])
        assert d > 0
        if c[i] % d:
            return None, (res.u[i].tolist(), d, int(c[i] % d))
        w[i] = c[i] // d
    x = lm.source.reduce((res.v @ w)[:g])
    assert lm.apply(x) == lm.target.reduce(b)
    return x, None


def reference_homology(incoming, outgoing):
    """The per-column loop homology ran before it solved every boundary
    against one factorisation: each boundary is solved on its own."""
    cyc = kernel(outgoing)
    cols = []
    for j in range(incoming.source.rank):
        b = incoming.target.reduce(incoming.matrix[:, j])
        c, _ = reference_solve_with_certificate(cyc._embed, b)
        if c is None:
            raise ValueError(f"boundary {j} is not a cycle: the maps do not compose to zero")
        cols.append(c)
    mat = (
        np.array(cols, dtype=np.int64).T
        if cols
        else np.zeros((cyc.group.rank, 0), dtype=np.int64)
    )
    quot = cokernel(LinearMap(incoming.source, cyc.group, mat))
    return HomologyData(cyc, quot.group, quot)


def reference_class_of(h, x):
    c, _ = reference_solve_with_certificate(h.cycles._embed, x)
    return None if c is None else h._quot.project(c)


def assert_same_homology(got, want, probes=()):
    """Equal cycle generators, group factors, representatives, and classes
    of the representatives and of each cycle in `probes`."""
    assert got.cycles.group.factors == want.cycles.group.factors
    assert got.cycles.gens == want.cycles.gens
    assert got.group.factors == want.group.factors
    reps = got.representatives()
    assert reps == want.representatives()
    for x in [*reps, *probes]:
        assert got.class_of(x) == reference_class_of(want, x)


def test_solve_matches_column_by_column():
    # Column j of rhs: an image when flip[j] is 0, an arbitrary element
    # (often outside the image) otherwise.
    rng = np.random.default_rng(31)
    unsolvable = 0
    for _ in range(150):
        src = _random_group(rng)
        dst = _random_group(rng, max_order=64)
        lm = _random_map(rng, src, dst)
        k = int(rng.integers(0, 5))
        flip = rng.integers(0, 3, size=k) == 0
        cols = [
            dst.random_element(rng) if bad else lm.apply(src.random_element(rng))
            for bad in flip
        ]
        rhs = np.array(cols, dtype=np.int64).reshape(k, dst.rank).T
        want = [reference_solve_with_certificate(lm, b) for b in cols]
        x, j, cert = _solve(lm, rhs)
        first_bad = next((i for i, (_, c) in enumerate(want) if c is not None), None)
        if first_bad is None:
            assert j is None and cert is None
            assert x.shape == (src.rank, k)
            assert [tuple(col) for col in x.T.tolist()] == [w for w, _ in want]
        else:
            unsolvable += 1
            assert x is None and j == first_bad
            assert (cert.row.tolist(), cert.modulus, cert.residue) == want[first_bad][1]
        for b, (wx, wcert) in zip(cols, want, strict=True):
            one, one_cert = solve_with_certificate(lm, b)
            assert one == wx
            if wcert is None:
                assert one_cert is None
            else:
                assert (one_cert.row.tolist(), one_cert.modulus, one_cert.residue) == wcert
    assert unsolvable >= 20


# ---------------------------------------------------------------------------
# Solves and kernels read the transforms through the logs.


@settings(max_examples=300, deadline=None)
@given(snf_inputs(), st.data())
def test_the_logs_give_the_products_of_the_built_transforms(a, data):
    # u @ x runs the row log forward, v @ w and row i of u run a log
    # backwards with each step transposed, and v's first g rows run the
    # column log forward on the identity's first g columns; each equals
    # the product with the built transform, in exact integers.
    res = snf_or_overflow(a)
    if res is None:
        return
    nr, nc = a.shape
    k = data.draw(st.integers(0, 3))
    entries = st.lists(st.integers(-9, 9), min_size=k, max_size=k)
    x = np.array([data.draw(entries) for _ in range(nr)], dtype=np.int64).reshape(nr, k)
    w = np.array([data.draw(entries) for _ in range(nc)], dtype=np.int64).reshape(nc, k)
    u, v = res.u.astype(object), res.v.astype(object)
    assert np.array_equal(_replay(res.row_log, x.copy(), "u @ x"), u @ x.astype(object))
    assert np.array_equal(_replay(res.col_log, w.copy(), "v @ w", transposed=True),
                          v @ w.astype(object))
    for i in range(nr):
        row = _replay(res.row_log, np.eye(nr, 1, -i, dtype=np.int64), "u", transposed=True)
        assert np.array_equal(row[:, 0], res.u[i])
    g = data.draw(st.integers(0, nc))
    assert np.array_equal(_replay(res.col_log, np.eye(nc, g, dtype=np.int64), "v").T, res.v[:g])


def solve_from_transforms(lm, rhs, res):
    """`_solve` as it was before it read the logs: u @ rhs, row i of u for
    a certificate, and (v @ w)[:g], all from the built transforms."""
    h, g = lm.target.rank, lm.source.rank
    c = res.u @ rhs
    d = np.diagonal(res.s)[:h, None]
    rem = c % d
    bad = np.flatnonzero(rem.any(axis=0))
    if bad.size:
        j = int(bad[0])
        i = int(np.flatnonzero(rem[:, j])[0])
        return None, j, (res.u[i].tolist(), int(d[i, 0]), int(rem[i, j]))
    w = np.zeros((g + h, rhs.shape[1]), dtype=np.int64)
    w[:h] = c // d
    return (res.v @ w)[:g] % np.asarray(lm.source.factors, dtype=np.int64)[:, None], None, None


def test_solve_and_kernel_read_the_logs_as_the_transforms(monkeypatch):
    # On the 41 census d2 blocks of shape 234 x 270 and on random maps,
    # `_solve` against the logs alone gives what the built transforms
    # give, certificates included, and the kernel's x-parts are v[:g, r:].
    from test_cohomology import klein_census_modules  # it imports this module

    census = [complex_for(m).d2_map for m in klein_census_modules()]
    census = [lm for lm in census if _augmented(lm).shape == (234, 270)]
    assert len(census) == 41
    rng = np.random.default_rng(37)
    maps = census + [_random_map(rng, _random_group(rng), _random_group(rng, 64))
                     for _ in range(200)]
    spans = []
    span = ablin.span_subgroup
    monkeypatch.setattr(ablin, "span_subgroup",
                        lambda ambient, cols: spans.append(np.array(cols)) or span(ambient, cols))
    solved = failed = 0
    for lm in maps:
        h, g = lm.target.rank, lm.source.rank
        if not h or not g:
            continue
        res = ablin._factor(lm)
        logs = res.logs()
        for flip in ([0, 0, 0], [0, 1, 1], [1, 0, 1]):
            cols = [lm.target.random_element(rng) if bad else lm.apply(lm.source.random_element(rng))
                    for bad in flip]
            rhs = np.array(cols, dtype=np.int64).T
            x, j, cert = _solve(lm, rhs, logs)
            want_x, want_j, want_cert = solve_from_transforms(lm, rhs, res)
            if want_x is None:
                failed += 1
                assert x is None and j == want_j
                assert (cert.row.tolist(), cert.modulus, cert.residue) == want_cert
            else:
                solved += 1
                assert np.array_equal(x, want_x) and j is None and cert is None
        spans.clear()
        assert kernel(lm, logs).gens == kernel(lm, res).gens
        assert np.array_equal(spans[0], res.v[:g, res.rank:])
    assert solved >= 150 and failed >= 150


def random_complex(rng):
    """incoming, outgoing with incoming's image inside outgoing's kernel."""
    a = _random_group(rng, 32)
    b = _random_group(rng, 32)
    c = _random_group(rng, 32)
    outgoing = _random_map(rng, b, c)
    ker = kernel(outgoing)
    inner = _random_map(rng, a, ker.group)
    cols = np.array(
        [list(ker.embed(inner.apply(e))) for e in np.eye(a.rank, dtype=np.int64)],
        dtype=np.int64,
    ).T if a.rank else np.zeros((b.rank, 0), int)
    return LinearMap(a, b, cols), outgoing


def test_homology_matches_the_per_column_loop():
    rng = np.random.default_rng(29)
    for _ in range(60):
        incoming, outgoing = random_complex(rng)
        cycles = [x for x in incoming.target.elements()
                  if outgoing.apply(x) == outgoing.target.zero()]
        assert_same_homology(homology(incoming, outgoing),
                             reference_homology(incoming, outgoing), cycles[:8])


def test_homology_names_the_first_boundary_that_is_not_a_cycle():
    # Boundaries 0 and 3 map to 0 under reduction mod 2; 1 and 2 do not,
    # and the error names 1.
    z4, z2 = FinAbGroup((4,)), FinAbGroup((2,))
    incoming = LinearMap(FinAbGroup((4, 4, 4, 4)), z4, [[2, 1, 3, 0]])
    with pytest.raises(ValueError, match=r"^boundary 1 is not a cycle"):
        homology(incoming, LinearMap(z4, z2, [[1]]))


def reference_replay(log, a, inverse=False, transposed=False):
    """`_replay` in exact integers, one row operation at a time."""
    a = np.array(a, dtype=object)
    for op, *args in (reversed(log) if transposed else log):
        if op == "swap":
            i, j = args
            a[[i, j]] = a[[j, i]]
        elif op == "neg":
            a[args[0]] *= -1
        else:
            t, idx, q = (args[1], [args[0]], [1]) if op == "fold" else args[:3]
            for i, qi in zip(idx, q, strict=True):
                if inverse:
                    a[t] -= int(qi) * a[i]
                elif transposed:
                    a[t] += int(qi) * a[i]
                else:
                    a[i] += int(qi) * a[t]
    return a


BIG = 2**62
# Row 1 passes int64 on the way (3 * 2**62) and comes back to 2**62; a
# swap and a sign flip ride along.
THROUGH_LOG = [("add", 0, np.array([1]), np.array([BIG]), BIG), ("swap", 0, 2),
               ("add", 2, np.array([1]), np.array([2 * BIG - 1]), 2 * BIG - 1),
               ("neg", 1), ("add", 2, np.array([1]), np.array([2 * BIG - 1]), 2 * BIG - 1),
               ("fold", 2, 0)]
# Growth without the way back: in every mode a row ends at 2**124 or more.
OUT_LOG = [("add", 0, np.array([1]), np.array([BIG]), BIG),
           ("add", 1, np.array([2]), np.array([BIG]), BIG),
           ("add", 2, np.array([0]), np.array([BIG]), BIG)]


@pytest.mark.parametrize("mode", [{}, {"inverse": True}, {"transposed": True}])
def test_a_replay_that_passes_int64_only_on_the_way_is_exact(mode):
    for log in (THROUGH_LOG, OUT_LOG[:1]):
        a = np.eye(3, dtype=np.int64)
        want = reference_replay(log, a, **mode)
        assert max(abs(int(x)) for x in want.ravel()) <= INT64_MAX
        got = _replay(log, a, "u", **mode)
        assert got is a and got.dtype == np.int64
        assert np.array_equal(got, want)


@pytest.mark.parametrize("mode", [{}, {"inverse": True}, {"transposed": True}])
def test_a_replay_whose_result_leaves_int64_names_its_transform(mode):
    a = np.eye(3, dtype=np.int64)
    want = reference_replay(OUT_LOG, a, **mode)
    top = max(abs(int(x)) for x in want.ravel())
    assert top > INT64_MAX
    with pytest.raises(OverflowError, match=f"^Smith normal form: entry {top} of vinv leaves int64$"):
        _replay(OUT_LOG, a, "vinv", **mode)


def test_the_replay_matches_the_one_step_walk_on_census_logs():
    # The logs of every seventh census d2 block in all three modes.
    from test_cohomology import klein_census_modules  # it imports this module

    for mod in klein_census_modules()[::7]:
        res = smith_normal_form(_augmented(complex_for(mod).d2_map))
        for log in (res.row_log, res.col_log):
            size = len(res.s) if log is res.row_log else res.s.shape[1]
            for mode in ({}, {"inverse": True}, {"transposed": True}):
                eye = np.eye(size, dtype=np.int64)
                assert np.array_equal(_replay(log, eye.copy(), "x", **mode),
                                      reference_replay(log, eye, **mode))
