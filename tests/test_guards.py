"""Every size limit is checked by `ablin._guard`: before the step it
guards allocates anything, and reported in one format.

Each case below trips one site with a small limit, passed as `guard=` or
monkeypatched where the check reads it, and replaces the first thing the
site would run past its check by a function that fails the test.  The
search sites first empty the search's per-ring memos, so that a warm
entry cannot hide a table built before its guard.
"""

import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

from ringcat import ablin, anncat, bimult, cohomology, crossed, extensions, rings, transport
from ringcat.ablin import FinAbGroup, LinearMap, SearchGuardError, smith_normal_form, span_subgroup
from ringcat.anncat import anncat_axiom_check
from ringcat.bimult import bimult_ring, enumerate_bimultiplications
from ringcat.cohomology import complex_for, h2
from ringcat.corpus import corpus
from ringcat.crossed import multiplier_esystem, validate_esystem
from ringcat.extensions import equivalent, exhaustive_extension_search
from ringcat.rings import RingHom, _additive_maps, ideal_cokernel
from ringcat.rings import zero_mult, zero_mult_klein, zmod
from ringcat.transport import reduce_esystem, reduced_axiom_check
from test_anncat import doubled_into_z4, with_entry, zero_action_es
from test_cohomology import ring_as_module
from test_extensions import clear_search_memos, corpus_triple, flat_z2, klein, z4_extension
import test_rings
from test_rings import upper_triangular_z2

GUARD_MESSAGE = r"^\d+ [^,]+, over the guard \d+$"


def never(what):
    def run(*args, **kwargs):
        raise AssertionError(f"{what} ran past its guard")
    return run


def flat_z2_search():
    """flat_z2 over its own cokernel Z/2, psi = id: 2 additive defects,
    4 actions, 2 options for the one g slot, 1 target lift per class."""
    es = {es.name: es for es in corpus()}["flat_z2"]
    q = ideal_cokernel(es.d).ring
    return es, q, RingHom(q, q, np.arange(q.order))


def bimult_order(m):
    m.setattr(bimult, "ORDER_LIMIT", 1)
    m.setattr(bimult, "_additive_maps", never("the endomap enumeration"))
    call = partial(enumerate_bimultiplications, zmod(2))
    return call, "2 ring elements for bimultiplication enumeration, over the guard 1"


def bimult_pairs(m):
    m.setattr(bimult, "CANDIDATE_LIMIT", 3)
    m.setattr(bimult, "_mixed_product", never("the pair scan"))
    call = partial(enumerate_bimultiplications, zero_mult(2))
    return call, "4 candidate bimultiplications, over the guard 3"


def bimult_ring_order(m):
    m.setattr(bimult, "RING_ORDER_LIMIT", 3)
    m.setattr(bimult, "_row_lookup", never("the bimultiplication ring tables"))
    return partial(bimult_ring, zero_mult(2)), "4 bimultiplication ring elements, over the guard 3"


def additive_maps(m):
    m.setattr(rings, "CANDIDATE_LIMIT", 1)
    m.setattr(rings, "_product_blocks", never("the map decoding"))
    z2 = zmod(2)
    return partial(_additive_maps, z2.add, z2.add), "2 candidate additive maps, over the guard 1"


def isomorphism(m):
    # The isomorphism search is a test helper; it keeps the library's guard.
    m.setattr(test_rings, "ORDER_LIMIT", 1)
    m.setattr(test_rings, "_additive_maps", never("the map enumeration"))
    z2 = zmod(2)
    call = partial(test_rings.find_ring_isomorphism, z2, z2)
    return call, "2 ring elements for the isomorphism search, over the guard 1"


def complex_degree(degree, guard, size):
    # Z/2 acting on itself: 1, 2 and 5 coordinates in degrees 1, 2, 3.
    def case(m):
        m.setattr(cohomology, "_tiled_group", never("the cochain groups"))
        mod = ring_as_module(zmod(2))
        call = partial(complex_for, mod, guard=guard)
        return call, f"{size} degree {degree} coordinates, over the guard {guard}"
    return case


def equivalence(m):
    es = flat_z2()
    e4 = z4_extension(es)
    m.setattr(extensions, "_preimages", never("the correction scan"))
    return partial(equivalent, e4, e4, guard=1), "2 candidate corrections, over the guard 1"


def search_f(m):
    es, q, psi = flat_z2_search()
    clear_search_memos()
    m.setattr(extensions, "enumerate_bimultiplications", never("the action pool"))
    m.setattr(extensions, "_product_blocks", never("the additive defect pool"))
    call = partial(exhaustive_extension_search, es, q, psi, guard=1)
    return call, "2 additive defect candidates, over the guard 1"


def search_actions(m):
    es, q, psi = flat_z2_search()
    clear_search_memos()
    m.setattr(extensions, "_product_blocks", never("the additive defect pool"))
    m.setattr(extensions, "_permutable", never("the permutability table"))
    call = partial(exhaustive_extension_search, es, q, psi, guard=3)
    return call, "4 action candidates, over the guard 3"


def search_permutability(m):
    # 4 bimultiplications of the zero ring on Z/2: 4 * 4 * 2 cells.
    es, q, psi = flat_z2_search()
    clear_search_memos()
    m.setattr(extensions, "CELL_LIMIT", 31)
    m.setattr(extensions, "_permutable", never("the permutability table"))
    m.setattr(extensions, "_product_blocks", never("the additive defect pool"))
    call = partial(exhaustive_extension_search, es, q, psi)
    return call, "32 permutability grid cells, over the guard 31"


def search_g(m):
    # The f and action stages run with the default limit; the g stage
    # gets limit 1 (its argument after the block of actions).
    es, q, psi = flat_z2_search()
    stage = extensions._search_g_stage
    m.setattr(extensions, "_search_g_stage", lambda *a: stage(*a[:6], 1, *a[7:]))
    m.setattr(extensions, "crossed_tables", never("the crossed tables"))
    call = partial(exhaustive_extension_search, es, q, psi)
    return call, "2 multiplicative defect candidates, over the guard 1"


def search_target_lift(m):
    es, q, psi = flat_z2_search()
    lift = extensions._target_lift
    m.setattr(extensions, "_target_lift", lambda *a: lift(*a[:-1], 0))
    m.setattr(extensions, "_lift_defects", never("the target-lift scan"))
    call = partial(exhaustive_extension_search, es, q, psi)
    return call, "1 target-lift candidates, over the guard 0"


def reduced_check(m):
    rc = reduce_esystem(flat_z2())
    m.setattr(transport, "CELL_LIMIT", 15)
    m.setattr(transport, "_coherence_laws", never("the coherence laws"))
    call = partial(reduced_axiom_check, rc.k)
    return call, "16 coherence grid cells, over the guard 15"


def snf(m):
    # A 2 x 3 matrix: 6 cells of s, 4 of u and uinv, 9 of v and vinv.
    m.setattr(ablin, "CELL_LIMIT", 31)
    m.setattr(ablin, "_keys", never("the elimination"))
    call = partial(smith_normal_form, np.ones((2, 3), dtype=np.int64))
    return call, "32 Smith normal form cells, over the guard 31"


def snf_block(m):
    # lm's augmented block is 2 x 3, as in `snf`.
    m.setattr(ablin, "CELL_LIMIT", 31)
    m.setattr(ablin, "_augmented", never("the augmented block"))
    lm = LinearMap(FinAbGroup((2,)), FinAbGroup((2, 2)), [[0], [0]])
    return partial(ablin.kernel, lm), "32 Smith normal form cells, over the guard 31"


def snf_span(m):
    # One column beside the 2 x 2 moduli block: again 2 x 3.
    m.setattr(ablin, "CELL_LIMIT", 31)
    m.setattr(np, "diag", never("the moduli block"))
    call = partial(span_subgroup, FinAbGroup((2, 2)), np.zeros((2, 1), dtype=np.int64))
    return call, "32 Smith normal form cells, over the guard 31"


def never_on_grids(m, axes):
    """Make anncat's tensor fail on index grids of `axes` axes, the grids
    of the law under test, and run as before on smaller ones."""
    tensor = anncat._tensor

    def run(es, b1, *rest):
        if np.ndim(b1) == axes:
            raise AssertionError("a 2-ring grid ran past its guard")
        return tensor(es, b1, *rest)
    m.setattr(anncat, "_tensor", run)


def anncat_add_interchange(m):
    # |B| = |D| = 2: 16 cells for add-interchange, then 16 for tensor-cod.
    # Base addition with 0 + 1 != 1 + 0 fails add-commutative, so
    # add-interchange is scanned, not proved.
    m.setattr(anncat, "CELL_LIMIT", 15)
    m.setattr(anncat, "_tensor", never("a later 2-ring law"))
    call = partial(anncat_axiom_check, with_entry(zero_action_es(), "b.add", (0, 1), 0))
    return call, "16 add-interchange grid cells, over the guard 15"


def anncat_tensor_cod(m):
    # |B| = 2, |D| = 4: 16 cells for add-interchange, 64 for tensor-cod.
    # The valid system proves tensor-cod and builds no grid.  Its d is
    # zero, so no theta entry can break the proof's equivariance
    # (d(lam_x(b)) = 0 = x d(b)); d(1) = 1, idempotent in D, breaks d's
    # multiplicativity on the zero ring and its equivariance, so the grid
    # is scanned.
    m.setattr(anncat, "CELL_LIMIT", 63)
    never_on_grids(m, 4)
    es = with_entry(multiplier_esystem(rings.zero_mult(2)), "d.map", (1,), 1)
    call = partial(anncat_axiom_check, es)
    return call, "64 tensor-cod grid cells, over the guard 63"


def klein_over_z2():
    """The Klein zero ring with Z/2 acting by the identity and d = 0: a
    regular system with |B| = 4 > |D| = 2, so a tensor-interchange row,
    nb^3 * nd = 128 cells, holds more than the tensor-cod grid, 64."""
    tl = np.array([[0, 0, 0, 0], [0, 1, 2, 3]], dtype=np.int16)
    return validate_esystem(zero_mult_klein(), zmod(2), np.zeros(4, dtype=np.int16), tl, tl)


def anncat_chunk(m):
    # A changed action entry leaves the tensor-interchange chunk x1 = 1
    # unproved.  Its chunk has 4^4 * 2 = 512 cells, scanned one b1 row of
    # 128 at a time, so the row is charged.
    es = with_entry(klein_over_z2(), "theta_left", (1, 1), 0)
    m.setattr(anncat, "CELL_LIMIT", 127)
    never_on_grids(m, 5)
    call = partial(anncat_axiom_check, es)
    return call, "128 tensor-interchange row cells, over the guard 127"


SITES = {
    "bimult-order": bimult_order,
    "bimult-pairs": bimult_pairs,
    "bimult-ring-order": bimult_ring_order,
    "additive-maps": additive_maps,
    "isomorphism": isomorphism,
    "complex-degree-1": complex_degree(1, 0, 1),
    "complex-degree-2": complex_degree(2, 1, 2),
    "complex-degree-3": complex_degree(3, 4, 5),
    "equivalent": equivalence,
    "search-f": search_f,
    "search-actions": search_actions,
    "search-permutability": search_permutability,
    "search-g": search_g,
    "search-target-lift": search_target_lift,
    "reduced-axiom-check": reduced_check,
    "smith-normal-form": snf,
    "smith-normal-form-block": snf_block,
    "smith-normal-form-span": snf_span,
    "anncat-add-interchange": anncat_add_interchange,
    "anncat-tensor-cod": anncat_tensor_cod,
    "anncat-chunk": anncat_chunk,
}


@pytest.mark.parametrize("site", list(SITES))
def test_every_guard_site_refuses_before_it_allocates(site, monkeypatch):
    call, message = SITES[site](monkeypatch)
    assert re.match(GUARD_MESSAGE, message)
    with pytest.raises(SearchGuardError, match=GUARD_MESSAGE) as e:
        call()
    assert str(e.value) == message


@pytest.mark.parametrize(
    "q, psi",
    [(zmod(4), [0, 1, 0, 1]), (klein(), [0, 0, 1, 1]), (klein(), [0, 1, 0, 1])],
    ids=["z4", "z2xz2-0011", "z2xz2-0101"],
)
def test_flat_klein0_searches_over_order_4_quotients_trip_the_action_guard(q, psi, monkeypatch):
    # The action stage decodes only the generator classes, but its guard
    # counts every tuple of the 256 bimultiplications of the Klein zero
    # ring over the 3 classes != 0, so these searches are still refused,
    # before the additive defect pool is built.
    es, q, psi = corpus_triple("flat_klein0", q, psi)
    monkeypatch.setattr(extensions, "_product_blocks", never("the additive defect pool"))
    with pytest.raises(SearchGuardError) as e:
        exhaustive_extension_search(es, q, psi)
    assert str(e.value) == "16777216 action candidates, over the guard 1000000"


def square_zero_z2xyz():
    """Z/2[x, y, z]/(x, y, z)^2: element a*8 + v is a + v with v in the
    span of x = 1, y = 2, z = 4; addition is XOR and the unit is 8."""
    i = np.arange(16)
    a, v = i >> 3, i & 7
    mul = 8 * (a[:, None] & a) + ((a[:, None] * v) ^ (v[:, None] * a))
    return rings.validate_ring(i[:, None] ^ i, mul, 8, name="z2xyz_square_zero")


def test_a_pool_past_the_action_guard_trips_the_permutability_guard():
    # The ideal (x, y, z) has zero products, so each of its 2^9 additive
    # endomaps is a left and a right multiplier: 262144 bimultiplications,
    # within the action guard over the cokernel Z/2 (262144^1 <= 10^6).
    # Their permutability table would have 262144^2 * 8 cells (1 TiB).
    es = crossed.ideal_esystem(square_zero_z2xyz(), range(8))
    q = es.cokernel.ring
    try:
        with pytest.raises(SearchGuardError) as e:
            exhaustive_extension_search(es, q, RingHom(q, q, np.arange(q.order)))
    finally:
        extensions._bimult_pool.cache_clear()
    assert str(e.value) == "549755813888 permutability grid cells, over the guard 10000000"


def test_proved_chunks_are_not_guarded(monkeypatch):
    # Every chunk of a regular system is proved, so a limit below the
    # chunk size but above every other grid lets the check finish.  On
    # klein_over_z2 the limit is also one cell below a tensor-interchange
    # row, the size the guard charges.
    for es, limit in ((doubled_into_z4(), 256), (klein_over_z2(), 127)):
        monkeypatch.setattr(anncat, "CELL_LIMIT", limit)
        assert anncat_axiom_check(es).ok


def traced_peak(call):
    tracemalloc.start()
    try:
        with pytest.raises(SearchGuardError) as e:
            call()
        return str(e.value), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_h2_refuses_the_upper_triangular_block_before_building_it():
    # 4263 degree-3 and 294 degree-2 coordinates: the augmented d2 block
    # is 4263 x 4557.  Building it and its moduli diagonal took 306 MB.
    mod = ring_as_module(upper_triangular_z2())
    message, peak = traced_peak(partial(h2, mod))
    assert message == "97305327 Smith normal form cells, over the guard 10000000"
    assert peak < 64 * 2**20, peak


def test_reduced_check_reaches_the_zero_system_into_z32():
    # Z/32 acting by zero on the zero ring: the quotient has 32 elements,
    # so each quartic law has 32^4 cells.  Folding one term at a time
    # peaks at about 22 MB; a flat plan of every term's indices would
    # hold 436 MB of them.
    n = 32
    zero = np.zeros((n, 1), dtype=np.int16)
    es = validate_esystem(zmod(1), zmod(n), np.zeros(1, dtype=np.int16), zero, zero)
    rc = reduce_esystem(es)
    tracemalloc.start()
    try:
        report = reduced_axiom_check(rc.k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and len(report.results) == 14
    assert sum(r.checked for r in report.results) == 8 * n**4 + 3 * n**3 + 2 * n**2 + n
    assert peak < 64 * 2**20, peak


def test_anncat_check_proves_add_interchange_on_the_64_element_zero_ring():
    # add-interchange follows from add-commutative and add-associative, so
    # its 64^4-cell grid, over the guard, is never built.
    b = zero_mult(64)
    zero = np.zeros((1, 64), dtype=np.int16)
    es = validate_esystem(b, zmod(1), np.zeros(64, dtype=np.int16), zero, zero)
    tracemalloc.start()
    try:
        report = anncat_axiom_check(es)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.complete
    (row,) = [r for r in report.results if r.law == "add-interchange"]
    assert (row.ok, row.checked) == (True, 64**4)
    # the zero action cannot act as the unit of zmod(1) on a nonzero base
    assert [r.law for r in report.failures()] == ["tensor-unit"]
    assert peak < 8 * 2**20, peak
