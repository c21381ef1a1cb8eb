"""Every size limit is checked by `ablin._guard`: before the step it
guards allocates anything, and reported in one format.

Each case below trips one site with a small limit, passed as `guard=` or
monkeypatched where the check reads it, and replaces the first thing the
site would run past its check by a function that fails the test.
"""

import re
from functools import partial

import numpy as np
import pytest

from ringcat import ablin, bimult, cohomology, extensions, rings, transport
from ringcat.ablin import SearchGuardError, smith_normal_form
from ringcat.bimult import bimult_ring, enumerate_bimultiplications
from ringcat.cohomology import complex_for
from ringcat.corpus import corpus
from ringcat.extensions import equivalent, exhaustive_extension_search
from ringcat.rings import RingHom, _additive_maps, find_ring_isomorphism, ideal_cokernel
from ringcat.rings import zero_mult, zmod
from ringcat.transport import reduce_esystem, reduced_axiom_check
from test_cohomology import ring_as_module
from test_extensions import flat_z2, z4_extension

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
    m.setattr(rings, "ORDER_LIMIT", 1)
    m.setattr(rings, "_additive_maps", never("the map enumeration"))
    z2 = zmod(2)
    call = partial(find_ring_isomorphism, z2, z2)
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
    m.setattr(extensions, "enumerate_bimultiplications", never("the action pool"))
    m.setattr(extensions, "_product_blocks", never("the additive defect pool"))
    call = partial(exhaustive_extension_search, es, q, psi, guard=1)
    return call, "2 additive defect candidates, over the guard 1"


def search_actions(m):
    es, q, psi = flat_z2_search()
    m.setattr(extensions, "_product_blocks", never("the additive defect pool"))
    call = partial(exhaustive_extension_search, es, q, psi, guard=3)
    return call, "4 action candidates, over the guard 3"


def search_g(m):
    # The f and action stages run with the default limit; the g stage
    # gets limit 1 (its argument after the block of actions).
    es, q, psi = flat_z2_search()
    stage = extensions._search_g_stage
    m.setattr(extensions, "_search_g_stage", lambda *a: stage(*a[:7], 1, *a[8:]))
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
    m.setattr(transport, "_sum", never("the coherence grids"))
    call = partial(reduced_axiom_check, rc.ring, rc.module, rc.k)
    return call, "16 coherence grid cells, over the guard 15"


def snf(m):
    # A 2 x 3 matrix: 6 cells of s, 4 of u and uinv, 9 of v and vinv.
    m.setattr(ablin, "CELL_LIMIT", 31)
    m.setattr(ablin, "_keys", never("the elimination"))
    call = partial(smith_normal_form, np.ones((2, 3), dtype=np.int64))
    return call, "32 Smith normal form cells, over the guard 31"


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
    "search-g": search_g,
    "search-target-lift": search_target_lift,
    "reduced-axiom-check": reduced_check,
    "smith-normal-form": snf,
}


@pytest.mark.parametrize("site", list(SITES))
def test_every_guard_site_refuses_before_it_allocates(site, monkeypatch):
    call, message = SITES[site](monkeypatch)
    assert re.match(GUARD_MESSAGE, message)
    with pytest.raises(SearchGuardError, match=GUARD_MESSAGE) as e:
        call()
    assert str(e.value) == message
