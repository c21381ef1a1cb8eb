"""The built-in instance set and its obstruction-check triples."""

import itertools

import numpy as np
import pytest

from ringcat.corpus import (
    corpus,
    corpus_triples,
    doubling_esystem,
    even_residues_mod8,
    unital_homs,
)
from ringcat.crossed import is_regular
from ringcat.rings import HomError, dual_numbers, product_ring, zero_mult, zmod


def test_unital_homs_rejects_a_non_unital_ring():
    with pytest.raises(HomError, match="unital rings"):
        unital_homs(zmod(2), zero_mult(2))


def test_corpus_shape():
    cs = corpus()
    assert len(cs) >= 12
    names = [es.name for es in cs]
    assert len(set(names)) == len(names)
    nonreg = [es.name for es in cs if not is_regular(es)]
    assert nonreg == ["mult_klein0"]


def test_corpus_kernel_variety():
    # the section-independence checks need instances with something to vary
    with_kernel = [
        es.name for es in corpus() if len(es.d.kernel_elements()) > 1
    ]
    assert "flat_z2" in with_kernel and "double_2z8" in with_kernel
    assert "mult_2z8" in with_kernel
    assert len(with_kernel) >= 5


def test_doubling_instance():
    es = doubling_esystem()
    assert es.d.map.tolist() == [0, 2, 0, 2]
    b = even_residues_mod8()
    assert b.additive_order(1) == 4
    # 2*6 = 12 = 4 mod 8, carried as index 2
    assert int(b.mul[1, 3]) == 2
    assert b.unit is None


def test_unital_homs_counts():
    z2, z3, z4 = zmod(2), zmod(3), zmod(4)
    klein = product_ring(zmod(2), zmod(2))
    assert len(unital_homs(z2, z2)) == 1
    assert len(unital_homs(z3, z2)) == 0
    assert len(unital_homs(z2, z4)) == 0
    assert len(unital_homs(z4, z2)) == 1
    assert len(unital_homs(z4, z4)) == 1
    # unit images: 0+1, 1+0, e1+e2, e2+e1
    assert len(unital_homs(klein, klein)) == 4
    for h in unital_homs(klein, klein):
        assert h.unital


def _brute_unital_homs(q, r):
    # Oracle: every table with 0 -> 0 and unit -> unit, kept when it is a
    # ring map, in lexicographic order.
    if int(q.unit) == 0:
        return [[0]] if int(r.unit) == 0 else []
    fixed = np.zeros(q.order, dtype=np.int64)
    fixed[q.unit] = r.unit
    free = [i for i in range(1, q.order) if i != int(q.unit)]
    out = []
    for vals in itertools.product(range(r.order), repeat=len(free)):
        m = fixed.copy()
        m[free] = vals
        add_ok = (r.add[m[:, None], m[None, :]] == m[q.add]).all()
        if add_ok and (r.mul[m[:, None], m[None, :]] == m[q.mul]).all():
            out.append(m.tolist())
    return out


def test_unital_homs_match_brute_force():
    rs = [zmod(1), zmod(2), zmod(3), zmod(4), product_ring(zmod(2), zmod(2)), dual_numbers(2)]
    for q, r in itertools.product(rs, rs):
        got = [h.map.tolist() for h in unital_homs(q, r)]
        assert got == _brute_unital_homs(q, r), (q.name, r.name)


def test_corpus_triples_scope():
    ts = corpus_triples()
    assert len(ts) == 24
    for es, q, psi in ts:
        assert is_regular(es)
        assert es.b.order * q.order <= 8
        assert psi.source is q and psi.unital
