import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevnet.ringkit import (Ideal, RingConfigError, is_field, is_local,
                             jacobson_radical, local_decomposition, make_ring,
                             polyquot, product, quotient_ring, unit_ideal,
                             zero_ideal, zmod)


def brute_units(ring):
    return {a for a in range(ring.size)
            if any(ring.mul[a, b] == ring.one for b in range(ring.size))}


def test_zmod4_units():
    r = zmod(4)
    assert set(np.nonzero(r.units)[0]) == brute_units(r) == {1, 3}
    assert r.size == 4 and r.one == 1 and r.zero == 0


def test_polyquot_f2_eps():
    r = polyquot(2, "t^2")
    assert r.size == 4
    eps = r.parse("t")
    assert r.mul[eps, eps] == 0
    assert sorted(r.names) == ["0", "1", "t", "t+1"]
    assert r.parse("t+1") == r.add[eps, r.one]


def test_product_cardinality():
    r = product([zmod(2), zmod(3)])
    assert r.size == 6
    assert r.name(r.one) == "(1,1)"
    assert r.parse("(1,2)") == r.encode_tuple([1, 2])


def test_ring_construction_errors():
    with pytest.raises(RingConfigError):
        zmod(1)
    with pytest.raises(RingConfigError):
        polyquot(2, "2t^2+1")   # not monic
    with pytest.raises(RingConfigError):
        polyquot(4, "t^2")      # p not prime
    for p in (0, 1, -3):
        with pytest.raises(RingConfigError):
            polyquot(p, "t^2")
    with pytest.raises(RingConfigError):
        make_ring({"kind": "nope"})


def brute_radical(ring):
    out = set()
    for x in range(ring.size):
        if all(ring.units[ring.add[ring.one, ring.mul[x, y]]]
               for y in range(ring.size)):
            out.add(x)
    return out


def test_radical_examples():
    assert jacobson_radical(zmod(4)).members == frozenset({0, 2}) == \
        frozenset(brute_radical(zmod(4)))
    assert jacobson_radical(product([zmod(2), zmod(3)])).is_zero()
    fe = polyquot(2, "t^2")
    assert jacobson_radical(fe).members == frozenset({0, fe.parse("t")})


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=48))
def test_radical_is_intersection_of_maximal_ideals(n):
    r = zmod(n)
    dec = local_decomposition(r)
    inter = frozenset.intersection(*[f.max_ideal.members for f in dec.factors])
    assert jacobson_radical(r).members == inter


def test_local_decomposition_examples():
    dec = local_decomposition(product([zmod(2), zmod(3)]))
    assert sorted(f.ring.size for f in dec.factors) == [2, 3]
    dec4 = local_decomposition(zmod(4))
    assert dec4.is_local and dec4.factors[0].ring is zmod(4) or \
        dec4.factors[0].ring.size == 4
    dec6 = local_decomposition(zmod(6))
    assert sorted(f.ring.size for f in dec6.factors) == [2, 3]


def test_local_decomposition_reassembly_bijective():
    for ring in (zmod(12), product([zmod(4), zmod(3)]), polyquot(3, "t^2+1")):
        dec = local_decomposition(ring)
        keys = {tuple(int(f.proj.table[x]) for f in dec.factors)
                for x in range(ring.size)}
        assert len(keys) == ring.size
        total = 1
        for f in dec.factors:
            total *= f.ring.size
        assert total == ring.size


def test_ideal_ops_examples():
    r = zmod(4)
    i2 = Ideal.from_gens(r, [2])
    assert i2.sum(i2) == i2
    assert i2.product(i2).is_zero()
    assert i2.intersection(unit_ideal(r)) == i2
    with pytest.raises(ValueError):
        i2.sum(Ideal.from_gens(zmod(4), [2]))  # other ring object


def test_quotient_ring():
    r = zmod(4)
    i2 = Ideal.from_gens(r, [2])
    q, rho = quotient_ring(r, i2)
    assert q.size == 2 and is_field(q)
    assert rho.kernel().members == i2.members
    # surjectivity and size relation |R| = |I| * |R/I|
    assert len({int(rho.table[x]) for x in range(r.size)}) == q.size
    assert r.size == len(i2) * q.size


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=36), st.integers(min_value=0, max_value=35))
def test_size_relation_random_principal_ideal(n, g):
    r = zmod(n)
    ideal = Ideal.from_gens(r, [g % n])
    if len(ideal) == r.size:
        return  # quotient would be the zero ring, which is rejected
    q, _ = quotient_ring(r, ideal)
    assert r.size == len(ideal) * q.size


def test_is_local_is_field():
    assert is_local(zmod(4)) and not is_field(zmod(4))
    assert is_field(zmod(3))
    assert not is_local(zmod(6))
    assert is_field(polyquot(2, "t^2+t+1"))  # F_4


def test_zero_and_unit_ideals():
    r = zmod(6)
    assert len(zero_ideal(r)) == 1
    assert len(unit_ideal(r)) == 6
    assert zero_ideal(r).describe() == "(0)"


def test_from_int_and_pow():
    r = zmod(5)
    assert r.from_int(7) == 2 and r.from_int(-1) == 4
    assert r.pow(2, 3) == 3
    assert r.pow(2, -1) == 3  # 2*3 = 6 = 1 mod 5
    with pytest.raises(ValueError):
        zmod(4).pow(2, -1)
