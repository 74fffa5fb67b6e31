import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from weilmod.basefield import AdditiveCharacter, FqField
from weilmod.coeff import (_CONWAY, Cyc, CyclotomicRing, FFElt, FiniteField,
                           NotInvertibleError, ReductionMap,
                           RingMismatchError, _is_irreducible)


def test_minimal_polynomial_relations():
    r3 = CyclotomicRing(3)
    z = r3.zeta()
    assert z + z * z == -1
    r5 = CyclotomicRing(5)
    z5 = r5.zeta()
    acc = r5.one()
    for _ in range(4):
        acc = acc + z5 ** (_ + 1)
    assert acc.is_zero()


def test_square_of_one_plus_two_zeta():
    r3 = CyclotomicRing(3)
    x = r3.from_int(1) + 2 * r3.zeta()
    assert x * x == -3


def test_root_of_unity_inverse():
    r5 = CyclotomicRing(5)
    z = r5.zeta()
    assert z.inv() == z ** 4


def test_root_of_unity_choices():
    assert FiniteField(7).root_of_unity(3).i == 2
    with pytest.raises(NotInvertibleError):
        FiniteField(5).root_of_unity(3)
    f25 = FiniteField(5, 2)
    assert f25.root_of_unity(3) ** 3 == f25.one()
    r3 = CyclotomicRing(3)
    assert r3.root_of_unity(3) == r3.zeta()


def test_root_orders():
    for ring in (CyclotomicRing(3, 2), CyclotomicRing(5)):
        n = ring.n
        z = ring.root_of_unity(n)
        assert z ** n == ring.one()
        assert z ** (n // ring.p) != ring.one()
    for fld in (FiniteField(7), FiniteField(2, 2), FiniteField(7, 4)):
        for order in (3, 5):
            if (fld.q - 1) % order:
                continue
            z = fld.root_of_unity(order)
            assert z ** order == fld.one() and z ** (order // order) == z


def test_reduction_examples():
    r3 = CyclotomicRing(3)
    f7 = FiniteField(7)
    red = ReductionMap(r3, f7)
    x = r3.from_int(1) + 2 * r3.zeta()
    assert red(x).i == 5
    assert red(r3.zero()).i == 0
    assert red(x * x).i == 4  # 25 = 4 = -3 mod 7
    assert red(x) * red(x) == red(x * x)


def test_reduction_hom_randomized():
    rng = random.Random(7)
    r3 = CyclotomicRing(3)
    red = ReductionMap(r3, FiniteField(7))
    for _ in range(10 ** 4):
        a = r3.element([rng.randrange(-50, 51) for _ in range(2)])
        b = r3.element([rng.randrange(-50, 51) for _ in range(2)])
        assert red(a * b) == red(a) * red(b)
        assert red(a + b) == red(a) + red(b)
    assert red(r3.one()) == red.field.one()


def test_reduction_denominators():
    r3 = CyclotomicRing(3)
    red = ReductionMap(r3, FiniteField(7))
    x = r3.element([1, 1], den=2)
    assert red(x) * 2 == red(x * 2)
    with pytest.raises(NotInvertibleError):
        red(r3.element([1, 0], den=7))


def test_fraction_field_roundtrip():
    rng = random.Random(11)
    r5 = CyclotomicRing(5)
    for _ in range(50):
        a = r5.element([rng.randrange(-9, 10) for _ in range(4)],
                       den=rng.randrange(1, 9))
        b = r5.element([rng.randrange(-9, 10) for _ in range(4)],
                       den=rng.randrange(1, 9))
        if b.is_zero():
            continue
        assert (a / b) * b == a


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        CyclotomicRing(3).zeta() + CyclotomicRing(5).zeta()
    f1, f2 = FiniteField(3), FiniteField(5)
    with pytest.raises(RingMismatchError):
        f1.one() + f2.one()


def test_level_tower():
    r3 = CyclotomicRing(3)
    r9 = CyclotomicRing(3, 2)
    z3, z9 = r3.zeta(), r9.zeta()
    assert z9 ** 3 == r9.coerce(z3)
    assert (z3 + z9).ring is r9
    assert (z9 ** 3 * z9 ** 6) == r9.one()
    assert (r9.coerce(z3)).compress().ring is r3


def test_galois_conjugation():
    r5 = CyclotomicRing(5)
    z = r5.zeta()
    x = 3 * z + r5.from_int(2)

    def conj(y):    # complex conjugation zeta -> zeta^{-1}
        return y.galois(y.ring.n - 1)
    assert conj(x) == 3 * z ** 4 + 2
    assert conj(conj(x)) == x


def test_finite_field_tables_and_big():
    for fld in (FiniteField(3, 2), FiniteField(7, 4)):
        a = fld.element(fld.q - 2)
        b = fld.element(3 % fld.q)
        assert (a * b) * b.inv() == a
        assert a - a == fld.zero()
        assert (a + b) ** fld.p == a ** fld.p + b ** fld.p


def test_trace_surjective():
    f9 = FiniteField(3, 2)
    traces = {f9.trace_i(i) for i in range(9)}
    assert traces == {0, 1, 2}


def test_conway_polynomials_are_irreducible():
    # spot check: the table entries define fields of the right size with a
    # multiplicative group of the right order
    for (p, d) in ((3, 2), (5, 2), (7, 2), (2, 2), (2, 3), (2, 4)):
        fld = FiniteField(p, d)
        g = fld.element(max(2, p))
        assert g ** (fld.q - 1) == fld.one()
    for (p, d), poly in _CONWAY.items():
        assert len(poly) == d + 1 and _is_irreducible(poly, p)


def test_equal_values_across_levels_hash_equal():
    a = CyclotomicRing(3).zeta()
    b = CyclotomicRing(3, 2).zeta() ** 3
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    half = CyclotomicRing(3, 2).from_fraction(Fraction(1, 2))
    assert hash(half) == hash(Fraction(1, 2))


def test_equal_scalars_hash_equal():
    # a == b implies hash(a) == hash(b) over every scalar kind; an FFElt
    # equals only FFElts of its own field (1 == 4 in F_3, so equality with
    # ints could not be transitive)
    rng = random.Random(11)
    ints = [rng.randrange(-12, 13) for _ in range(30)] + [0, 1, -1]
    fracs = [Fraction(rng.randrange(-12, 13), rng.randrange(1, 7))
             for _ in range(30)]
    ffs = []
    for fld in (FqField(3), FqField(3, 2), FiniteField(2, 3)):
        ffs += [fld.element(rng.randrange(-50, 50)) for _ in range(20)]
        ffs += [fld.from_int(v) for v in ints[:10]] + fld.elements()
    cycs = []
    for k in (1, 2):
        ring = CyclotomicRing(3, k)
        for den in (1, rng.randrange(2, 7)):
            cycs += [ring.element([rng.randrange(-3, 4)
                                   for _ in range(ring.phi)], den)
                     for _ in range(15)]
        cycs += [ring.coerce(v) for v in ints[:10] + fracs[:10]]
    cycs += [CyclotomicRing(3, 2).coerce(c) for c in cycs[:40]]
    values = ints + fracs + ffs + cycs
    equal_pairs = 0
    for a in values:
        for b in values:
            if a == b:
                equal_pairs += 1
                assert hash(a) == hash(b), (a, b)
    assert equal_pairs > 2 * len(values)
    for x in ffs:
        for v in ints + fracs:
            assert not x == v and not v == x and x != v, (x, v)
    x = FqField(3).element(1)
    assert (x == 1) is False and x == FqField(3).one()
    assert len({x, 1, FqField(3).element(4)}) == 2


@pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3),
                                 (31, 1), (5, 3)])
def test_cyc_inverse_norm_path(p, k, monkeypatch):
    # the Galois-norm inverse against the defining identity x x^-1 = 1, on
    # seeded elements with denominators and on every root of unity;
    # zeta -> zeta^generator generates the Galois group, and an inverse
    # takes at most 2 log2(phi) + 1 products (phi - 1 before doubling)
    ring = CyclotomicRing(p, k)
    assert len({pow(ring.generator, i, ring.n)
                for i in range(ring.phi)}) == ring.phi
    products = []
    real_mul = Cyc.__mul__

    def mul(a, b):
        products.append(1)
        return real_mul(a, b)
    rng = random.Random(100 * p + k)
    for _ in range(80):
        x = ring.element([rng.randrange(-9, 10) for _ in range(ring.phi)],
                         den=rng.randrange(1, 9))
        if not x.is_zero():
            products.clear()
            with monkeypatch.context() as mp:
                mp.setattr(Cyc, "__mul__", mul)
                y = x.inv()
            assert len(products) <= 2 * ring.phi.bit_length() + 1
            assert x * y == 1
    for e in range(ring.n):
        z = ring.zeta_pow(e)
        assert z * z.inv() == 1 and z.inv() == ring.zeta_pow(-e)


@pytest.mark.parametrize("ell,d", [(3, 5), (2, 9), (7, 2)])
def test_finite_field_inverse_table(ell, d):
    fld = FiniteField(ell, d)
    for i in range(1, fld.q):
        assert fld.mul_i(i, fld.inv_i(i)) == 1


def _poly_product(fld, i, j):
    return fld._undigits(fld._poly_mul_mod(fld._digits(i), fld._digits(j)))


def _poly_power(fld, i, e):
    acc = 1
    while e:
        if e & 1:
            acc = _poly_product(fld, acc, i)
        i, e = _poly_product(fld, i, i), e >> 1
    return acc


def test_irreducibility_by_count():
    # monic irreducibles: 9 of degree 6 over F_2, 18 of degree 4 over F_3,
    # 40 of degree 3 over F_5 (Gauss's formula (1/d) sum mu(d/k) l^k)
    for ell, d, count in ((2, 6, 9), (3, 4, 18), (5, 3, 40)):
        polys = itertools.product(range(ell), repeat=d)
        assert sum(_is_irreducible(low + (1,), ell) for low in polys) == count


def test_reducible_polynomials_refused():
    with pytest.raises(ValueError):
        FiniteField(3, 0)


def test_fields_above_max_q_refused():
    # refused before any table is built, however large the degree
    for ell, d in [(2, 17), (65537, 1), (3, 10 ** 9), (10 ** 18 + 9, 1)]:
        with pytest.raises(ValueError):
            FiniteField(ell, d)


def test_f3_6_is_a_field():
    fld = FiniteField(3, 6)
    assert _is_irreducible(fld.irred, 3)
    assert fld.mul_i(5, 365) != 0
    for i in range(1, fld.q):
        assert _poly_product(fld, i, fld.inv_i(i)) == 1
    z = fld.root_of_unity(7)
    assert z ** 7 == fld.one() and z != fld.one()


@pytest.mark.parametrize("ell,d,pairs", [
    (2, 3, None), (3, 2, None), (5, 2, None), (11, 2, None),
    (2, 9, 2000), (7, 4, 2000)])
def test_log_tables_match_polynomial_product(ell, d, pairs):
    fld = FiniteField(ell, d)
    if pairs is None:
        todo = itertools.product(range(fld.q), repeat=2)
    else:
        rng = random.Random(ell * 10 + d)
        todo = [(rng.randrange(fld.q), rng.randrange(fld.q))
                for _ in range(pairs)]
    for i, j in todo:
        assert fld.mul_i(i, j) == _poly_product(fld, i, j)


@pytest.mark.parametrize("ell,d,pairs", [
    (2, 2, None), (2, 3, None), (3, 2, None), (5, 2, None), (3, 3, None),
    (11, 2, None), (2, 9, 20000), (7, 3, 20000), (2, 16, 20000)])
def test_zech_sums_match_digit_sums(ell, d, pairs):
    # add_i and neg_i by Zech logarithms against coefficientwise sums
    fld = FiniteField(ell, d)
    if pairs is None:
        todo = itertools.product(range(fld.q), repeat=2)
    else:
        rng = random.Random(ell * 100 + d)
        todo = [(rng.randrange(fld.q), rng.randrange(fld.q))
                for _ in range(pairs)]
    for i, j in todo:
        di, dj = fld._digits(i), fld._digits(j)
        assert fld.add_i(i, j) == fld._undigits(
            [x + y for x, y in zip(di, dj)])
        assert fld.neg_i(i) == fld._undigits([-x for x in di])


@pytest.mark.parametrize("ell,d", [
    (2, 2), (2, 3), (7, 1), (5, 2), (11, 2), (13, 2), (7, 4)])
def test_root_of_unity_is_smallest_of_exact_order(ell, d):
    fld = FiniteField(ell, d)
    n = fld.q - 1
    for o in (o for o in range(1, n + 1) if n % o == 0):
        primes = [r for r in range(2, o + 1)
                  if o % r == 0 and all(r % s for s in range(2, r))]
        want = next(i for i in range(1, fld.q)
                    if _poly_power(fld, i, o) == 1
                    and all(_poly_power(fld, i, o // r) != 1 for r in primes))
        assert fld.root_of_unity(o).i == want


def test_generator_search_skips_reached_candidates(monkeypatch):
    # a candidate reached as a power of a failed one cannot generate; F_{3^8}
    # needs 12,954 products that way against 40,850 retrying every index
    fld = FiniteField(3, 8)
    exp, log = list(fld._exp), list(fld._log)
    calls = [0]
    product = fld._poly_mul_mod

    def counted(a, b):
        calls[0] += 1
        return product(a, b)
    monkeypatch.setattr(fld, "_poly_mul_mod", counted)
    fld._build_tables()
    assert calls[0] <= 12954
    assert fld._exp == exp and fld._log == log


def test_generator_found_by_its_order(monkeypatch):
    # g generates F^x iff g^((q-1)/r) != 1 for every prime r | q - 1: a few
    # square-and-multiply products per candidate, then q - 2 to fill _exp.
    # Walking each failed candidate's powers took 103,820 for F_{3^10}
    fld = FiniteField(3, 10)
    tables = (list(fld._exp), list(fld._log), list(fld._zech))
    calls = [0]
    product = fld._poly_mul_mod

    def counted(a, b):
        calls[0] += 1
        return product(a, b)
    monkeypatch.setattr(fld, "_poly_mul_mod", counted)
    fld._build_tables()
    assert calls[0] <= fld.q + 2000
    assert (fld._exp, fld._log, fld._zech) == tables
    # g's powers are the q - 1 units, and g is the smallest index of
    # order q - 1
    n = fld.q - 1
    assert sorted(fld._exp[:n]) == list(range(1, fld.q))
    g = fld._exp[1]
    assert gcd(fld._log[g], n) == 1
    assert all(gcd(fld._log[i], n) > 1 for i in range(1, g))


def test_every_scalar_is_falsy_exactly_at_zero():
    # the zero contract linalg relies on: `not x` is the zero test
    assert [bool(x) for x in (0, 3, -1)] == [False, True, True]
    assert [bool(x) for x in (Fraction(0), Fraction(1, 3),
                              Fraction(-2, 5))] == [False, True, True]
    for fld in (FiniteField(7), FiniteField(3, 2), FiniteField(2, 3)):
        elts = fld.elements()
        assert [bool(x) for x in elts] == [x != fld.zero() for x in elts]
        assert not fld.zero() and fld.one() and not fld.one() - fld.one()
        assert sum(map(bool, elts)) == fld.q - 1
    for ring in (CyclotomicRing(3), CyclotomicRing(3, 2), CyclotomicRing(5)):
        z = ring.zeta()
        third = ring.element([1] + [2] * (ring.phi - 1), 3)
        assert third.den == 3
        values = (ring.zero(), z - z, third - third, (z - ring.one()) * 0,
                  ring.one(), z, third, -third, third * third.inv())
        assert [bool(x) for x in values] == [False] * 4 + [True] * 5


def ring_map_reference(psi, bits):
    """The packed-count map as metaplectic spelled it before the coefficient
    rings owned it: sum_e c_e x^e -> sum_e c_e psi._powers[e]."""
    mask = (1 << bits) - 1
    ring = psi.coeff_ring
    if isinstance(ring, CyclotomicRing):
        basis = [pw.coeffs for pw in psi._powers]

        def phi(c):
            vec = [0] * ring.phi
            for b in basis:
                v = c & mask
                if v:
                    for t, x in enumerate(b):
                        vec[t] += v * x
                c >>= bits
            return Cyc(ring, vec, 1)
        return phi
    powers = [pw.i for pw in psi._powers]

    def phi(c):
        acc = 0
        for pw in powers:
            v = (c & mask) % ring.p
            if v:
                acc = ring.add_i(acc, ring.mul_i(pw, v))
            c >>= bits
        return FFElt(ring, acc)
    return phi


@pytest.mark.parametrize("field, ring", [
    (FqField(3), CyclotomicRing(3)), (FqField(7), CyclotomicRing(7)),
    (FqField(3), FiniteField(7)), (FqField(3), FiniteField(2, 2)),
    (FqField(7), FiniteField(2, 3))])
def test_count_map_follows_the_reference(field, ring):
    rng = random.Random(field.p * 100 + ring.p)
    psi = AdditiveCharacter(field, ring)
    for bits in (3, 9, 21):
        phi = ring.count_map(psi._powers, bits)
        ref = ring_map_reference(psi, bits)
        for _ in range(300):
            # p slots of `bits` bits, a zero slot and a full slot among them
            counts = [rng.choice([0, (1 << bits) - 1,
                                  rng.randrange(1 << (bits - 1))])
                      for _ in range(field.p)]
            c = sum(v << (bits * e) for e, v in enumerate(counts))
            got, want = phi(c), ref(c)
            assert type(got) is type(want) and got == want
            assert repr(got) == repr(want)
