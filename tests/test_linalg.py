import random
from fractions import Fraction

import pytest

from weilmod import linalg
from weilmod.basefield import FqField, QpField
from weilmod.heisenberg import SympSpace
from weilmod.metaplectic import random_symplectic


def test_mat_inv_integer_entries_stays_exact():
    inv = linalg.mat_inv(((2, 0), (0, 1)), QpField(5))
    assert inv == ((Fraction(1, 2), 0), (0, 1))
    assert not any(isinstance(x, float) for row in inv for x in row)
    assert linalg.det(((2, 1), (1, 1)), QpField(5)) == 1
    assert not isinstance(linalg.det(((2, 1), (1, 1)), QpField(5)), float)


def test_fields_are_their_own_scalars():
    q5 = QpField(5)
    assert linalg.identity(q5, 2) == ((1, 0), (0, 1))
    assert all(isinstance(x, Fraction) for row in linalg.identity(q5, 2)
               for x in row)
    f3 = FqField(3)
    assert linalg.identity(f3, 2) == ((f3.one(), f3.zero()),
                                      (f3.zero(), f3.one()))


def test_combine_and_intersection():
    q5 = QpField(5)
    e1, e2, e3 = linalg.identity(q5, 3)
    zero = (q5.zero(),) * 3
    # a combination of basis vectors is mat_vec over the basis as columns
    assert linalg.mat_vec(linalg.transpose((e1, e3)), (2, Fraction(1, 3)),
                          q5) == (2, 0, Fraction(1, 3))
    plane = (e1, e2)
    line = ((1, 1, 1), (0, 1, 1))
    inter = linalg.intersection(plane, line, q5)
    assert len(inter) == 1
    v = inter[0]
    assert v[2] == 0 and v != zero
    assert linalg.intersection(plane, (), q5) == ()
    assert len(linalg.intersection(plane, (e2, e1), q5)) == 2


@pytest.mark.parametrize("p,f", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3),
                                 (7, 2)], ids=lambda x: str(x))
def test_index_view_matches_ffelt_operators(p, f):
    # F_q's index view (raw indices, % p or log/Zech tables) against the
    # FFElt operators on seeded rows and matrices: each scalar and row
    # operation, rref, nullspace, det, mat_mul, mat_inv, the symplectic
    # pairing and inverse, read back through lower
    field = FqField(p, f)
    ix = field.indices
    rng = random.Random(100 * p + f)

    def row(n):
        return tuple(rng.randrange(field.q) if rng.random() < 0.8 else 0
                     for _ in range(n))

    def low(v):
        return tuple(x.i for x in v)

    def lift(v):
        return tuple(map(field.element, v))
    for _ in range(300):
        n = rng.randrange(1, 7)
        u, v, c = row(n), row(n), rng.randrange(field.q)
        uu, vv, cc = lift(u), lift(v), field.element(c)
        assert ix.dot(u, v) == field.dot(uu, vv).i
        assert ix.add(u, v) == low(x + y for x, y in zip(uu, vv))
        assert ix.neg(u) == low(field.neg(uu))
        assert ix.eliminate(u, c, v) == list(low(field.eliminate(uu, cc, vv)))
        assert ix.scale(u, c) == list(low(field.scale(uu, cc)))
        assert ix.mul(u[0], c) == field.mul(uu[0], cc).i
        if c:
            assert ix.recip(c) == field.recip(cc).i
    for _ in range(80):
        r, k = rng.randrange(1, 5), rng.randrange(1, 5)
        a = tuple(row(k) for _ in range(r))
        b = tuple(row(rng.randrange(1, 5)) for _ in range(k))
        aa, bb = ix.lift(a), ix.lift(b)
        rows, piv = linalg.rref(a, ix)
        want_rows, want_piv = linalg.rref(aa, field)
        assert piv == want_piv
        assert [tuple(x) for x in rows] == [low(x) for x in want_rows]
        assert linalg.nullspace(a, ix) == tuple(
            low(x) for x in linalg.nullspace(aa, field))
        assert linalg.mat_mul(a, b, ix) == ix.lower(linalg.mat_mul(aa, bb))
        x = row(k)
        assert linalg.mat_vec(a, x, ix) == low(
            linalg.mat_vec(aa, lift(x), field))
        sq = tuple(row(r) for _ in range(r))
        d = linalg.det(ix.lift(sq), field)
        assert linalg.det(sq, ix) == d.i
        if d:
            assert linalg.mat_inv(sq, ix) == ix.lower(
                linalg.mat_inv(ix.lift(sq), field))
    for m in (1, 2):
        sp, spi = SympSpace(field, m), SympSpace(ix, m)
        for _ in range(10):
            g = random_symplectic(sp, rng)
            assert spi.is_symplectic(ix.lower(g))
            assert [spi.pairing(u, v) for u in ix.lower(g)
                    for v in ix.lower(g)] == [sp.pairing(u, v).i
                                              for u in g for v in g]
            assert spi.inv(ix.lower(g)) == ix.lower(linalg.mat_inv(g, field))
            assert spi.det_x(ix.lower(g)) == sp.det_x(g).i


class _FractionOps(linalg.Ops):
    """The Fraction operators, with the zero and one nullspace and mat_inv
    need and a reciprocal that also takes plain ints: the reference QpField
    must agree with."""

    @staticmethod
    def recip(x):
        return Fraction(1) / x

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_qp_arithmetic_matches_fraction_operators(p):
    # QpField's arithmetic against the Fraction operators on seeded
    # rationals (zeros, plain ints, negatives and p-power denominators):
    # every result equal, and exact (an int or a Fraction, never a float)
    field, ref = QpField(p), _FractionOps()
    rng = random.Random(p)

    def scalar():
        r = rng.random()
        if r < 0.2:
            return rng.choice((0, Fraction(0)))
        if r < 0.4:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-40, 40),
                        p ** rng.randrange(4) * rng.choice((1, 1, 2, 11)))

    def vec(n):
        return tuple(scalar() for _ in range(n))

    def exact(x):
        return type(x) in (int, Fraction)

    def all_exact(xs):
        return all(exact(x) for x in xs)
    for _ in range(300):
        n = rng.randrange(1, 7)
        u, v, c = vec(n), vec(n), scalar()
        for got, want in ((field.dot(u, v), ref.dot(u, v)),
                          (field.mul(u[0], c), ref.mul(u[0], c))):
            assert got == want and exact(got)
        for got, want in ((field.eliminate(u, c, v), ref.eliminate(u, c, v)),
                          (field.scale(u, c), ref.scale(u, c))):
            assert got == want and all_exact(got)
        if c:
            assert field.recip(c) == ref.recip(c)
            assert type(field.recip(c)) is Fraction
        m = rng.randrange(1, 4)
        u, v = vec(2 * m), vec(2 * m)
        got = field.pairing(u, v, m)
        assert got == sum(u[i] * v[m + i] - u[m + i] * v[i] for i in range(m))
        assert exact(got)
    for _ in range(100):
        r, k = rng.randrange(1, 5), rng.randrange(1, 5)
        a = tuple(vec(k) for _ in range(r))
        b = tuple(vec(rng.randrange(1, 5)) for _ in range(k))
        rows, piv = linalg.rref(a, field)
        want_rows, want_piv = linalg.rref(a, ref)
        assert (rows, piv) == (want_rows, want_piv)
        # the reduced rows (the rows below the rank are zero)
        assert all(all_exact(row) for row in rows[:len(piv)])
        ns = linalg.nullspace(a, field)
        assert ns == linalg.nullspace(a, ref)
        prod = linalg.mat_mul(a, b, field)
        assert prod == linalg.mat_mul(a, b, ref)
        x = vec(k)
        img = linalg.mat_vec(a, x, field)
        assert img == linalg.mat_vec(a, x, ref)
        assert all(all_exact(row) for row in ns + prod + (img,))
        sq = tuple(vec(r) for _ in range(r))
        d = linalg.det(sq, field)
        assert d == linalg.det(sq, ref) and exact(d)
        if d:
            inv = linalg.mat_inv(sq, field)
            assert inv == linalg.mat_inv(sq, ref)
            assert all(all_exact(row) for row in inv)


def test_qp_field_takes_the_fraction_operators():
    # Q_p linear algebra is the Fraction operators of linalg.Ops: QpField
    # keeps no second arithmetic of its own beside them, only the recip
    # that also takes an int
    own = {"dot", "mul", "pairing", "eliminate", "scale"} & set(vars(QpField))
    assert own == set()
    assert "recip" in vars(QpField)
