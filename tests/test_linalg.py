from fractions import Fraction

from weilmod import linalg
from weilmod.basefield import FqField, QpField


def test_mat_inv_integer_entries_stays_exact():
    inv = linalg.mat_inv(((2, 0), (0, 1)), QpField(5))
    assert inv == ((Fraction(1, 2), 0), (0, 1))
    assert not any(isinstance(x, float) for row in inv for x in row)
    assert linalg.det(((2, 1), (1, 1))) == 1
    assert not isinstance(linalg.det(((2, 1), (1, 1))), float)


def test_fields_are_their_own_scalars():
    q5 = QpField(5)
    assert linalg.identity(q5, 2) == ((1, 0), (0, 1))
    assert all(isinstance(x, Fraction) for row in linalg.zeros(q5, 2, 3)
               for x in row)
    f3 = FqField(3)
    assert linalg.identity(f3, 2) == ((f3.one(), f3.zero()),
                                      (f3.zero(), f3.one()))


def test_combine_and_intersection():
    q5 = QpField(5)
    e1, e2, e3 = linalg.identity(q5, 3)
    zero = (q5.zero(),) * 3
    assert linalg.combine((2, Fraction(1, 3)), (e1, e3), zero) == \
        (2, 0, Fraction(1, 3))
    assert linalg.combine((), (), zero) == zero
    plane = (e1, e2)
    line = ((1, 1, 1), (0, 1, 1))
    inter = linalg.intersection(plane, line, q5)
    assert len(inter) == 1
    v = inter[0]
    assert v[2] == 0 and v != zero
    assert linalg.intersection(plane, (), q5) == ()
    assert len(linalg.intersection(plane, (e2, e1), q5)) == 2
