import random

import pytest

from conftest import random_form, random_unit
from weilmod import linalg
from weilmod.basefield import AdditiveCharacter, FqField, QpField
from weilmod.quadratic import (QuadraticForm, hilbert, hilbert_oracle,
                               square_class)
from weilmod.weilfactor import omega


def test_radical_examples():
    f3 = FqField(3)
    assert len(QuadraticForm(f3, [[0, 0], [0, 0]]).radical()) == 2
    q = QuadraticForm(f3, [[1, 0], [0, 0]])
    rad = q.radical()
    assert len(rad) == 1 and rad[0][0].i == 0
    f5 = FqField(5)
    q2 = QuadraticForm(f5, [[1, 1], [1, 1]])
    rad2 = q2.radical()
    assert len(rad2) == 1
    v = rad2[0]
    assert v[0] + v[1] == f5.zero()  # span of (1, -1)


def test_diagonalize_examples():
    f5 = FqField(5)
    q = QuadraticForm(f5, [[1, 0], [0, 2]])
    _, vals = q.diagonalize()
    assert sorted(v.i for v in vals) == [1, 2]
    hyp = QuadraticForm(f5, [[0, 1], [1, 0]])
    vecs, vals = hyp.diagonalize()
    prod = vals[0] * vals[1]
    assert not f5.is_square(prod) is False or f5.is_square(prod)
    # det class of the hyperbolic plane is -1 mod squares
    assert square_class(f5, prod) == square_class(f5, f5.element(-1))


def test_diagonalize_exhaustive_f9():
    f9 = FqField(3, 2)
    rng = random.Random(2)
    for _ in range(40):
        q = random_form(f9, rng, 2)
        vecs, vals = q.diagonalize()
        for x in f9.elements():
            for y in f9.elements():
                v = tuple(x * a + y * b for a, b in zip(*vecs)) if len(
                    vecs) == 2 else None
                if v is None:
                    continue
                expect = vals[0] * x * x + vals[1] * y * y
                assert f9.dot(v, linalg.mat_vec(q.gram, v, f9)) == expect


def test_diagonalize_runs_through_the_field(monkeypatch):
    # the Gram-Schmidt step is the field's whole-row update, QpField's
    # inherited linalg.Ops.eliminate, not one scalar product and
    # difference at a time
    q5 = QpField(5)
    calls = []
    real = QpField.eliminate

    def counted(self, row, f, pivot_row):
        calls.append(tuple(pivot_row))
        return real(row, f, pivot_row)
    monkeypatch.setattr(QpField, "eliminate", counted)
    q = QuadraticForm(q5, [[1, 0], [0, 5]])
    vecs, vals = q.diagonalize()
    assert vals == (1, 5)
    # one update per vector left after its pass's pivot
    assert calls == [vecs[0]]


def nondegenerate_part_reference(q):
    """The complement as the greedy extension of rad(Q)'s basis by the
    standard vectors, and C^T G C as two matrix products."""
    fld = q.field
    rad = q.radical()
    std = linalg.identity(fld, q.m)
    comp = linalg.column_space_basis(list(rad) + list(std), fld)[len(rad):]
    c = linalg.transpose(linalg.mat(comp))  # columns are the basis
    cg = linalg.mat_mul(linalg.transpose(c), q.gram, fld)
    return linalg.mat(comp), linalg.mat_mul(cg, c, fld)


def diagonalize_reference(q):
    """Gram-Schmidt that re-selects an independent subset of the projected
    vectors by a row reduction after each pivot."""
    fld = q.field
    comp, gc = nondegenerate_part_reference(q)
    remaining = list(linalg.identity(fld, len(gc)))
    out_vecs, out_vals = [], []

    def bval(u, v):
        return fld.dot(u, linalg.mat_vec(gc, v, fld))

    while remaining:
        n = len(remaining)
        piv = next((v for v in remaining if bval(v, v)), None)
        if piv is None:
            # all Q(v_i) = 0: some cross term is nonzero (char != 2)
            piv = next(tuple(x + y for x, y in zip(remaining[i],
                                                   remaining[j]))
                       for i in range(n) for j in range(i + 1, n)
                       if bval(remaining[i], remaining[j]))
        a = bval(piv, piv)
        out_vecs.append(piv)
        out_vals.append(a)
        inv_a = fld.recip(a)
        new_rem = [tuple(fld.eliminate(v, fld.mul(bval(piv, v), inv_a),
                                       piv)) for v in remaining]
        remaining = linalg.column_space_basis(
            [w for w in new_rem if any(w)], fld)
    cols = linalg.transpose(comp)
    return (tuple(linalg.mat_vec(cols, v, fld) for v in out_vecs),
            tuple(out_vals))


def _seeded_forms(rng, count):
    """Seeded forms over F_3, F_5, F_9, F_25, Q_3, Q_5 and Q_7 at dim 1-5;
    some with a repeated row (degenerate), some with a zero diagonal (the
    cross step), some with both."""
    fields = [FqField(3), FqField(5), FqField(3, 2), FqField(5, 2),
              QpField(3), QpField(5), QpField(7)]
    for t in range(count):
        field = fields[t % len(fields)]
        dim = rng.randrange(1, 6)
        g = [list(row) for row in random_form(field, rng, dim).gram]
        kind = rng.randrange(4)
        if kind & 1 and dim > 1:
            i, j = rng.sample(range(dim), 2)
            for k in range(dim):
                g[j][k] = g[k][j] = g[i][k]
            g[j][j] = g[i][j] = g[j][i] = g[i][i]
        if kind & 2:
            for k in range(dim):
                g[k][k] = field.zero()
        yield kind, QuadraticForm(field, g)


def test_one_elimination_matches_reference():
    # the complement read off the radical's free columns and the
    # Gram-Schmidt that drops its known dependent vector give the
    # reference's bases, Gram matrices and entries, repr for repr
    rng = random.Random(39)
    degenerate = cross = 0
    for kind, q in _seeded_forms(rng, 2100):
        assert repr(q.nondegenerate_part()) == \
            repr(nondegenerate_part_reference(q))
        want = diagonalize_reference(q)
        assert repr(q.diagonalize()) == repr(want)
        degenerate += not q.is_nondegenerate()
        cross += kind & 2 and bool(want[1])
    assert degenerate > 500 and cross > 500


def test_a_form_costs_one_elimination(monkeypatch):
    # a fresh form's diagonalize makes its radical's rref and nothing else
    # that reduces rows; omega reads P off the complement's indices
    calls = {"rref": 0, "column_space_basis": 0, "solve_columns": 0}

    def counted(name):
        real = getattr(linalg, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(linalg, name, wrapper)
    for name in calls:
        counted(name)
    rng = random.Random(7)
    for _, q in _seeded_forms(rng, 140):
        fresh = QuadraticForm(q.field, q.gram)
        calls.update(rref=0)
        fresh.diagonalize()
        assert calls == {"rref": 1, "column_space_basis": 0,
                         "solve_columns": 0}
        fresh = QuadraticForm(q.field, q.gram)
        calls.update(rref=0)
        omega(fresh, AdditiveCharacter(q.field))
        assert calls == {"rref": 1, "column_space_basis": 0,
                         "solve_columns": 0}


def test_hilbert_finite_trivial():
    f5 = FqField(5)
    for a in f5.elements()[1:]:
        for b in f5.elements()[1:]:
            assert hilbert(f5, a, b) == 1


def test_hilbert_examples():
    q5 = QpField(5)
    assert hilbert(q5, 5, 2) == -1
    assert hilbert(q5, 2, 3) == 1
    q3 = QpField(3)
    assert hilbert(q3, 3, 3) == -1


def test_hilbert_properties():
    rng = random.Random(13)
    for p in (3, 5, 7, 13):
        fld = QpField(p)
        for _ in range(60):
            a = random_unit(fld, rng)
            b = random_unit(fld, rng)
            c = random_unit(fld, rng)
            assert hilbert(fld, a, b) == hilbert(fld, b, a)
            assert hilbert(fld, a * b, c) == \
                hilbert(fld, a, c) * hilbert(fld, b, c)
            assert hilbert(fld, a, -a) == 1
            if a != 1:
                assert hilbert(fld, a, 1 - a) == 1


def test_hilbert_oracle_agreement():
    rng = random.Random(17)
    for p in (3, 5, 7, 13):
        fld = QpField(p)
        for _ in range(200):
            a = random_unit(fld, rng)
            b = random_unit(fld, rng)
            assert hilbert(fld, a, b) == hilbert_oracle(fld, a, b)


def test_hasse_examples():
    q3 = QpField(3)
    assert QuadraticForm(q3, [[1, 0], [0, 1]]).hasse() == 1
    assert QuadraticForm(q3, [[3, 0], [0, 3]]).hasse() == -1
    f7 = FqField(7)
    rng = random.Random(23)
    for _ in range(10):
        q = random_form(f7, rng, 3, nondegenerate=True)
        assert q.hasse() == 1


def test_hasse_equivalence_invariance():
    # h_F is an invariant of the form, so any base change, which also
    # changes the diagonal entries, preserves it
    rng = random.Random(31)
    cases = [(QpField(3), 3)] * 20 + [
        (field, dim)
        for field in (FqField(3), FqField(5), QpField(3), QpField(5))
        for dim in (2, 3, 4) for _ in range(8)]
    for field, dim in cases:
        q = random_form(field, rng, dim, nondegenerate=True)
        while True:
            c = [[field.element(rng.randrange(-3, 4)) for _ in range(dim)]
                 for _ in range(dim)]
            if linalg.det(linalg.mat(c), field):
                break
        cm = linalg.mat(c)
        g2 = linalg.mat_mul(linalg.mat_mul(linalg.transpose(cm), q.gram), cm)
        q2 = QuadraticForm(field, g2)
        assert q.hasse() == q2.hasse()
        assert q.det_square_class() * square_class(
            field, linalg.det(cm, field) ** 2) == q2.det_square_class()


def test_square_class_examples():
    q5 = QpField(5)
    assert square_class(q5, 4).tag == "1"
    assert square_class(q5, 10).tag == "u0p"
    assert square_class(q5, 5).tag == "p"
    f7 = FqField(7)
    assert square_class(f7, f7.element(2)).tag == "1"  # 2 = 3^2 mod 7
    assert square_class(f7, f7.element(3)).tag == "nu"
    rng = random.Random(37)
    for fld in (q5, f7):
        for _ in range(40):
            a = random_unit(fld, rng)
            s = random_unit(fld, rng)
            assert square_class(fld, a * s * s) == square_class(fld, a)


def test_zero_arguments_rejected():
    q5 = QpField(5)
    with pytest.raises(ZeroDivisionError):
        hilbert(q5, 0, 3)
    with pytest.raises(ZeroDivisionError):
        square_class(q5, 0)
