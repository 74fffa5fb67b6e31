import random

import pytest

from conftest import random_form, random_unit
from weilmod import linalg, quadratic
from weilmod.basefield import AdditiveCharacter, FqField, INTEGERS, QpField
from weilmod.quadratic import (QuadraticForm, det_hasse, hilbert,
                               hilbert_oracle, square_class)
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
    # the Gram-Schmidt is quadratic.diagonal's, one call per fresh form on
    # its lowered Gram matrix (the integers over Q_p, raw indices over
    # F_q), and it takes no reciprocal of a Fraction or an FFElt (its exact
    # division is // over the integers and a table inverse over F_q)
    calls = []
    real = quadratic.diagonal

    def counted(fld, gram, scale):
        calls.append(fld)
        return real(fld, gram, scale)

    def refuse(*args):
        raise AssertionError("diagonalize took a reciprocal")
    monkeypatch.setattr(quadratic, "diagonal", counted)
    for field, gram, view in (
            (QpField(5), [[1, 0], [0, 5]], INTEGERS),
            (QpField(3), [[0, 1, 0], [1, 0, 0], [0, 0, 0]], INTEGERS),
            (FqField(5), [[0, 1], [1, 0]], FqField(5).indices),
            (FqField(3, 2), [[1, 1], [1, 1]], FqField(3, 2).indices)):
        q = QuadraticForm(field, gram)
        q.radical()     # the radical's elimination divides, diagonal not
        calls.clear()
        with monkeypatch.context() as m:
            for owner in (linalg.Ops, QpField):
                m.setattr(owner, "recip", refuse)
            vecs, vals = q.diagonalize()
        assert calls == [view]
        assert len(vecs) == len(vals) == q.m - len(q.radical())
    assert QuadraticForm(QpField(5), [[1, 0], [0, 5]]).diagonalize()[1] \
        == (1, 5)


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
    # the complement read off the radical's free columns is the
    # reference's, repr for repr; quadratic.diagonal's fraction-free
    # Gram-Schmidt gives an orthogonal basis b_i with Q(b_i) = a_i exactly
    # and the reference's a_i up to squares, entry by entry
    rng = random.Random(39)
    degenerate = cross = 0
    for kind, q in _seeded_forms(rng, 2100):
        fld = q.field
        assert repr(q.nondegenerate_part()) == \
            repr(nondegenerate_part_reference(q))
        want = diagonalize_reference(q)
        vecs, vals = q.diagonalize()
        assert len(vecs) == len(vals) == len(want[1])
        assert [square_class(fld, a) for a in vals] == \
            [square_class(fld, a) for a in want[1]]
        for i, u in enumerate(vecs):
            gu = linalg.mat_vec(q.gram, u, fld)
            assert [fld.dot(v, gu) for v in vecs] == [
                vals[i] if j == i else fld.zero() for j in range(len(vecs))]
        degenerate += not q.is_nondegenerate()
        cross += kind & 2 and bool(want[1])
    assert degenerate > 500 and cross > 500


def test_diagonal_divides_exactly_and_stays_small():
    # each step divides by the square of the earlier pivots' Gram
    # determinant, so the entries are minors of the Gram matrix: without
    # the division they tripled in length per step (about 40,000 bits at
    # dim 9, over 6 s at dim 10)
    rng = random.Random(49)
    for n, zero_diagonal in ((8, False), (12, False), (12, True)):
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randrange(-20, 21)
            if zero_diagonal:
                g[i][i] = 0
        vecs, vals = quadratic.diagonal(INTEGERS, g, 1)
        assert len(vecs) == len(vals) == n    # nondegenerate at this seed
        for i, u in enumerate(vecs):
            gu = linalg.mat_vec(g, u, INTEGERS)
            assert [INTEGERS.dot(v, gu) for v in vecs] == [
                vals[i] if j == i else 0 for j in range(n)]
        # Hadamard's bound keeps minors of these small entries under 8 n bits
        assert max(abs(x).bit_length() for v in vecs for x in v) < 8 * n


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
        det, det2 = (det_hasse(field, field, f.diagonalize()[1])[0]
                     for f in (q, q2))
        assert det * square_class(field, linalg.det(cm, field) ** 2) == det2


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
