import functools
import gc
import hashlib
import itertools
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from weilmod import linalg, metaplectic
from weilmod.basefield import AdditiveCharacter, FqField, QpField
from weilmod.coeff import (CyclotomicRing, Cyc, FFElt, FieldIndices,
                           FiniteField, RingMismatchError)
from weilmod.heisenberg import (SympSpace, central, coset_reps, delta,
                                SchrodingerModel)
from weilmod.metaplectic import (WeilContext, bruhat_decompose,
                                 cocycle_formula, cocycle_operator,
                                 enumerate_sp2, leray_decompose, m_bracket,
                                 mu_g_scalar, random_symplectic, scalar_ratio, sigma,
                                 split_checks, x_invariant)
from weilmod.quadratic import (QuadraticForm, det_hasse, diagonal,
                               hasse_invariant, hilbert, square_class)
from weilmod.schwartz import cocycle_operator_padic
from weilmod.weilfactor import fourier_matrix, omega

from conftest import kron, trace


def F(x, y=1):
    return Fraction(x, y)


def qmat(rows):
    return linalg.mat([[Fraction(x) for x in r] for r in rows])


def fmat(field, rows):
    return linalg.mat([[field.element(x) for x in r] for r in rows])


def lower(g):
    """An F_q matrix on raw field indices, as the sigma cache keys it."""
    return g[0][0].field.indices.lower(g)


# ---------------------------------------------------------------------------
# Bruhat and x(g)
# ---------------------------------------------------------------------------

def test_bruhat_parabolic_case():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    g = fmat(f3, [[2, 1], [0, 2]])
    bd = bruhat_decompose(sp, g)
    assert bd.j == 0
    assert linalg.mat_mul(linalg.mat_mul(bd.p1, sp.w_subset(set())), bd.p2) \
        == g


def test_bruhat_w_case():
    for m in (1, 2):
        sp = SympSpace(QpField(5), m)
        w = sp.w_subset(set(range(m)))
        bd = bruhat_decompose(sp, w)
        assert bd.j == m
        assert x_invariant(sp, w).tag == "1"


def test_bruhat_sl2_lower():
    sp = SympSpace(QpField(5), 1)
    g = qmat([[1, 0], [5, 1]])
    bd = bruhat_decompose(sp, g)
    assert bd.j == 1
    assert x_invariant(sp, g) == square_class(QpField(5), F(5))


def test_bruhat_random_remultiplication(rng):
    for field in (FqField(3), QpField(3)):
        for m in (1, 2):
            sp = SympSpace(field, m)
            for _ in range(20):
                g = random_symplectic(sp, rng, length=6, scale=2)
                bd = bruhat_decompose(sp, g)
                wj = sp.w_subset(set(range(bd.j)))
                assert linalg.mat_mul(linalg.mat_mul(bd.p1, wj), bd.p2) == g
                assert sp.in_parabolic(bd.p1) and sp.in_parabolic(bd.p2)


def test_x_invariant_examples():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    tor = fmat(f3, [[2, 0], [0, 2]])
    assert x_invariant(sp, tor) == square_class(f3, f3.element(2))
    for s in (set(), {0}, {1}, {0, 1}):
        sp4 = SympSpace(QpField(3), 2)
        assert x_invariant(sp4, sp4.w_subset(s)).tag == "1"


def test_x_invariant_redecomposition_stability(rng, monkeypatch):
    # x(g) and the mu_g normalizer are invariant under changing (p1, p2):
    # mu_g_scalar reads the alternative decomposition from a patched
    # bruhat_decompose
    sp = SympSpace(QpField(3), 2)
    psi = AdditiveCharacter(QpField(3))
    fld = sp.field
    for _ in range(12):
        g = random_symplectic(sp, rng, length=5, scale=2)
        bd = bruhat_decompose(sp, g)
        x0 = x_invariant(sp, g)
        mu0 = mu_g_scalar(sp, psi, g)
        # alternative decomposition: slide r in P(X) cap w_j P(X) w_j^{-1}
        j = bd.j
        for _ in range(4):
            r = _random_wj_stable_parabolic(sp, j, rng)
            p1 = linalg.mat_mul(bd.p1, r)
            wj = sp.w_subset(set(range(j)))
            rconj = linalg.mat_mul(linalg.mat_mul(
                linalg.mat_inv(wj, fld), linalg.mat_inv(r, fld)), wj)
            p2 = linalg.mat_mul(rconj, bd.p2)
            assert linalg.mat_mul(linalg.mat_mul(p1, wj), p2) == g
            d = sp.det_x(p1) * sp.det_x(p2)
            assert square_class(sp.field, d) == x0
            from weilmod.metaplectic import BruhatData
            with monkeypatch.context() as patch:
                patch.setattr(metaplectic, "bruhat_decompose",
                              lambda space, h: BruhatData(j, p1, p2))
                assert mu_g_scalar(sp, psi, g) == mu0


def _random_wj_stable_parabolic(sp, j, rng):
    """Random r in P(X) with w_j^{-1} r w_j still in P(X)."""
    field = sp.field
    m = sp.m
    while True:
        a = [[field.element(0)] * m for _ in range(m)]
        for i in range(m):
            for k in range(m):
                if (i < j) == (k < j):  # block-diagonal over the j-split
                    a[i][k] = field.element(rng.randrange(-2, 3))
        if not linalg.det(a, field):
            continue
        s = [[field.element(0)] * m for _ in range(m)]
        for i in range(j, m):
            for k in range(i, m):
                v = field.element(rng.randrange(-2, 3))
                s[i][k] = v
                s[k][i] = v
        r = sp.mul_unipotent(sp.mul_torus(sp.identity(), a), s)
        wj = sp.w_subset(set(range(j)))
        conj = linalg.mat_mul(linalg.mat_mul(
            linalg.mat_inv(wj, field), r), wj)
        if sp.in_parabolic(conj):
            return r


def bruhat_reference(space, g):
    """(j, p1, p2) as Bruhat built them by subspace algebra (the path the
    closed form replaced): gX cap X by intersection, the X-basis by
    column-space selection, then one solve per Y-vector of p1."""
    field, m = space.field, space.m
    zero, one = field.element(0), field.element(1)

    def dual_vector(span, pair_with, rhs, extra=()):
        rows = [tuple(space.pairing(u, b) for b in span)
                for u in list(pair_with) + list(extra)]
        sol = linalg.solve(linalg.mat(rows),
                           tuple(rhs) + (zero,) * len(extra), field)
        assert sol is not None
        return linalg.mat_vec(linalg.transpose(span), sol, field)
    gx = list(linalg.transpose(g)[:m])
    xb = [space.basis_e(i) for i in range(m)]
    inter = linalg.intersection(gx, xb, field)
    j = m - len(inter)
    u = linalg.column_space_basis(list(inter) + xb, field)
    u = list(u[len(inter):]) + list(inter)
    delta = [[one if k == i else zero for k in range(m)] for i in range(m)]
    ys = [dual_vector(gx, u, delta[i]) for i in range(j)]
    full = xb + [space.basis_f(i) for i in range(m)]
    for i in range(j, m):
        ys.append(dual_vector(full, u, delta[i], ys))
    p1 = linalg.transpose(linalg.mat(u + ys))
    wj = space.w_subset(set(range(j)))
    p2 = linalg.mat_mul(linalg.mat_mul(space.inv(wj), space.inv(p1)), g)
    return j, p1, p2


def test_bruhat_matches_reference():
    rng = random.Random(31)
    cases = []
    for q, f in ((3, 1), (5, 1), (3, 2)):
        sp = SympSpace(FqField(q, f), 1)
        cases += [(sp, g) for g in enumerate_sp2(sp)]
    for field, m, count in ((FqField(3), 2, 1000), (QpField(5), 2, 500),
                            (FqField(3, 2), 2, 150), (FqField(5, 2), 2, 150),
                            (FqField(3), 3, 200)):
        sp = SympSpace(field, m)
        cases += [(sp, random_symplectic(sp, rng, length=8, scale=3))
                  for _ in range(count)]
    for field in (FqField(5), QpField(3)):
        for m in (1, 2, 3):
            sp = SympSpace(field, m)
            cases += [(sp, sp.w_subset(set(s))) for k in range(m + 1)
                      for s in itertools.combinations(range(m), k)]
            cases += [(sp, _random_wj_stable_parabolic(sp, 0, rng))
                      for _ in range(50 if m == 2 else 0)]
    js = set()
    for sp, g in cases:
        got = bruhat_decompose(sp, g)
        assert tuple(got) == bruhat_reference(sp, g), (sp.field, g)
        js.add((sp.m, got.j))
    assert js == {(m, j) for m in (1, 2, 3) for j in range(m + 1)}


def test_bruhat_refuses_non_symplectic_as_a_check():
    # the guard now meets only products the library formed, such as
    # g1 g2: a failed check (RuntimeError naming g), not a bad input;
    # x_data and x_invariant make the same check
    for field in (FqField(3), FqField(3, 2), QpField(5)):
        sp = SympSpace(field, 1)
        bad = fmat(field, [[1, 1], [1, 1]])
        for fn in (bruhat_decompose, metaplectic.x_data, x_invariant):
            with pytest.raises(RuntimeError, match="is not symplectic"):
                fn(sp, bad)


def test_bruhat_makes_no_solve_or_intersection(monkeypatch):
    def refuse(*_args, **_kw):
        raise AssertionError("Bruhat used a solve or a subspace selection")
    for name in ("solve", "solve_columns", "intersection",
                 "column_space_basis"):
        monkeypatch.setattr(linalg, name, refuse)
    rng = random.Random(4)
    for field in (FqField(3), QpField(5)):
        sp = SympSpace(field, 2)
        for s in ((), (0,), (0, 1)):
            bruhat_decompose(sp, sp.w_subset(set(s)))
        for _ in range(20):
            bruhat_decompose(sp, random_symplectic(sp, rng, length=6))


def _x_data_cases():
    """(space, elements): all of Sp2(F_3), Sp2(F_5), Sp2(F_7) and Sp2(F_9),
    and every w_S with seeded words in Sp4 and Sp6 over F_3, F_9, Q_3, Q_5
    and Q_7."""
    rng = random.Random(3636)
    cases = []
    for q, f in ((3, 1), (5, 1), (7, 1), (3, 2)):
        sp = SympSpace(FqField(q, f), 1)
        cases.append((sp, enumerate_sp2(sp)))
    for field in (FqField(3), FqField(3, 2), QpField(3), QpField(5),
                  QpField(7)):
        for m, count in ((2, 60), (3, 12)):
            sp = SympSpace(field, m)
            cases.append((sp, [sp.w_subset(set(s)) for k in range(m + 1)
                               for s in itertools.combinations(range(m), k)]
                          + [random_symplectic(sp, rng, length=8, scale=3)
                             for _ in range(count)]))
    return cases


def test_x_data_matches_bruhat_factors():
    # N and d against Bruhat's factors: j = len(N), p1's first j columns
    # are e_i for i in N, and d = det_X(p1) det_X(p2) exactly (so x(g) is
    # its class); over F_q also on raw indices, as a count build reads it.
    # The cases meet both of x_data's branches over F_q and over Q_p: C
    # invertible (d = det C) and C singular (the nullspace path)
    js, branches = set(), set()
    for sp, elements in _x_data_cases():
        field = sp.field
        for g in elements:
            branches.add((field.flavor,
                          bool(linalg.det(sp.blocks(g)[2], field))))
            bd = bruhat_decompose(sp, g)
            n_idx, d = metaplectic.x_data(sp, g)
            assert len(n_idx) == bd.j, (field, g)
            assert [sp.basis_e(i) for i in n_idx] == \
                list(linalg.transpose(bd.p1)[:bd.j]), (field, g)
            assert d == field.mul(sp.det_x(bd.p1), sp.det_x(bd.p2)), \
                (field, g)
            assert x_invariant(sp, g) == square_class(field, d)
            if field.flavor == "finite":
                ix = field.indices
                assert metaplectic.x_data(SympSpace(ix, sp.m), lower(g)) \
                    == (n_idx, d.i), (field, g)
            js.add((sp.m, bd.j))
    assert js == {(m, j) for m in (1, 2, 3) for j in range(m + 1)}
    assert branches == {(flavor, invertible) for flavor in ("finite", "padic")
                        for invertible in (True, False)}


def test_x_data_refuses_zero_det_as_a_check(monkeypatch):
    # a zero det M, which no symplectic g gives, is refused as a failed
    # check naming g even when it passes the input check
    for field in (FqField(3), FqField(3, 2), QpField(5)):
        sp = SympSpace(field, 1)
        zero = fmat(field, [[0, 0], [0, 0]])
        with monkeypatch.context() as mp:
            # on the class: over F_q x_data checks on the index view
            mp.setattr(SympSpace, "is_symplectic", lambda self, g: True)
            with pytest.raises(RuntimeError, match=r"det M = 0 for g = "):
                metaplectic.x_data(sp, zero)


def test_count_build_makes_no_bruhat_call(monkeypatch):
    # a count build reads its key and lead from x_data alone: no Bruhat
    # decomposition, whatever j, over Sp2(F_9) and seeded Sp4(F_3) words
    def refuse(*_args):
        raise AssertionError("a count build called Bruhat")
    built = []
    real = metaplectic.x_data

    def counted(space, g):
        built.append(g)
        return real(space, g)
    monkeypatch.setattr(metaplectic, "_bruhat", refuse)
    monkeypatch.setattr(metaplectic, "bruhat_decompose", refuse)
    monkeypatch.setattr(metaplectic, "x_data", counted)
    rng = random.Random(36)
    sp9, sp4 = SympSpace(FqField(3, 2), 1), SympSpace(FqField(3), 2)
    cases = [(sp9, enumerate_sp2(sp9)),
             (sp4, [random_symplectic(sp4, rng, length=8)
                    for _ in range(40)])]
    for sp, elements in cases:
        model = WeilContext(sp, AdditiveCharacter(sp.field)).counts
        built.clear()
        js = {model.entry(g)[0][0] for g in map(lower, elements)}
        assert js == set(range(sp.m + 1))
        assert len(built) == len(set(map(lower, elements))) > 0


def _build_cost_cases():
    """(space, elements): all of Sp2(F_9) and seeded Sp4(F_3) words."""
    rng = random.Random(4444)
    sp9, sp4 = SympSpace(FqField(3, 2), 1), SympSpace(FqField(3), 2)
    return [(sp9, enumerate_sp2(sp9)),
            (sp4, [random_symplectic(sp4, rng, length=8)
                   for _ in range(40)])]


def test_count_build_forms_no_inverse(monkeypatch):
    # a build reads the columns of g^-1 off the rows of g's blocks: no
    # SympSpace.inv call, on a cold model, whatever j
    def refuse(*_args):
        raise AssertionError("a count build formed g^-1")
    monkeypatch.setattr(SympSpace, "inv", refuse)
    for sp, elements in _build_cost_cases():
        model = metaplectic.CountModel(sp.field, sp.m,
                                       AdditiveCharacter(sp.field)._exp)
        js = {model.entry(g)[0][0] for g in map(lower, elements)}
        assert js == set(range(sp.m + 1))
        assert len(model.cache) == len(set(map(lower, elements)))


def test_x_data_with_invertible_c_makes_one_det(monkeypatch):
    # C invertible: N is every index and d = det C, from one linalg.det
    # and no nullspace or rref, on raw indices (as a count build calls it)
    # and on FFElts; a singular C still takes the nullspace path
    calls = []
    for name in ("det", "nullspace", "rref"):
        def counted(*args, real=getattr(linalg, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(linalg, name, counted)
    seen = set()
    for sp, elements in _build_cost_cases():
        ix = SympSpace(sp.field.indices, sp.m)
        for g in elements:
            invertible = bool(linalg.det(sp.blocks(g)[2], sp.field))
            for space, h in ((ix, lower(g)), (sp, g)):
                calls.clear()
                n_idx, d = metaplectic.x_data(space, h)
                if invertible:
                    assert calls == ["det"], (space.field, h)
                    assert n_idx == list(range(sp.m))
                    assert d == linalg.det(space.blocks(h)[2], space.field)
                else:
                    assert "nullspace" in calls, (space.field, h)
            seen.add(invertible)
    assert seen == {True, False}


def _distinct_pairs(elements, rng, count):
    """`count` seeded pairs (g1, g2) with g1, g2 and g1 g2 distinct."""
    pairs = []
    while len(pairs) < count:
        g1, g2 = rng.choice(elements), rng.choice(elements)
        if len({g1, g2, linalg.mat_mul(g1, g2)}) == 3:
            pairs.append((g1, g2))
    return pairs


def test_cocycle_operator_checks_only_g1_and_g2(monkeypatch):
    # on a cold model, the builds of g1 and g2 make one is_symplectic call
    # each and the build of g1 g2 none; with g1 and g2 cached, the pair
    # builds g1 g2 with no call at all
    seen = []
    real = SympSpace.is_symplectic

    def counted(self, g):
        seen.append(g)
        return real(self, g)
    monkeypatch.setattr(SympSpace, "is_symplectic", counted)
    rng = random.Random(4545)
    for sp, elements in _build_cost_cases():
        psi = AdditiveCharacter(sp.field)
        for g1, g2 in _distinct_pairs(elements, rng, 12):
            a, b = lower(g1), lower(g2)
            ab = lower(linalg.mat_mul(g1, g2))
            monkeypatch.setattr(metaplectic, "_COUNT_MODELS", {})
            ctx = WeilContext(sp, psi)
            seen.clear()
            assert cocycle_operator(ctx, g1, g2) == ctx.one()
            assert seen == [a, b]
            assert set(ctx.counts.cache) == {a, b, ab}
            monkeypatch.setattr(metaplectic, "_COUNT_MODELS", {})
            ctx = WeilContext(sp, psi)
            metaplectic.sigma_counts(ctx, a)
            metaplectic.sigma_counts(ctx, b)
            seen.clear()
            assert cocycle_operator(ctx, g1, g2) == ctx.one()
            assert seen == [] and ab in ctx.counts.cache


def test_cocycle_operator_refuses_a_non_symplectic_input(monkeypatch):
    # a g1 or g2 that is not symplectic (a symplectic word times diag(2,
    # 1, .., 1)) is refused as a failed check naming it as given, on a
    # cold model and on one where the other element and the product are
    # cached
    rng = random.Random(4646)
    for field, m in ((FqField(3), 1), (FqField(3, 2), 1), (FqField(3), 2)):
        sp = SympSpace(field, m)
        psi = AdditiveCharacter(field)
        good = random_symplectic(sp, rng, length=6)
        scale = fmat(field, [[2 if i == j == 0 else int(i == j)
                              for j in range(2 * m)] for i in range(2 * m)])
        bad = linalg.mat_mul(good, scale)
        assert not sp.is_symplectic(bad)
        for name, g1, g2 in (("g1", bad, good), ("g2", good, bad)):
            for warm in (False, True):
                monkeypatch.setattr(metaplectic, "_COUNT_MODELS", {})
                ctx = WeilContext(sp, psi)
                if warm:
                    model = ctx.counts
                    model.entry(lower(good))
                    model.cache[lower(linalg.mat_mul(g1, g2))] = \
                        model.entry(lower(good))
                with pytest.raises(RuntimeError) as err:
                    cocycle_operator(ctx, g1, g2)
                assert str(err.value).startswith("%s = %s: " % (name, bad))
                assert str(err.value).endswith("is not symplectic")
                assert lower(bad) not in ctx.counts.cache


def test_count_model_keeps_no_table_per_entry():
    # a model and its first build allocate less than three count matrices
    # N (n^2 entries of C bits): a table of each entry's 2p terms shifted
    # into place took about p times one N, some 750 MB over F_101
    import tracemalloc
    field = FqField(53)
    exp = AdditiveCharacter(field)._exp
    tracemalloc.start()
    try:
        model = metaplectic.CountModel(field, 1, exp)
        model.entry(lower(fmat(field, [[0, -1], [1, 0]])))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(model.ypoints)
    assert peak < 3 * n * n * model.stride // 8


# ---------------------------------------------------------------------------
# sigma over finite F
# ---------------------------------------------------------------------------

def test_sigma_identity_and_intertwining():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    ident = sp.identity()
    s = sigma(ctx, ident)
    n = len(ctx.counts.ypoints)
    for i in range(n):
        for j in range(n):
            assert s[i][j] == (ctx.one() if i == j else ctx.zero())
    # twist law: sigma(g) rho(h) = rho(g . h) sigma(g)
    model = SchrodingerModel(sp, ctx.psi)
    for g in enumerate_sp2(sp)[:8]:
        sg = sigma(ctx, g)
        for hv in ((1, 0), (0, 1), (2, 1)):
            h = delta(sp, tuple(f3.element(x) for x in hv))
            lhs = linalg.mat_mul(sg, model.rho(h).to_dense(ctx.zero()))
            hg = delta(sp, linalg.mat_vec(g, h.w, f3))
            rhs = linalg.mat_mul(model.rho(hg).to_dense(ctx.zero()), sg)
            assert lhs == rhs


def test_weil_context_refuses_a_padic_space():
    # sigma's contexts exist over finite F only; Q_p gets the message the
    # Schrödinger model gives, before any count model is looked up
    qp = QpField(3)
    with pytest.raises(ValueError) as err:
        WeilContext(SympSpace(qp, 1), AdditiveCharacter(qp))
    assert str(err.value) == "matrix models exist for finite F only"
    assert metaplectic._COUNT_MODELS == {}


def test_weil_context_holds_no_model_and_no_restrict():
    # a context holds sigma's ring side only: the Y-points are its count
    # model's, and ThetaLift asks that model to restrict
    f3 = FqField(3)
    ctx = WeilContext(SympSpace(f3, 2), AdditiveCharacter(f3))
    assert not hasattr(ctx, "model") and not hasattr(ctx, "restrict")
    assert len(ctx.counts.ypoints) == 9


def test_sigma_w_equals_normalized_fourier():
    # sigma(w_1) is the epsilon-normalized Fourier matrix composed with the
    # reflection f -> f(-y), both with the same mu_rho normalizer
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    psi = AdditiveCharacter(f3)
    ctx = WeilContext(sp, psi)
    s = sigma(ctx, sp.w_subset({0}))
    fm = fourier_matrix(f3, psi, [[f3.element(1)]])
    # reflection permutation on the lexicographic basis of F_3
    refl = {0: 0, 1: 2, 2: 1}
    n = 3
    for i in range(n):
        for j in range(n):
            assert s[i][j] == fm[i][refl[j]]


def test_sigma_multiplicative_exhaustive_sp2f3():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    rep = split_checks(ctx)
    assert rep == {"multiplicative": True, "pairs": 576}


def test_cocycle_operator_finite_trivial_random_f5():
    f5 = FqField(5)
    sp = SympSpace(f5, 1)
    ctx = WeilContext(sp, AdditiveCharacter(f5))
    group = enumerate_sp2(sp)
    rng = random.Random(2)
    for _ in range(40):
        g1 = group[rng.randrange(len(group))]
        g2 = group[rng.randrange(len(group))]
        assert cocycle_operator(ctx, g1, g2) == ctx.one()


def test_split_checks_char2_coefficients():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    f4 = FiniteField(2, 2)
    ctx = WeilContext(sp, AdditiveCharacter(f3, f4))
    group = enumerate_sp2(sp)
    rng = random.Random(5)
    pairs = [(group[rng.randrange(24)], group[rng.randrange(24)])
             for _ in range(120)]
    rep = split_checks(ctx, pairs)
    assert rep["multiplicative"] is True


def test_split_checks_reports_the_first_failing_pair(monkeypatch):
    # sigma(g1 g2) with its scalar negated: sigma(g1) sigma(g2) is then
    # -sigma(g1 g2), so the first pair is not multiplicative.  mu lives in
    # a table by (j, x(g) class) that g1 shares, so sigma_counts is
    # negated for g1 g2 alone
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    g1, g2 = sp.w_subset({0}), sp.mul_unipotent(sp.identity(),
                                                [[f3.element(1)]])
    g12 = linalg.mat_mul(g1, g2)
    assert split_checks(ctx, [(g1, g2)]) == {"multiplicative": True,
                                             "pairs": 1}
    real = metaplectic.sigma_counts

    def negated(c, g):      # g on raw field indices
        mu, counts = real(c, g)
        return (-mu, counts) if g == lower(g12) else (mu, counts)
    monkeypatch.setattr(metaplectic, "sigma_counts", negated)
    assert split_checks(ctx, [(g1, g2), (g2, g1)]) == {
        "multiplicative": False, "pairs": 0}


def test_contragredient_twist_by_traces():
    # (omega_psi)^v = omega_{psi^{-1}} x chi^2 as split-group representations:
    # with the split section chi^2 = 1 on the image, so traces must agree
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    ctx_inv = WeilContext(sp, AdditiveCharacter(f3, twist=-1))
    for g in enumerate_sp2(sp):
        ginv = linalg.mat_inv(g, f3)
        lhs = trace(sigma(ctx, ginv))
        rhs = trace(sigma(ctx_inv, g))
        assert lhs == rhs


def test_tensor_compatibility_on_generators():
    # W = W1 perp W2 (each m = 1): the big sigma restricted to the embedded
    # Sp(W1) x Sp(W2) is omega_1 x omega_2 up to a scalar
    f3 = FqField(3)
    sp1 = SympSpace(f3, 1)
    sp2 = SympSpace(f3, 2)
    ctx1 = WeilContext(sp1, AdditiveCharacter(f3))
    ctx2 = WeilContext(sp2, AdditiveCharacter(f3))
    z = f3.element(0)

    def embed(g1, g2):
        (a1, b1), (c1, d1) = g1
        (a2, b2), (c2, d2) = g2
        return linalg.mat([
            (a1, z, b1, z), (z, a2, z, b2),
            (c1, z, d1, z), (z, c2, z, d2)])
    gens = [fmat(f3, [[0, 2], [1, 0]]), fmat(f3, [[1, 1], [0, 1]]),
            fmat(f3, [[2, 0], [0, 2]])]
    for g1 in gens:
        for g2 in gens:
            big = sigma(ctx2, embed(g1, g2))
            small = kron(sigma(ctx1, g1), sigma(ctx1, g2))
            r = scalar_ratio(big, small, ctx2.zero())
            assert r is not None


# ---------------------------------------------------------------------------
# sigma in count form against the dense reference
# ---------------------------------------------------------------------------

def dense_sigma_reference(ctx, g):
    """sigma(g) built entry by entry over R (the dense build the count form
    replaced): one psi value per (Y-point, coset representative), the
    representatives taken from a second intersection gX cap X."""
    space, psi = ctx.space, ctx.psi
    field = space.field
    bd = bruhat_decompose(space, g)
    mu_pt = mu_g_scalar(space, psi, g) * ctx._gauss_half_inv ** bd.j
    ginv = space.inv(g)
    xb = [space.basis_e(i) for i in range(space.m)]
    gx = list(linalg.transpose(g)[:space.m])
    reps = coset_reps(linalg.intersection(gx, xb, field), xb, field)
    model = SchrodingerModel(space, psi)
    half, zero = space.half(), ctx.zero()
    n = model.dim
    rows = [[zero] * n for _ in range(n)]
    for i0 in range(n):
        y0 = model.point(i0)
        for a in reps:
            t = half * space.pairing(a, y0)
            w = linalg.mat_vec(ginv, tuple(x + y for x, y in zip(a, y0)),
                              field)
            wx = w[:space.m] + (field.element(0),) * space.m
            wy = (field.element(0),) * space.m + w[space.m:]
            phase = psi(t - half * space.pairing(wx, wy))
            col = model._index[w[space.m:]]
            rows[i0][col] = rows[i0][col] + mu_pt * phase
    return linalg.mat(rows)



@pytest.mark.parametrize("p,f,m", [(3, 2, 1), (3, 1, 2)],
                         ids=["F9", "Sp4-F3"])
def test_sigma_lifts_no_index_matrix(monkeypatch, p, f, m):
    # sigma and the operator cocycle stay on raw field indices: each mu is
    # read from its (j, x-class) key, so with FieldIndices.lift refused
    # both still run, against the dense reference and the trivial cocycle
    field = FqField(p, f)
    sp = SympSpace(field, m)
    rng = random.Random(27)
    elems = [sp.identity(), sp.w_subset(set(range(m)))] + \
        [random_symplectic(sp, rng, length=6) for _ in range(10)]
    want = [dense_sigma_reference(WeilContext(sp, AdditiveCharacter(field)),
                                  g) for g in elems]

    def refuse(*_args):
        raise AssertionError("index matrix lifted on the sigma path")
    monkeypatch.setattr(FieldIndices, "lift", refuse)
    for twist in (1, 2):
        ctx = WeilContext(sp, AdditiveCharacter(field, twist=twist))
        got = [sigma(ctx, g) for g in elems]
        if twist == 1:
            assert got == want
        for g1, g2 in zip(elems, elems[1:]):
            assert cocycle_operator(ctx, g1, g2) == ctx.one()

def dense_cocycle_reference(ctx, g1, g2, ref):
    """sigma(g1) sigma(g2) sigma(g1 g2)^-1 from dense products over R;
    `ref` memoizes dense_sigma_reference."""
    def sig(g):
        if g not in ref:
            ref[g] = dense_sigma_reference(ctx, g)
        return ref[g]
    return scalar_ratio(linalg.mat_mul(sig(g1), sig(g2)),
                        sig(linalg.mat_mul(g1, g2)), ctx.zero())


@pytest.mark.parametrize("p,f,coeff", [
    (3, 1, None), (3, 1, (2, 2)), (5, 1, None), (5, 1, (2, 4)),
    (3, 2, None)], ids=["F3-cyclo", "F3-F4", "F5-cyclo", "F5-F16",
                        "F9-cyclo"])
def test_sigma_counts_match_dense_sp2(p, f, coeff):
    # F_4 holds no 5th root of unity: over F_5 the char-2 ring is F_16
    fq = FqField(p, f)
    sp = SympSpace(fq, 1)
    ring = FiniteField(*coeff) if coeff else None
    ctx = WeilContext(sp, AdditiveCharacter(fq, ring))
    group = enumerate_sp2(sp)
    if f > 1:
        group = random.Random(9).sample(group, 100)
    for g in group:
        assert sigma(ctx, g) == dense_sigma_reference(ctx, g)


@pytest.mark.parametrize("p,f,twist,sample", [
    (5, 1, 2, None), (3, 2, 3, 100)], ids=["F5-twist2", "F9-twist-x"])
def test_sigma_counts_match_dense_twisted(p, f, twist, sample):
    # the count form reads psi's exponent table: a twisted psi (over F_9
    # the twist x, index 3) gives the same sigma as the dense build
    fq = FqField(p, f)
    sp = SympSpace(fq, 1)
    ctx = WeilContext(sp, AdditiveCharacter(fq, twist=twist))
    group = enumerate_sp2(sp)
    if sample:
        group = random.Random(10).sample(group, sample)
    for g in group:
        assert sigma(ctx, g) == dense_sigma_reference(ctx, g)


def parity_families(model):
    """Signed lists whose span every sigma(g) keeps: each Y-point alone,
    the even vectors e_y + e_{-y} and the odd ones e_y - e_{-y}."""
    n = model.dim
    neg = [model._index[tuple(-x for x in model._points[z])]
           for z in range(n)]
    return ([([z], []) for z in range(n)],
            [(sorted({z, neg[z]}), []) for z in range(n) if z <= neg[z]],
            [([z], [neg[z]]) for z in range(n) if z < neg[z]])


def sigma_images(ctx, g, signed):
    """The matrix of sigma(g) on the span of the e_{P_k} - e_{M_k}, as its
    columns, or None when sigma(g) does not keep that span: restrict's
    counts mapped through mu and phi, as ThetaLift.act maps the ones each
    lift keeps."""
    key, cols = ctx.counts.restrict(g, signed)
    if cols is None:
        return None
    mu, phi = ctx.mu(key), ctx.phi
    return [tuple(mu * phi(x) for x in col) for col in cols]


@pytest.mark.parametrize("coeff", [None, (7, 1), (2, 2)],
                         ids=["cyclo", "F7", "F4"])
def test_sigma_images_match_dense_sigma(coeff):
    # sigma(g) on the span of the e_P - e_M, from the packed counts,
    # against the dense sigma applied to each vector and read at the P[0];
    # over F_4 (characteristic 2) -1 is 1.  Over Z[zeta_3] a span that
    # sigma(g) leaves gives None: e_0 alone is kept exactly when sigma(g)
    # e_0 is a multiple of e_0
    f3 = FqField(3)
    rng = random.Random(22)
    ring = FiniteField(*coeff) if coeff else None
    for m in (1, 2):
        sp = SympSpace(f3, m)
        ctx = WeilContext(sp, AdditiveCharacter(f3, ring))
        model = SchrodingerModel(sp, ctx.psi)
        one, zero, n = ctx.one(), ctx.zero(), model.dim
        families = parity_families(model)
        group = enumerate_sp2(sp) if m == 1 else \
            [random_symplectic(sp, rng, length=8) for _ in range(12)]
        for g in group:
            dense = dense_sigma_reference(ctx, g)
            for signed in families:
                want = []
                for plus, minus in signed:
                    vec = [one if z in plus else -one if z in minus else zero
                           for z in range(n)]
                    img = linalg.mat_vec(dense, vec, ctx.psi.coeff_ring)
                    want.append(tuple(img[p[0]] for p, _ in signed))
                assert sigma_images(ctx, lower(g), signed) == want
            if coeff is None:
                kept = not any(row[0] for row in dense[1:])
                assert (sigma_images(ctx, lower(g), [([0], [])]) is None) \
                    == (not kept)


def test_sigma_and_cocycle_match_dense_sp4():
    f3 = FqField(3)
    sp = SympSpace(f3, 2)
    rng = random.Random(108)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    elements = [random_symplectic(sp, rng, length=8) for _ in range(1000)]
    ref = {}
    for g in elements:
        ref[g] = dense_sigma_reference(ctx, g)
        assert sigma(ctx, g) == ref[g]
    for g1, g2 in zip(elements[::2], elements[1::2]):
        want = dense_cocycle_reference(ctx, g1, g2, ref)
        got = cocycle_operator(ctx, g1, g2)
        assert got == want and repr(got) == repr(want)
    ctx4 = WeilContext(sp, AdditiveCharacter(f3, FiniteField(2, 2)))
    ref4 = {}
    for _ in range(200):
        g1 = random_symplectic(sp, rng, length=8)
        g2 = random_symplectic(sp, rng, length=8)
        want = dense_cocycle_reference(ctx4, g1, g2, ref4)
        got = cocycle_operator(ctx4, g1, g2)
        assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("coeff", [None, (2, 2)], ids=["cyclo", "F4"])
def test_cocycle_operator_checks_every_entry(coeff):
    # one count entry of sigma(g1 g2) off, anywhere but the entry that
    # fixes the ratio, must fail the scalar check
    f3 = FqField(3)
    sp = SympSpace(f3, 2)
    ctx = WeilContext(sp, AdditiveCharacter(
        f3, FiniteField(*coeff) if coeff else None))
    g1, g2 = sp.w_subset({0, 1}), sp.mul_unipotent(sp.identity(), fmat(
        f3, [[1, 0], [0, 2]]))
    g12 = linalg.mat_mul(g1, g2)
    assert cocycle_operator(ctx, g1, g2) == ctx.one()
    mu, packed = ctx._sigma_cache[lower(g12)]
    counts = [ctx.counts.unpack(row) for row in packed]
    dense = sigma(ctx, g12)
    first = next((i, j) for i, row in enumerate(dense)
                 for j, x in enumerate(row) if x != ctx.zero())
    last = max((i, j) for i, row in enumerate(counts)
               for j, c in enumerate(row) if c)
    assert last != first
    bad = [list(row) for row in counts]
    bad[last[0]][last[1]] += 1      # one more zeta^0 term
    ctx._sigma_cache[lower(g12)] = (mu, tuple(map(ctx.counts.pack, bad)))
    with pytest.raises(RuntimeError, match="cocycle operator is not scalar"):
        cocycle_operator(ctx, g1, g2)


def test_sigma_cache_is_bounded(monkeypatch):
    # the cap sits above the sp2-reuse working set (all 336 of Sp2(F_7))
    assert metaplectic.SIGMA_CACHE_SIZE > 336
    monkeypatch.setattr(metaplectic, "SIGMA_CACHE_SIZE", 10)
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    group = enumerate_sp2(sp)
    first = sigma(ctx, group[0])
    for g in group[1:]:
        sigma(ctx, g)
        assert len(ctx._sigma_cache) <= 10
    assert lower(group[0]) not in ctx._sigma_cache
    assert sigma(ctx, group[0]) == first
    assert list(ctx._sigma_cache)[-1] == lower(group[0])


def test_phi_table_holds_each_entry_once(monkeypatch):
    # the cocycle on all of Sp2(F_3) x Sp2(F_3) maps each distinct entry of
    # N12 that it reads once (an entry has p = 3 slots totalling at most
    # q^m = 3, so there are at most C(6, 3) = 20), and Z[zeta_3] inverts
    # each such phi(N12[e]) once and each mu at most twice (its own inverse
    # and one in omega_ratio): not once per pair
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    inverted = []
    real = Cyc.inv

    def counted(x):
        if x._inv is None:
            inverted.append(x)
        return real(x)
    monkeypatch.setattr(Cyc, "inv", counted)
    group = enumerate_sp2(sp)
    for g1 in group:
        for g2 in group:
            cocycle_operator(ctx, g1, g2)
    assert 0 < len(ctx._phis) <= 20
    assert len(inverted) <= len(ctx._phis) + 2 * len(ctx._mu)


def test_sigma_makes_each_dense_entry_once(monkeypatch):
    # sigma makes one mu phi(c) product per distinct (key, packed count) a
    # context meets, however often it meets it, and a fresh context makes
    # its own: over Sp2(F_5), fewer than its 3,000 dense entries
    f5 = FqField(5)
    sp = SympSpace(f5, 1)
    group = enumerate_sp2(sp)
    products, ctx = [], None
    real = Cyc.__mul__

    def counted(a, b):
        if ctx is not None and any(a is mu for mu in ctx._mu.values()) \
                and any(b is y for y in ctx._phis.values()):
            products.append((a, b))
        return real(a, b)
    monkeypatch.setattr(Cyc, "__mul__", counted)
    for twist in (1, 1, 2):
        ctx = WeilContext(sp, AdditiveCharacter(f5, twist=twist))
        pairs = set()
        for g in group:
            key, counts = ctx.counts.entry(lower(g))
            pairs |= {(key, c) for row in counts
                      for c in ctx.counts.unpack(row) if c}
        for sweep in range(2):
            products.clear()
            for g in group:
                sigma(ctx, g)
            assert len(products) == (len(pairs) if sweep == 0 else 0)
        assert len(pairs) < len(group) * f5.q ** 2


# ---------------------------------------------------------------------------
# the shared count model and the cocycle check on packed Z[zeta_p] counts
# ---------------------------------------------------------------------------

def entry_reference(model, g):
    """CountModel.entry's (key, packed rows) for g on raw indices, built as
    the body the tables replaced: g^-1 applied to each representative a
    and each Y-point y0 by mat_vec, and the phase exponent exp[(a, va) .
    (y0, -s(vy))] - exp[Q(va)] - exp[Q(vy)] from one dot product per
    term, for Q(v) = v_X . v_Y and s(v) = (v_Y, v_X)."""
    space = model.space
    ix = space.field
    m, p = model.m, model.p
    bd = metaplectic._bruhat(space, g)
    key = (bd.j, ix.is_square(ix.mul(space.det_x(bd.p1),
                                     space.det_x(bd.p2))))
    dot, exp, yindex = ix.dot, model.exp, model.yindex
    ginv = space.inv(g)
    gx = [row[:m] for row in ginv]      # g^-1 (a, 0) = gx a
    gy = [row[m:] for row in ginv]      # g^-1 (0, y) = gy y
    lead = [row[:bd.j] for row in bd.p1[:m]]
    reps = []
    for co in itertools.product(range(ix.q), repeat=bd.j):
        a = linalg.mat_vec(lead, co, ix)
        va = linalg.mat_vec(gx, a, ix)
        reps.append((a + va, exp[dot(va[:m], va[m:])],
                     model.ysum[yindex[va[m:]]]))
    shift = [1 << (model.slot_bits * e) for e in range(p)]
    half = (p + 1) // 2
    n = len(model.ypoints)
    rows = []
    for y in model.ypoints:
        vy = linalg.mat_vec(gy, y, ix)
        cy = y + ix.neg(vy[m:] + vy[:m])
        ey = exp[dot(vy[:m], vy[m:])]
        col = yindex[vy[m:]]
        row = [0] * n
        for ca, ea, cols in reps:
            row[cols[col]] += shift[(exp[dot(ca, cy)] - ea - ey) *
                                    half % p]
        rows.append(model.pack(row))
    return key, tuple(rows)


def _entry_cases():
    """(field, m, elements): every Sp2 element over F_3, F_7 and F_9, every
    w_S and seeded random words over F_25 at m = 1 and over F_3 and F_5 at
    m = 2.  (All 15,600 of Sp2(F_25) take the reference about 35 s a
    twist; they were compared once when the tables landed.)"""
    rng = random.Random(3434)
    cases = []
    for q, f in ((3, 1), (7, 1), (3, 2)):
        field = FqField(q, f)
        cases.append((field, 1, enumerate_sp2(SympSpace(field, 1))))
    for field, m, count in ((FqField(5, 2), 1, 600), (FqField(3), 2, 150),
                            (FqField(5), 2, 60)):
        sp = SympSpace(field, m)
        cases.append((field, m, [sp.w_subset(set(s)) for k in range(m + 1)
                                 for s in itertools.combinations(range(m), k)]
                      + [random_symplectic(sp, rng, length=8)
                         for _ in range(count)]))
    return cases


def test_count_entry_matches_reference():
    # the table-driven build against the per-point body it replaced, on
    # the (j, x-class) key and every packed row, at twist 1 and twist 2
    for field, m, elements in _entry_cases():
        js = set()
        for twist in (1, 2):
            model = WeilContext(SympSpace(field, m),
                                AdditiveCharacter(field, twist=twist)).counts
            for g in map(lower, elements):
                got = model.entry(g)
                assert got == entry_reference(model, g), (field, twist, g)
                js.add(got[0][0])
        assert js == set(range(m + 1)), (field, m)


def test_count_entry_reads_tables_per_point(monkeypatch):
    # a build makes one x_data call (answered here, so the counters see
    # only the rest of the build) and besides it no mat_vec and no dot:
    # g^-1 lead is read off the columns of g^-1, whatever the number of
    # Y-points and representatives: 25 and up to 25 over Sp2(F_25), 9 and
    # 9 at m = 2
    cases = [(FqField(5, 2), 1), (FqField(3), 2)]
    for field, m in cases:
        sp = SympSpace(field, m)
        model = WeilContext(sp, AdditiveCharacter(field)).counts
        model.entry(lower(sp.identity()))   # builds the point tables
        rng = random.Random(5)
        elements = [sp.w_subset(set(range(m)))] + \
            [random_symplectic(sp, rng, length=6) for _ in range(10)]
        for g in map(lower, elements):
            xd = metaplectic.x_data(model.space, g)
            calls = {"x_data": 0, "mat_vec": 0, "dot": 0}
            real_mat_vec, real_dot = linalg.mat_vec, type(field.indices).dot

            def x_data(space, h):
                calls["x_data"] += 1
                return xd

            def mat_vec(a, v, fld):
                calls["mat_vec"] += 1
                return real_mat_vec(a, v, fld)

            def dot(self, u, v):
                calls["dot"] += 1
                return real_dot(self, u, v)
            with monkeypatch.context() as mp:
                mp.setattr(metaplectic, "x_data", x_data)
                mp.setattr(linalg, "mat_vec", mat_vec)
                mp.setattr(type(field.indices), "dot", dot)
                key, _ = model.entry(g)
            assert calls["x_data"] == 1
            assert key[0] == len(xd[0])
            assert calls["mat_vec"] == calls["dot"] == 0


def _check_cases():
    """(space, contexts, pairs) on the spaces the packed check is sized
    for: Sp4(F_3) over Z[zeta_3] and F_4, Sp2(F_7) over Z[zeta_7] and F_8,
    and Sp2(F_9) under psi twists 1 and 2; seeded pairs."""
    rng = random.Random(1717)
    f3, f7, f9 = FqField(3), FqField(7), FqField(3, 2)
    sp4, sp2, sp9 = SympSpace(f3, 2), SympSpace(f7, 1), SympSpace(f9, 1)
    words = [random_symplectic(sp4, rng, length=8) for _ in range(80)]
    g7, g9 = enumerate_sp2(sp2), enumerate_sp2(sp9)
    return [
        (sp4, [WeilContext(sp4, AdditiveCharacter(f3)),
               WeilContext(sp4, AdditiveCharacter(f3, FiniteField(2, 2)))],
         list(zip(words[::2], words[1::2]))),
        (sp2, [WeilContext(sp2, AdditiveCharacter(f7)),
               WeilContext(sp2, AdditiveCharacter(f7, FiniteField(2, 3)))],
         [(rng.choice(g7), rng.choice(g7)) for _ in range(60)]),
        (sp9, [WeilContext(sp9, AdditiveCharacter(f9)),
               WeilContext(sp9, AdditiveCharacter(f9, twist=2))],
         [(rng.choice(g9), rng.choice(g9)) for _ in range(60)]),
    ]


def _ring_matrix(ctx, counts):
    """phi(N) as a dense matrix over R, N given by its packed rows."""
    phi, zero = ctx._phi, ctx.zero()
    return tuple(tuple(phi(c) if c else zero for c in ctx.counts.unpack(row))
                 for row in counts)


def test_cocycle_operator_matches_dense_ratio():
    # the packed Z[zeta_p] check against the entrywise one in R it
    # replaced: mu1 mu2 mu12^-1 times the scalar_ratio of the dense
    # phi(N1) phi(N2) and phi(N12)
    for space, ctxs, pairs in _check_cases():
        for ctx in ctxs:
            for g1, g2 in pairs:
                mu1, n1 = metaplectic.sigma_counts(ctx, lower(g1))
                mu2, n2 = metaplectic.sigma_counts(ctx, lower(g2))
                mu12, n12 = metaplectic.sigma_counts(
                    ctx, lower(linalg.mat_mul(g1, g2)))
                dense = [_ring_matrix(ctx, n) for n in (n1, n2, n12)]
                c = scalar_ratio(linalg.mat_mul(dense[0], dense[1]),
                                 dense[2], ctx.zero())
                want = mu1 * mu2 * mu12.inv() * c
                got = cocycle_operator(ctx, g1, g2)
                assert got == want and repr(got) == repr(want)
            # mu by (j, x(g) class): at most 2(m + 1) scalars
            assert len(ctx._mu) <= 2 * (space.m + 1)


def _slots(x, bits, p):
    return [(x >> (bits * e)) & ((1 << bits) - 1) for e in range(p)]


def reference_product(model, n1, n2):
    """N1 N2 for count matrices given as rows of packed entries: each
    entry one packed dot product (a product of packed ints is the product
    of the count polynomials), folded mod x^p - 1 once."""
    bits = model.slot_bits * model.p
    low = (1 << bits) - 1
    cols = tuple(zip(*n2))
    out = []
    for row in n1:
        sums = [sum(x * y for x, y in zip(row, col)) for col in cols]
        out.append(tuple((s & low) + (s >> bits) for s in sums))
    return tuple(out)


def reference_check(model, n1, n2, n12, g1, g2):
    """CountModel.check entry by entry on rows of packed entries: the
    list of (P[e], N[e]) from e0 on, or the RuntimeError it raises."""
    w, ones = model.slot_bits, model._ones
    mask = (1 << w) - 1
    bits = w * model.p
    low = (1 << bits) - 1
    offset = ones << (w - 1)
    n = len(n12)
    flat_p = [x for row in reference_product(model, n1, n2) for x in row]
    flat_n = [x for row in n12 for x in row]
    e0 = next((e for e, x in enumerate(flat_n) if x != (x & mask) * ones),
              None)
    if e0 is None:
        raise RuntimeError("cocycle operator is not scalar: g1 = %s, "
                           "g2 = %s, sigma(g1 g2) is zero" % (g1, g2))
    p0, c0 = flat_p[e0], flat_n[e0]
    for e, (pe, ce) in enumerate(zip(flat_p, flat_n)):
        if not (pe or ce):
            continue
        a = pe * c0
        b = p0 * ce
        t = (a & low) + (a >> bits) - (b & low) - (b >> bits) + offset
        if t != (t & mask) * ones:
            raise RuntimeError(
                "cocycle operator is not scalar: g1 = %s, g2 = %s, "
                "entry (%d, %d)" % (g1, g2, e // n, e % n))
    return list(zip(flat_p[e0:], flat_n[e0:]))


def _unpacked(model, packed):
    return tuple(tuple(model.unpack(row)) for row in packed)


def test_packed_check_matches_reference():
    # the row-packed check against the entrywise one it replaced: the same
    # (P[e], N[e]) from e0 on, and the same scalar, built as before from
    # mu1 mu2 mu12^-1 and the first entry that phi maps to a nonzero.  A
    # second sweep over the same context answers every pair from its
    # table: the stored scalar, equal and repr-equal to the expression
    for space, ctxs, pairs in _check_cases():
        for ctx in ctxs:
            model = ctx.counts
            scalars = []
            for g1, g2 in pairs:
                sig = [metaplectic.sigma_counts(ctx, lower(g))
                       for g in (g1, g2, linalg.mat_mul(g1, g2))]
                (mu1, n1), (mu2, n2), (mu12, n12) = sig
                want = reference_check(model, *(_unpacked(model, n)
                                                for n in (n1, n2, n12)),
                                       g1, g2)
                assert list(model.check(n1, n2, n12, g1, g2)) == want
                phi = ctx._phi
                pe, ce = next((pe, ce) for pe, ce in want
                              if phi(ce) != ctx.zero())
                scalar = mu1 * mu2 * mu12.inv() * (phi(pe) * phi(ce).inv())
                got = cocycle_operator(ctx, g1, g2)
                assert got == scalar and repr(got) == repr(scalar)
                scalars.append(scalar)
            # the scalars by their three mu: at most (2(m + 1))^3 triples
            assert 0 < len({k[:3] for k in ctx._scalars}) <= \
                (2 * (space.m + 1)) ** 3
            held = dict(ctx._scalars)
            for (g1, g2), scalar in zip(pairs, scalars):
                got = cocycle_operator(ctx, g1, g2)
                assert got == scalar and repr(got) == repr(scalar)
                assert any(got is v for v in held.values())
            assert ctx._scalars == held


def test_warm_cocycle_makes_no_ring_arithmetic(monkeypatch):
    # on a second sweep every scalar is a read of the context's table: no
    # product or inverse in Z[zeta_7] or F_8.  Each element of Sp2(F_7)
    # is g1 against 12 seeded g2, which meets every entry of both tables
    f7 = FqField(7)
    sp = SympSpace(f7, 1)
    ctxs = [WeilContext(sp, AdditiveCharacter(f7)),
            WeilContext(sp, AdditiveCharacter(f7, FiniteField(2, 3)))]
    group = enumerate_sp2(sp)
    rng = random.Random(4343)
    pairs = [(g1, g2) for g1 in group for g2 in rng.sample(group, 12)]
    first = [cocycle_operator(ctx, g1, g2) for g1, g2 in pairs
             for ctx in ctxs]
    calls = []
    for cls, name in ((Cyc, "__mul__"), (Cyc, "inv"), (FFElt, "__mul__")):
        real = getattr(cls, name)

        def counted(self, *args, real=real, name=name):
            calls.append(name)
            return real(self, *args)
        monkeypatch.setattr(cls, name, counted)
    again = [cocycle_operator(ctx, g1, g2) for g1, g2 in pairs
             for ctx in ctxs]
    assert calls == []
    assert again == first and all(c == ctx.one() for c, ctx in
                                  zip(again, itertools.cycle(ctxs)))
    assert [len(ctx._scalars) for ctx in ctxs] == [24, 4]


def test_scalar_table_is_capped(monkeypatch):
    # the table keeps at most SIGMA_CACHE_SIZE scalars, the oldest going
    # first; a cap of 2 gives the same values, repr for repr, over an
    # Sp2(F_5) sweep that meets 24 (Z[zeta_5]) and 4 (F_16) of them.  The
    # first sweep builds every count form of Sp2(F_5), so the count cache,
    # capped by the same constant, meets no new element under the cap
    f5 = FqField(5)
    sp = SympSpace(f5, 1)
    psis = [AdditiveCharacter(f5), AdditiveCharacter(f5, FiniteField(2, 4))]
    group = enumerate_sp2(sp)
    rng = random.Random(5151)
    pairs = [(g1, g2) for g1 in group for g2 in rng.sample(group, 10)]
    for psi, size in zip(psis, (24, 4)):
        ctx = WeilContext(sp, psi)
        want = [repr(cocycle_operator(ctx, g1, g2)) for g1, g2 in pairs]
        assert len(ctx._scalars) == size
        monkeypatch.setattr(metaplectic, "SIGMA_CACHE_SIZE", 2)
        capped = WeilContext(sp, psi)
        got = []
        for g1, g2 in pairs:
            got.append(repr(cocycle_operator(capped, g1, g2)))
            assert 0 < len(capped._scalars) <= 2
        assert got == want
        monkeypatch.undo()


def _warm_sp2_f3():
    """A context over Z[zeta_3] that has checked all 576 pairs of Sp2(F_3),
    with the group and the pairs in split_checks' order."""
    f3 = FqField(3)
    space = SympSpace(f3, 1)
    group = enumerate_sp2(space)
    pairs = [(g1, g2) for g1 in group for g2 in group]
    ctx = WeilContext(space, AdditiveCharacter(f3))
    assert split_checks(ctx, pairs) == {"multiplicative": True,
                                        "pairs": len(pairs)}
    return ctx, group, pairs


def test_warm_table_keeps_the_negated_mu_fault(monkeypatch):
    # sigma(t) with its mu negated, on a context whose table holds every
    # scalar of Sp2(F_3): the first pair with t an odd number of times
    # among g1, g2 and g1 g2 fails, as on a cold context, since the table
    # is keyed by the mu that sigma_counts returns
    warm, group, pairs = _warm_sp2_f3()
    held = dict(warm._scalars)
    for t in (group[5], group[17]):
        real = metaplectic.sigma_counts

        def negated(ctx, g, t=lower(t)):
            mu, counts = real(ctx, g)
            return (-mu, counts) if g == t else (mu, counts)
        monkeypatch.setattr(metaplectic, "sigma_counts", negated)
        first = next(k for k, (g1, g2) in enumerate(pairs)
                     if [g1, g2, linalg.mat_mul(g1, g2)].count(t) % 2)
        want = {"multiplicative": False, "pairs": first}
        cold = WeilContext(warm.space, warm.psi)
        assert split_checks(warm, pairs) == want
        assert split_checks(cold, pairs) == want
        monkeypatch.undo()
        assert split_checks(warm, pairs)["multiplicative"] is True
    assert all(warm._scalars[k] is v for k, v in held.items())


def test_warm_table_keeps_the_corrupted_count_fault():
    # one slot more at a nonzero entry of a cached N1, N2 or N12, after
    # every pair of Sp2(F_3) has filled the table: check still refuses
    # the pair, naming it, before the table is read
    warm, _, pairs = _warm_sp2_f3()
    model = warm.counts
    w, rng, done = model.slot_bits, random.Random(6161), 0
    for g1, g2 in pairs:
        g12 = linalg.mat_mul(g1, g2)
        if len({g1, g2, g12}) < 3:
            continue
        for g in (g1, g2, g12):
            key, packed = model.entry(lower(g))
            counts = [model.unpack(row) for row in packed]
            n = len(counts)
            for e in range(n * n):
                if not counts[e // n][e % n]:
                    continue
                bad = [list(row) for row in counts]
                bad[e // n][e % n] += 1 << (w * rng.randrange(3))
                model.cache[lower(g)] = (key, tuple(map(model.pack, bad)))
                with pytest.raises(RuntimeError) as err:
                    cocycle_operator(warm, g1, g2)
                assert str(err.value).startswith(
                    "cocycle operator is not scalar: g1 = %s, g2 = %s, "
                    % (g1, g2))
            model.cache[lower(g)] = (key, packed)
        assert cocycle_operator(warm, g1, g2) == warm.one()
        done += 1
        if done == 6:
            break
    assert done == 6


def test_cocycle_check_refuses_each_corrupted_entry_of_n2():
    # one slot more at any nonzero entry of N2, which feeds the packed row
    # product, must be refused as the entrywise reference refuses it: the
    # same pair, and the same entry when one is named
    rng = random.Random(3141)
    for space, ctxs, pairs in _check_cases()[:2]:
        model = ctxs[0].counts
        w, p = model.slot_bits, space.field.p
        done = 0
        for g1, g2 in pairs:
            g12 = linalg.mat_mul(g1, g2)
            if len({g1, g2, g12}) < 3:
                continue
            key, packed = model.entry(lower(g2))
            counts = [model.unpack(row) for row in packed]
            n1 = _unpacked(model,
                           metaplectic.sigma_counts(ctxs[0], lower(g1))[1])
            n12 = _unpacked(model,
                            metaplectic.sigma_counts(ctxs[0], lower(g12))[1])
            n = len(counts)
            for e in range(n * n):
                if not counts[e // n][e % n]:
                    continue
                bad = [list(row) for row in counts]
                bad[e // n][e % n] += 1 << (w * rng.randrange(p))
                with pytest.raises(RuntimeError) as ref:
                    reference_check(model, n1, bad, n12, g1, g2)
                model.cache[lower(g2)] = (key, tuple(map(model.pack, bad)))
                for ctx in ctxs:
                    with pytest.raises(RuntimeError) as err:
                        cocycle_operator(ctx, g1, g2)
                    assert str(err.value).startswith(
                        "cocycle operator is not scalar: g1 = %s, g2 = %s, "
                        % (g1, g2))
                    assert str(err.value) == str(ref.value)
            model.cache[lower(g2)] = (key, packed)
            for ctx in ctxs:
                assert cocycle_operator(ctx, g1, g2) == ctx.one()
            done += 1
            if done == 6:
                break
        assert done == 6


def test_cocycle_check_refuses_each_corrupted_entry():
    # one slot more at any nonzero entry of N12 must be refused, with the
    # pair and the entry named; g1, g2 and g1 g2 are distinct, so N12 is
    # not also N1's or N2's cache entry
    rng = random.Random(2718)
    for space, ctxs, pairs in _check_cases()[:2]:
        model = ctxs[0].counts
        w, p = model.slot_bits, space.field.p
        done = 0
        for g1, g2 in pairs:
            g12 = linalg.mat_mul(g1, g2)
            if len({g1, g2, g12}) < 3:
                continue
            key, packed = model.entry(lower(g12))
            counts = [model.unpack(row) for row in packed]
            metaplectic.sigma_counts(ctxs[0], lower(g1))
            metaplectic.sigma_counts(ctxs[0], lower(g2))
            n = len(counts)
            flat = [x for row in counts for x in row]
            e0 = next(e for e, x in enumerate(flat)
                      if len(set(_slots(x, w, p))) > 1)
            for e, x in enumerate(flat):
                if not x:
                    continue
                bad = [list(row) for row in counts]
                bad[e // n][e % n] += 1 << (w * rng.randrange(p))
                model.cache[lower(g12)] = (key,
                                           tuple(map(model.pack, bad)))
                for ctx in ctxs:
                    with pytest.raises(RuntimeError) as err:
                        cocycle_operator(ctx, g1, g2)
                    msg = str(err.value)
                    assert msg.startswith(
                        "cocycle operator is not scalar: g1 = %s, g2 = %s, "
                        % (g1, g2))
                    if e > e0:
                        assert msg.endswith("entry (%d, %d)"
                                            % (e // n, e % n))
            model.cache[lower(g12)] = (key, packed)
            for ctx in ctxs:
                assert cocycle_operator(ctx, g1, g2) == ctx.one()
            done += 1
            if done == 6:
                break
        assert done == 6


def test_fresh_cocycles_make_no_ffelt(monkeypatch):
    # past one operation per (j, x(g) class) key, a fresh Sp4(F_3) pair
    # runs on raw field indices end to end: Bruhat, g^-1, g1 g2 and the
    # cache keys make no FFElt, and the count model is keyed by int tuples
    f3 = FqField(3)
    sp = SympSpace(f3, 2)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    rng = random.Random(2424)
    words = [random_symplectic(sp, rng, length=8) for _ in range(600)]
    for g1, g2 in zip(words[:200:2], words[1:200:2]):
        cocycle_operator(ctx, g1, g2)
    assert len(ctx._mu) == 2 * (sp.m + 1)
    made = []
    init = FFElt.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)
    monkeypatch.setattr(FFElt, "__init__", counted)
    fresh = list(zip(words[200::2], words[201::2]))
    assert len(fresh) == 200
    for g1, g2 in fresh:
        assert cocycle_operator(ctx, g1, g2) == ctx.one()
    assert made == []
    assert all(type(x) is int for g in ctx._sigma_cache for row in g
               for x in row)


def test_sigma_refuses_a_matrix_over_another_field():
    # raw indices carry no field, so the boundary checks each entry's
    f3, f9 = FqField(3), FqField(3, 2)
    sp = SympSpace(f3, 1)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    g9 = SympSpace(f9, 1).w_subset({0})
    with pytest.raises(RingMismatchError):
        cocycle_operator(ctx, g9, g9)
    with pytest.raises(RingMismatchError):
        sigma(ctx, g9)
    with pytest.raises(RingMismatchError):
        bruhat_decompose(sp, g9)


def test_shared_model_forms_row_products_once_per_pair(monkeypatch):
    # sp2-reuse's two contexts, over Z[zeta_7] and F_8, share one count
    # model: the second check of a pair reuses the row products of the
    # first, and both scalars equal the ones checked afresh
    f7 = FqField(7)
    sp = SympSpace(f7, 1)
    ctxs = [WeilContext(sp, AdditiveCharacter(f7)),
            WeilContext(sp, AdditiveCharacter(f7, FiniteField(2, 3)))]
    model = ctxs[0].counts
    assert ctxs[1].counts is model
    group = enumerate_sp2(sp)
    rng = random.Random(77)
    pairs = [(rng.choice(group), rng.choice(group)) for _ in range(60)]
    fresh = []
    for g1, g2 in pairs:
        for ctx in ctxs:
            model._last = None
            fresh.append(cocycle_operator(ctx, g1, g2))
    formed = []
    real = metaplectic.CountModel._products

    def counted(self, n1, n2):
        formed.append(n1)
        return real(self, n1, n2)
    monkeypatch.setattr(metaplectic.CountModel, "_products", counted)
    got = [cocycle_operator(ctx, g1, g2) for g1, g2 in pairs for ctx in ctxs]
    assert got == fresh and list(map(repr, got)) == list(map(repr, fresh))
    assert len(formed) == len(pairs)


def test_contexts_share_one_count_model_per_twist():
    f5 = FqField(5)
    sp = SympSpace(f5, 1)
    ctx1 = WeilContext(sp, AdditiveCharacter(f5))
    ctx16 = WeilContext(sp, AdditiveCharacter(f5, FiniteField(2, 4)))
    ctx2 = WeilContext(sp, AdditiveCharacter(f5, twist=2))
    again = WeilContext(sp, AdditiveCharacter(f5))
    assert ctx1.counts is ctx16.counts is again.counts
    assert ctx2.counts is not ctx1.counts
    assert ctx1._sigma_cache is ctx1.counts.cache
    # interleaved builds: each twist's dense sigma matches its own psi
    for g in random.Random(11).sample(enumerate_sp2(sp), 30):
        for ctx in (ctx2, ctx1, ctx16):
            assert sigma(ctx, g) == dense_sigma_reference(ctx, g)
    # a second space, equal in field and m, gets the same model
    other = WeilContext(SympSpace(f5, 1), AdditiveCharacter(f5))
    assert other.counts is ctx1.counts


def test_point_tables_are_built_once_per_model(monkeypatch):
    # E[u][v] = exp[u . v] sits in the model beside ysum, n x n like it,
    # with the n x q table of multiples: the contexts over Z[zeta_3] and
    # F_4 on F_3 at m = 2 share one model, so their builds make the tables
    # once between them, on the first build
    built = []
    real = metaplectic.CountModel._point_tables

    def counted(model):
        built.append(model)
        return real(model)
    monkeypatch.setattr(metaplectic.CountModel, "_point_tables", counted)
    f3 = FqField(3)
    sp = SympSpace(f3, 2)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    ctx4 = WeilContext(sp, AdditiveCharacter(f3, FiniteField(2, 2)))
    model = ctx.counts
    assert ctx4.counts is model and built == []
    rng = random.Random(6)
    for g in [random_symplectic(sp, rng, length=6) for _ in range(8)]:
        for c in (ctx, ctx4):
            sigma(c, g)
    assert built == [model]
    ix, pts = f3.indices, model.ypoints
    assert model._dot_exps == tuple(tuple(model.exp[ix.dot(u, v)]
                                          for v in pts) for u in pts)
    assert len(model._dot_exps) == len(model.ysum) == 9
    assert model._mults == tuple(tuple(model.yindex[tuple(
        (c * x) % 3 for x in u)] for c in range(3)) for u in pts)


def test_count_model_outlives_its_space(monkeypatch):
    # the model is keyed by (field, m, twist), not by the space: a context
    # on a new space finds the counts built before, with no count build
    # (no x_data call; the first context's five builds make five)
    seen = []
    real = metaplectic.x_data

    def counted(space, g):
        seen.append(g)
        return real(space, g)
    monkeypatch.setattr(metaplectic, "x_data", counted)
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    group = enumerate_sp2(sp)[:5]
    want = [sigma(ctx, g) for g in group]
    assert len(seen) == 5
    seen.clear()
    model = ctx.counts
    del ctx, sp
    gc.collect()
    sp = SympSpace(f3, 1)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    assert ctx.counts is model
    assert [sigma(ctx, g) for g in group] == want
    assert seen == []
    # another m or another twist gets its own model
    assert WeilContext(SympSpace(f3, 2), AdditiveCharacter(f3)).counts \
        is not model
    assert WeilContext(sp, AdditiveCharacter(f3, twist=2)).counts \
        is not model


# ---------------------------------------------------------------------------
# M[g]
# ---------------------------------------------------------------------------

def test_m_bracket_identity_scalar():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    m = m_bracket(ctx, sp.identity())
    n = len(ctx.counts.ypoints)
    diag = m[0][0]
    assert not diag.is_zero()
    for i in range(n):
        for j in range(n):
            assert m[i][j] == (diag if i == j else ctx.zero())


def test_m_bracket_intertwining_and_schur(rng):
    for q in (3, 5):
        fq = FqField(q)
        sp = SympSpace(fq, 1)
        ctx = WeilContext(sp, AdditiveCharacter(fq))
        group = enumerate_sp2(sp)
        model = SchrodingerModel(sp, ctx.psi)
        for _ in range(25):
            g = group[rng.randrange(len(group))]
            m = m_bracket(ctx, g)
            # intertwining law in the section's convention
            for hv in ((1, 0), (0, 1)):
                h = delta(sp, tuple(fq.element(x) for x in hv))
                lhs = linalg.mat_mul(m, model.rho(h).to_dense(ctx.zero()))
                hg = delta(sp, linalg.mat_vec(g, h.w, fq))
                rhs = linalg.mat_mul(model.rho(hg).to_dense(ctx.zero()), m)
                assert lhs == rhs
            r = scalar_ratio(m, sigma(ctx, g), ctx.zero())
            assert r is not None and not r.is_zero()


def test_m_bracket_commuting_pairs(rng):
    for q in (3, 5):
        fq = FqField(q)
        sp = SympSpace(fq, 1)
        ctx = WeilContext(sp, AdditiveCharacter(fq))
        group = enumerate_sp2(sp)
        done = 0
        while done < 25:
            g1 = group[rng.randrange(len(group))]
            k = rng.randrange(1, 5)
            g2 = sp.identity()
            for _ in range(k):
                g2 = linalg.mat_mul(g2, g1)
            if linalg.mat_mul(g1, g2) != linalg.mat_mul(g2, g1):
                continue
            m1, m2 = m_bracket(ctx, g1), m_bracket(ctx, g2)
            assert linalg.mat_mul(m1, m2) == linalg.mat_mul(m2, m1)
            done += 1


# ---------------------------------------------------------------------------
# Leray decomposition and the closed-form cocycle
# ---------------------------------------------------------------------------

# the full Leray decomposition, as the library built it before it stopped at
# rho: the reference for S, S1, S2 and rho, and the p, p1 and p2 that the
# digests and the closed form read off the factors

class LerayData(NamedTuple):
    """The reference's data; the name keeps the digests' repr."""
    s: tuple
    s1: tuple
    s2: tuple
    rho: tuple
    p: tuple
    p1: tuple
    p2: tuple


def mul_w_inv(space, g, subset):
    """g w_S^-1: columns i and m+i become -g f_i and g e_i for i in S."""
    m, neg = space.m, space.field.neg
    cols = list(zip(*g))
    for k in subset:
        cols[k], cols[m + k] = neg(cols[m + k]), cols[k]
    return tuple(zip(*cols))


def leray_reference(space, g1, g2):
    """g1 = p1 w_{S u S1} u_rho p^{-1}, g2 = p w_{S u S2} p2, built from the
    triple (X, g1^{-1}X, g2 X) on raw indices over F_q (rho, p, p1 and p2
    come back as FFElt matrices), with the f' half of p solved block by
    block (README)."""
    sp, gs = metaplectic._lowered(space, g1, g2)
    ld = _leray_full(sp, *gs)
    return ld if sp is space else LerayData(*ld[:3],
                                            *map(sp.field.lift, ld[3:]))


def _leray_full(space, g1, g2):
    """leray_reference's data in the scalars of space.field; the
    factorization is verified by exact re-multiplication."""
    field = space.field
    m = space.m
    if not (space.is_symplectic(g1) and space.is_symplectic(g2)):
        raise RuntimeError("Leray: g1 = %s or g2 = %s is not symplectic"
                           % (g1, g2))
    zero, one = field.zero(), field.one()
    # L1 = g1^-1 X is spanned by the columns (D1^T; -C1^T), L2 = g2 X by
    # (A2; C2), and <g1^-1 e_i, g2 e_j> is entry ij of C12, the C block of
    # g1 g2; every subspace below is read off these blocks
    full = space.identity()     # e_1 .. e_m, f_1 .. f_m
    xb = full[:m]
    l1 = [r[m:] + field.neg(r[:m]) for r in g1[m:]]
    g2x = tuple(row[:m] for row in g2)
    l2 = list(linalg.transpose(g2x))
    c12 = linalg.mat_mul(g1[m:], g2x, field)
    # L1 cap L2 = -g2 (ker C12; 0), and its part in X is A2 ker [C12; C2]:
    # A2 K k for the k in ker C2 K, K the basis of ker C12 (none if it is 0)
    ker12 = linalg.nullspace(c12, field)
    inter12 = [field.neg(linalg.mat_vec(g2x, k, field)) for k in ker12]
    kernel = ()
    if ker12:
        c2k = linalg.transpose([linalg.mat_vec(g2x[m:], k, field)
                                for k in ker12])
        kernel = [linalg.mat_vec(linalg.transpose(ker12), k, field)
                  for k in linalg.nullspace(c2k, field)]
    echelon = metaplectic._echelon_kernel_image(g2x[:m], kernel, field)
    a_basis = [field.neg(echelon[f]) + (zero,) * m for f in sorted(echelon)]
    x_l1 = metaplectic._x_meet(space, l1)
    x_l2 = metaplectic._x_meet(space, l2)
    # L1 + L2 has the basis L1 and the columns of L2 at the pivots of C12:
    # the last nonzero coordinate of each kernel vector is a free column
    free = {max(k for k, x in enumerate(v) if x) for v in ker12}
    z_basis = metaplectic._x_meet(
        space, l1 + [l2[k] for k in range(m) if k not in free])
    # dim(X - gX cap X) = rank C for g = [[A, B], [C, D]]
    j1, j2, j12 = m - len(x_l1), m - len(x_l2), m - len(inter12)
    t = len(a_basis)
    l_ov = m - t - j12
    ns = j1 + j2 + j12 + 2 * t - 2 * m
    n1, n2 = j1 - ns, j2 - ns
    if ns < 0 or l_ov < 0 or n1 < l_ov or n2 < l_ov:
        raise RuntimeError("Leray: inconsistent invariants")
    # index layout
    s_idx = list(range(ns))
    p12_idx = list(range(ns, ns + l_ov))
    p1_idx = list(range(ns + l_ov, ns + n1))                 # S1 only
    p2_idx = list(range(ns + n1, ns + n1 + (n2 - l_ov)))     # S2 only
    c_idx = list(range(ns + n1 + n2 - l_ov, m))
    s1 = tuple(sorted(p12_idx + p1_idx))
    s2 = tuple(sorted(p12_idx + p2_idx))
    # e' vectors: one greedy pass over the groups in this order, each
    # vector kept when it is not in the span of those before it
    groups = ((c_idx, a_basis), (p2_idx, x_l1), (p1_idx, x_l2),
              (s_idx, z_basis), (p12_idx, xb))
    vecs = [v for _, vs in groups for v in vs]
    piv = linalg.rref(linalg.transpose([v[:m] for v in vecs]), field)[1]
    e = [None] * m
    start = 0
    for idx, vs in groups:
        kept = [vecs[c] for c in piv if start <= c < start + len(vs)]
        if len(kept) != len(idx):
            raise RuntimeError("Leray: e-basis construction failed")
        for i, v in zip(idx, kept):
            e[i] = v
        start += len(vs)
    # f' vectors, one rref per block (but the C block, whose `extra` grows)
    f = [None] * m

    def solve_block(idx, span, extra, failure):
        # f_i in span with <e_k, f_i> = delta_ki and <w, f_i> = 0 for w in
        # extra, the solution zero off the pivots; returns its coordinates
        if not idx:
            return []
        rows = [tuple(space.pairing(u, b) for b in span) for u in e + extra]
        rhs = [[one if k == i else zero for k in range(m)] +
               [zero] * len(extra) for i in idx]
        sols = linalg.solve_columns(linalg.mat(rows), rhs, field)
        if sols is None:
            raise RuntimeError(failure)
        span_t = linalg.transpose(span)
        for i, sol in zip(idx, sols):
            f[i] = linalg.mat_vec(span_t, sol, field)
        return sols
    bs = []
    if s_idx:
        # e_i = a_i + b_i with a_i in L1 and b_i in L2, for i in S
        sols = linalg.solve_columns(linalg.transpose(linalg.mat(l1 + l2)),
                                    [e[i] for i in s_idx], field)
        if sols is None:
            raise RuntimeError("Leray: Z-decomposition failed")
        bs = [linalg.mat_vec(g2x, sol[len(l1):], field) for sol in sols]
    # S u P12 in span(b) + L1 cap L2: L1 cap L2 pairs to zero with every e'
    # outside P12, so rho is read off the b-coordinates of the S solutions
    coords = solve_block(s_idx + p12_idx, bs + list(inter12), [],
                         "Leray: S and P12 solve failed")
    c_rho = linalg.transpose([c[:ns] for c in coords[:ns]])
    # symmetry of rho is forced; verify
    if c_rho != linalg.transpose(c_rho):
        raise RuntimeError("Leray: rho not symmetric")
    # on L1, <f_s, v> = sum_k rho[k][s] <e_k, v> for s in S (a_k and the
    # L1 cap L2 part pair to zero with L1), so the e' rows already make
    # the S-block f' vectors orthogonal to the P1 solutions
    solve_block(p1_idx, list(l1), [], "Leray: P1 solve failed")
    solve_block(p2_idx, list(l2), [f[k] for k in p1_idx],
                "Leray: P2 solve failed")
    for i in c_idx:
        solve_block([i], full, [v for v in f if v is not None],
                    "Leray: C solve failed")
    p = linalg.transpose(linalg.mat(e + f))
    if not space.is_symplectic(p) or not space.in_parabolic(p):
        raise RuntimeError("Leray: p is not in P(X)")
    t1 = set(s_idx) | set(s1)
    t2 = set(s_idx) | set(s2)
    pinv = space.inv(p)
    # u_rho = [[I, r], [0, I]] with rho on S x S of r, and u_rho^-1 = u_{-rho}
    pad = (zero,) * (m - ns)
    r = [row + pad for row in c_rho] + [(zero,) * m] * (m - ns)
    p2 = space.w_inv_mul(t2, linalg.mat_mul(pinv, g2, field))
    p1 = mul_w_inv(space, space.mul_unipotent(
        linalg.mat_mul(g1, p, field), [field.neg(row) for row in r]), t1)
    if not (space.in_parabolic(p1) and space.in_parabolic(p2)):
        raise RuntimeError("Leray: parabolic factors failed")
    # exact re-multiplication checks
    lhs1 = linalg.mat_mul(space.mul_unipotent(space.mul_w(p1, t1), r),
                          pinv, field)
    lhs2 = linalg.mat_mul(space.mul_w(p, t2), p2, field)
    if lhs1 != g1 or lhs2 != g2:
        raise RuntimeError("Leray: factorization check failed")
    return LerayData(tuple(s_idx), s1, s2, c_rho, p, p1, p2)


def test_leray_parabolic_pair():
    sp = SympSpace(QpField(3), 2)
    p1 = qmat([[1, 0, 2, 1], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    p2 = qmat([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, F(1, 2), 0], [0, 0, 0, 1]])
    ld = leray_decompose(sp, p1, p2)
    assert ld.s == () and ld.s1 == () and ld.s2 == ()


def test_leray_w_w_sl2():
    sp = SympSpace(QpField(3), 1)
    w = qmat([[0, -1], [1, 0]])
    ld = leray_decompose(sp, w, w)
    assert ld.s == () and ld.s1 == (0,) and ld.s2 == (0,)
    assert ld.rho == ()


def test_leray_random_sp4_sp6(rng):
    for m in (2, 3):
        sp = SympSpace(QpField(3), m)
        for _ in range(20 if m == 2 else 8):
            g1 = random_symplectic(sp, rng, length=6, scale=2)
            g2 = random_symplectic(sp, rng, length=6, scale=2)
            ld = leray_reference(sp, g1, g2)  # re-multiplication inside
            assert set(ld.s1) <= set(range(m)) - set(ld.s)
            assert set(ld.s2) <= set(range(m)) - set(ld.s)
            if ld.s:
                rho = linalg.mat(ld.rho)
                assert rho == linalg.transpose(rho)
                assert linalg.det(rho, sp.field) != 0


def _leray_pairs(rng, counts=((1, 160), (2, 80), (3, 40))):
    for field in (QpField(3), QpField(5), QpField(7), FqField(3),
                  FqField(5)):
        for m, count in counts:
            sp = SympSpace(field, m)
            for _ in range(count):
                yield sp, random_symplectic(sp, rng, length=6, scale=2), \
                    random_symplectic(sp, rng, length=6, scale=2)


def _digest_leray(pairs):
    # the sha256 of the reference's repr on every pair, each pair's library
    # block checked against the reference's first four fields
    h = hashlib.sha256()
    for sp, g1, g2 in pairs:
        ref = leray_reference(sp, g1, g2)
        assert tuple(leray_decompose(sp, g1, g2)) == ref[:4], \
            (sp.field, g1, g2)
        h.update(repr(ref).encode() + b"\n")
    return h.hexdigest()


def test_leray_digest():
    # the reference on 1,400 seeded pairs, as the per-vector solves gave it
    # before the solves were batched per block
    assert _digest_leray(_leray_pairs(random.Random(14))) == \
        "b1691d04c6b1f6f178abf0557f3278ea632f90d295b6ff3756cef3dc8878de65"


def _leray_pairs_extension_fields(rng):
    # F_9, F_25, F_7 and Q_11 at m = 1..3, each with g1 = g2 = I and
    # g1 = g2 = w_{all} first
    for field in (FqField(3, 2), FqField(5, 2), FqField(7), QpField(11)):
        for m, count in ((1, 50), (2, 40), (3, 25)):
            sp = SympSpace(field, m)
            w = sp.w_subset(set(range(m)))
            yield sp, sp.identity(), sp.identity()
            yield sp, w, w
            for _ in range(count):
                yield sp, random_symplectic(sp, rng, length=6, scale=2), \
                    random_symplectic(sp, rng, length=6, scale=2)


def test_leray_digest_extension_fields():
    # the reference on 484 pairs, as the e' basis built from subspace
    # intersections and column-space selections gave it
    assert _digest_leray(
        _leray_pairs_extension_fields(random.Random(12))) == \
        "61a0239d1a8eb551358d75f5c00ab967245ac84634306c05932024d56cfdabe5"


def _random_parabolic(sp, rng):
    # diag(a, a^-T) [[I, s], [0, I]] with small random a and symmetric s
    field, m = sp.field, sp.m
    while True:
        a = [[field.element(rng.randrange(-2, 3)) for _ in range(m)]
             for _ in range(m)]
        if linalg.det(a, field):
            break
    s = [[field.element(0)] * m for _ in range(m)]
    for i in range(m):
        for k in range(i, m):
            s[i][k] = s[k][i] = field.element(rng.randrange(-2, 3))
    return sp.mul_unipotent(sp.mul_torus(sp.identity(), a), s)


def rho_on_s(sp, s, rho):
    """The r of u_rho = [[I, r], [0, I]]: rho placed on S x S of an m x m
    zero matrix, its rows and columns in the order of s."""
    r = [[sp.field.zero()] * sp.m for _ in range(sp.m)]
    for a, i in enumerate(s):
        for b, k in enumerate(s):
            r[i][k] = rho[a][b]
    return r


def _leray_pairs_s_and_p12(rng):
    # g1 = p1 w_{S u S1} u_rho p^-1 and g2 = p w_{S u S2} p2 with S and
    # S1 cap S2 both nonempty, as (sp, g1, g2, |S|, |S1 cap S2|); the
    # shapes (m, |S|, |P1|, |P2|) each have |P12| = 1
    for field in (QpField(3), QpField(5), FqField(5), FqField(3, 2)):
        for m, ns, n1, n2 in ((2, 1, 0, 0), (3, 1, 1, 0), (3, 1, 0, 1),
                              (3, 2, 0, 0)):
            sp = SympSpace(field, m)
            for _ in range(15):
                idx = list(range(m))
                rng.shuffle(idx)
                s, p12 = idx[:ns], idx[ns:ns + 1]
                p1 = idx[ns + 1:ns + 1 + n1]
                p2 = idx[ns + 1 + n1:ns + 1 + n1 + n2]
                while True:
                    rho = [[None] * ns for _ in range(ns)]
                    for a in range(ns):
                        for b in range(a, ns):
                            rho[a][b] = rho[b][a] = \
                                field.element(rng.randrange(-3, 4))
                    if linalg.det(rho, field):
                        break
                p, p1m, p2m = (_random_parabolic(sp, rng) for _ in range(3))
                g1 = linalg.mat_mul(sp.mul_unipotent(
                    sp.mul_w(p1m, set(s + p12 + p1)), rho_on_s(sp, s, rho)),
                    sp.inv(p))
                g2 = linalg.mat_mul(sp.mul_w(p, set(s + p12 + p2)), p2m)
                yield sp, g1, g2, ns, 1


def test_leray_digest_s_and_p12():
    # the reference on 240 pairs whose S and S1 cap S2 are both nonempty,
    # as the S block's pairing-matrix inverse and its correction in L1 cap
    # L2 gave it
    pairs = []
    for sp, g1, g2, ns, n12 in _leray_pairs_s_and_p12(random.Random(18)):
        ld = leray_decompose(sp, g1, g2)
        assert (len(ld.s), len(set(ld.s1) & set(ld.s2))) == (ns, n12)
        pairs.append((sp, g1, g2))
    assert _digest_leray(pairs) == \
        "f8206dd62c14f066acfa72b66b6c42a5995b90055aa050a3890e403fd5703066"


def test_leray_makes_no_intersection(monkeypatch):
    # every subspace comes from the blocks of g1, g2 and g1 g2
    def refuse(*_args, **_kw):
        raise AssertionError("Leray used a subspace intersection or "
                             "selection")
    for name in ("intersection", "column_space_basis"):
        monkeypatch.setattr(linalg, name, refuse)
    for sp, g1, g2 in _leray_pairs(random.Random(17),
                                   ((1, 4), (2, 4), (3, 2))):
        leray_decompose(sp, g1, g2)


def test_leray_reduces_c12_once(monkeypatch):
    # C12, the C block of g1 g2 and Leray's first product, reaches rref once
    # (through its nullspace): the pivots that pick the L2 part of L1 + L2
    # are read off that kernel
    products, reduced = [], []
    real_mul, real_rref = linalg.mat_mul, linalg.rref

    def counted_mul(a, b, *fld):
        products.append(real_mul(a, b, *fld))
        return products[-1]

    def counted_rref(a, *fld):
        reduced.append(a)
        return real_rref(a, *fld)
    monkeypatch.setattr(linalg, "mat_mul", counted_mul)
    monkeypatch.setattr(linalg, "rref", counted_rref)
    rng = random.Random(16)
    sp = SympSpace(QpField(5), 2)
    for _ in range(100):
        g1 = random_symplectic(sp, rng)
        g2 = random_symplectic(sp, rng)
        products.clear()
        reduced.clear()
        leray_decompose(sp, g1, g2)
        c12 = products[0]
        assert c12 == tuple(row[:2] for row in real_mul(g1, g2)[2:])
        assert sum(a is c12 for a in reduced) == 1


def test_leray_at_most_eight_rrefs(monkeypatch):
    # ker C12 = 0 makes ker [C12; C2] = 0 with no reduction, and otherwise
    # that kernel is K ker(C2 K) for K the basis of ker C12: over the pairs
    # of test_leray_reduces_c12_once a decomposition averages <= 8 rrefs
    counts = []
    real_rref = linalg.rref

    def counted_rref(a, *fld):
        counts[-1] += 1
        return real_rref(a, *fld)
    rng = random.Random(16)
    sp = SympSpace(QpField(5), 2)
    for _ in range(100):
        g1 = random_symplectic(sp, rng)
        g2 = random_symplectic(sp, rng)
        counts.append(0)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "rref", counted_rref)
            leray_decompose(sp, g1, g2)
    assert sum(counts) <= 8 * len(counts)


def test_leray_one_solve_per_block(monkeypatch):
    # one rref for each nonempty block among the S decomposition and S u
    # P12, and no other: rho comes from the S u P12 solve, not from a
    # matrix inverse, and no f' outside S u P12 is solved for
    calls = []
    real = linalg.solve_columns

    def counted(a, rhs_columns, fld):
        calls.append(len(rhs_columns))
        return real(a, rhs_columns, fld)

    def refuse(*_args, **_kw):
        raise AssertionError("Leray inverted a matrix")
    pairs = list(_leray_pairs(random.Random(15), ((2, 16), (3, 16))))
    monkeypatch.setattr(linalg, "solve_columns", counted)
    monkeypatch.setattr(linalg, "mat_inv", refuse)
    batched = with_s = 0
    for sp, g1, g2 in pairs:
        calls.clear()
        ld = leray_decompose(sp, g1, g2)
        s, s1, s2 = set(ld.s), set(ld.s1), set(ld.s2)
        blocks = [s, s | (s1 & s2)]
        assert len(calls) == sum(map(bool, blocks))
        assert sum(calls) == sum(map(len, blocks))
        batched += max(calls, default=0) > 1
        with_s += bool(s)
    assert batched >= 30 and with_s >= 10


def _product_cases(rng):
    # every S for m = 1..3 over F_5, F_9 and Q_5, on a symplectic g and on a
    # general matrix
    for field in (FqField(5), FqField(3, 2), QpField(5)):
        for m in (1, 2, 3):
            sp = SympSpace(field, m)
            general = linalg.mat(
                [[field.element(rng.randrange(-4, 5)) for _ in range(sp.dim)]
                 for _ in range(sp.dim)])
            for g in (random_symplectic(sp, rng, length=6, scale=3), general):
                for k in range(m + 1):
                    for s in itertools.combinations(range(m), k):
                        yield sp, g, s


def test_weyl_products_match_dense():
    done = 0
    for sp, g, s in _product_cases(random.Random(10)):
        w = sp.w_subset(set(s))
        winv = linalg.mat_inv(w, sp.field)
        assert sp.mul_w(g, set(s)) == linalg.mat_mul(g, w)
        assert mul_w_inv(sp, g, set(s)) == linalg.mat_mul(g, winv)
        assert sp.w_inv_mul(set(s), g) == linalg.mat_mul(winv, g)
        done += 1
    assert done == 3 * 2 * (2 + 4 + 8)


def test_u_rho_product_matches_dense():
    rng = random.Random(11)
    done = 0
    for sp, g, s in _product_cases(rng):
        field, m = sp.field, sp.m
        rho = [[None] * len(s) for _ in s]
        for a in range(len(s)):
            for b in range(a, len(s)):
                rho[a][b] = rho[b][a] = field.element(rng.randrange(-4, 5))
        r = rho_on_s(sp, s, rho)
        z, o = field.zero(), field.one()
        u = linalg.mat([[o if k == i else z for k in range(m)] + r[i]
                        for i in range(m)] +
                       [[z] * m + [o if k == i else z for k in range(m)]
                        for i in range(m)])
        assert sp.mul_unipotent(g, r) == linalg.mat_mul(g, u)
        assert sp.mul_unipotent(g, [field.neg(row) for row in r]) == \
            linalg.mat_mul(g, linalg.mat_inv(u, field))
        done += bool(s)
    assert done == 3 * 2 * (1 + 3 + 7)


def test_generator_products_match_dense():
    # g diag(a, a^-T) and g [[I, s], [0, I]] as column updates against the
    # dense products, on a symplectic g and a general matrix, s with zero
    # columns and the all-zero s among them; over F_q the index view too
    rng = random.Random(21)
    zero_cols = 0
    for field in (FqField(3), FqField(3, 2), QpField(5)):
        z = field.zero()
        for m in (1, 2, 3):
            sp = SympSpace(field, m)
            eye = linalg.identity(field, m)
            general = linalg.mat(
                [[field.element(rng.randrange(-4, 5)) for _ in range(sp.dim)]
                 for _ in range(sp.dim)])
            for g in (random_symplectic(sp, rng, length=6), general):
                for _ in range(4):
                    while True:
                        a = fmat(field, [[rng.randrange(-3, 4)
                                          for _ in range(m)]
                                         for _ in range(m)])
                        if linalg.det(a, field):
                            break
                    ainvt = linalg.transpose(linalg.mat_inv(a, field))
                    torus = linalg.mat([a[i] + (z,) * m for i in range(m)] +
                                       [(z,) * m + ainvt[i]
                                        for i in range(m)])
                    keep = [rng.randrange(2) for _ in range(m)]
                    s = [[z] * m for _ in range(m)]
                    for i in range(m):
                        for k in range(i, m):
                            if keep[i] and keep[k]:
                                s[i][k] = s[k][i] = field.element(
                                    rng.randrange(-3, 4))
                    zero_cols += not all(keep)
                    got = [sp.mul_torus(g, a)]
                    assert got[0] == linalg.mat_mul(g, torus, field)
                    for par in (s, [[z] * m] * m):
                        unip = linalg.mat([eye[i] + tuple(par[i])
                                           for i in range(m)] +
                                          [(z,) * m + eye[i]
                                           for i in range(m)])
                        got.append(sp.mul_unipotent(g, par))
                        assert got[-1] == linalg.mat_mul(g, unip, field)
                    if field.flavor == "padic":
                        assert all(type(x) is Fraction
                                   for h in got for row in h for x in row)
                    else:
                        ix = field.indices
                        spi = SympSpace(ix, m)
                        assert spi.mul_torus(ix.lower(g), ix.lower(a)) == \
                            ix.lower(got[0])
                        assert spi.mul_unipotent(ix.lower(g), ix.lower(s)) \
                            == ix.lower(got[1])
    assert zero_cols >= 20


def test_generator_products_refuse_bad_parameters():
    for field in (FqField(3), FqField(3, 2), QpField(5)):
        sp = SympSpace(field, 2)
        with pytest.raises(ValueError, match="not symmetric"):
            sp.mul_unipotent(sp.identity(), fmat(field, [[0, 1], [2, 0]]))
        with pytest.raises(ZeroDivisionError):
            sp.mul_torus(sp.identity(), fmat(field, [[1, 2], [1, 2]]))


def parabolic_reference(space, a, b=None):
    """[[a, b], [0, a^-T]], checked symplectic: each torus and unipotent
    generator as random_symplectic built it densely before its steps
    became column updates."""
    field, m = space.field, space.m
    ainvt = linalg.transpose(linalg.mat_inv(linalg.mat(a), field))
    if b is None:
        b = [[field.zero()] * m for _ in range(m)]
    g = linalg.mat([tuple(a[i]) + tuple(b[i]) for i in range(m)] +
                   [(field.zero(),) * m + ainvt[i] for i in range(m)])
    assert space.is_symplectic(g)
    return g


def random_symplectic_reference(space, rng, length=6, scale=3):
    """random_symplectic by dense products of checked generators, the same
    rng draws in the same order: the reference for the column steps."""
    field, m = space.field, space.m
    g = space.identity()
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            while True:
                a = [[field.element(rng.randrange(-scale, scale + 1))
                      for _ in range(m)] for _ in range(m)]
                if linalg.det(a, field):
                    break
            step = parabolic_reference(space, a)
        elif kind == 1:
            s = [[field.zero()] * m for _ in range(m)]
            for i in range(m):
                for jj in range(i, m):
                    v = field.element(rng.randrange(-scale, scale + 1))
                    s[i][jj] = v
                    s[jj][i] = v
            step = parabolic_reference(space, linalg.identity(field, m), s)
        else:
            step = space.w_subset({i for i in range(m) if rng.randrange(2)})
        g = linalg.mat_mul(g, step)
    return g


@pytest.mark.parametrize("seed", [105, 106])
def test_random_symplectic_matches_reference(seed):
    for field in (FqField(3), FqField(3, 2), QpField(3), QpField(5),
                  QpField(7)):
        for m in (1, 2):
            sp = SympSpace(field, m)
            rng, ref = random.Random(seed), random.Random(seed)
            for length, scale in ((8, 3), (5, 2)) * 30:
                assert random_symplectic(sp, rng, length, scale) == \
                    random_symplectic_reference(sp, ref, length, scale)
            assert rng.getstate() == ref.getstate()


def test_random_symplectic_checks_each_word_once(monkeypatch):
    # every step is symplectic by construction: one is_symplectic per
    # word, and no dense product by a 2m x 2m generator
    checks, dense = [], []
    real_check, real_mul = SympSpace.is_symplectic, linalg.mat_mul

    def counted_check(self, g):
        checks.append(len(g))
        return real_check(self, g)

    def counted_mul(a, b, *fld):
        if len(a) == 4 or len(b) == 4:
            dense.append((len(a), len(b)))
        return real_mul(a, b, *fld)
    monkeypatch.setattr(SympSpace, "is_symplectic", counted_check)
    monkeypatch.setattr(linalg, "mat_mul", counted_mul)
    for field in (FqField(3), QpField(5)):
        sp = SympSpace(field, 2)
        rng = random.Random(105)
        checks.clear()
        for _ in range(200):
            random_symplectic(sp, rng, length=8)
        assert checks == [4] * 200 and dense == []
    monkeypatch.setattr(SympSpace, "is_symplectic", lambda self, g: False)
    with pytest.raises(RuntimeError, match="random_symplectic: the word"):
        random_symplectic(sp, rng)


def test_decompositions_make_no_dense_weyl_products(monkeypatch):
    # Bruhat: p1^-1 g and the check (p1 w_j) p2; Leray: the C block of
    # g1 g2 only.  Products by w_S are signed permutations, not mat_mul
    calls = []
    real = linalg.mat_mul

    def counted(a, b, *fld):
        calls.append(len(a))
        return real(a, b, *fld)
    rng = random.Random(16)
    pairs = list(_leray_pairs(rng, ((1, 10), (2, 10), (3, 6))))
    monkeypatch.setattr(linalg, "mat_mul", counted)
    js, with_s = set(), 0
    for sp, g1, g2 in pairs:
        calls.clear()
        js.add(bruhat_decompose(sp, g1).j)
        assert len(calls) == 2
        calls.clear()
        with_s += bool(leray_decompose(sp, g1, g2).s)
        assert len(calls) == 1
    assert js == {0, 1, 2, 3} and with_s >= 10


def test_u_rho_symplectic_requires_symmetric():
    sp = SympSpace(QpField(3), 2)
    good = sp.mul_unipotent(sp.identity(), qmat([[1, 2], [2, 1]]))
    assert sp.is_symplectic(good)
    with pytest.raises(ValueError):
        sp.mul_unipotent(sp.identity(), qmat([[0, 1], [-1, 0]]))


def test_leray_refuses_non_symplectic_as_a_check():
    # as in Bruhat, the guard meets only pairs a caller has already tested
    # (the CLI refuses a bad g1 or g2 itself): a failed check, RuntimeError
    # naming g1 and g2, not a bad input
    for field in (QpField(5), FqField(3), FqField(3, 2)):
        sp = SympSpace(field, 1)
        bad = fmat(field, [[2, 0], [0, 1]])
        for g1, g2 in ((bad, sp.identity()), (sp.identity(), bad)):
            for run, name in ((leray_decompose, "Leray"),
                              (cocycle_formula, "cocycle")):
                with pytest.raises(RuntimeError,
                                   match=r"%s: g1 = .* or g2 = .* is "
                                         "not symplectic" % name):
                    run(sp, g1, g2)


def test_symp_inv_matches_mat_inv():
    rng = random.Random(7)
    cases = []
    for q in (3, 5):
        sp = SympSpace(FqField(q), 1)
        cases += [(sp, g) for g in enumerate_sp2(sp)]
    sp4 = SympSpace(QpField(5), 2)
    cases += [(sp4, random_symplectic(sp4, rng, length=6, scale=3))
              for _ in range(500)]
    sp6 = SympSpace(FqField(3), 3)
    cases += [(sp6, random_symplectic(sp6, rng, length=8))
              for _ in range(200)]
    for sp, g in cases:
        assert sp.inv(g) == linalg.mat_inv(g, sp.field)


# the closed form read off a Leray factorization, as cocycle_formula
# computed it before it read the invariants off the blocks of g1, g2 and
# g1 g2: the reference value

def cocycle_w_u_rho(space, rho):
    """c^(w_S u_rho, w_S) = (-2, det Q)_F h_F(Q) for Q(x) = x^T rho x."""
    field = space.field
    if not rho:
        return 1
    q = QuadraticForm(field, rho)
    d = linalg.det(linalg.mat(rho), field)
    two = field.element(2)
    return hilbert(field, -two, d) * q.hasse()


def leray_x_classes(space, ld):
    """(x(g1), x(g2), x(g1 g2)) read off the Leray factors: g2 = p w_2 p2
    and g1 = p1 w_1 (u_rho p^-1) are Bruhat factorizations (u_rho is in
    P(X)), and g1 g2 = p1 (w_1 u_rho w_2) p2 with x(w_1 u_rho w_2) =
    (-1)^|S1 cap S2| det rho (det rho = 1 for S empty)."""
    field = space.field
    dp, dp1, dp2 = (space.det_x(h) for h in (ld.p, ld.p1, ld.p2))
    mid = -field.one() if len(set(ld.s1) & set(ld.s2)) % 2 else field.one()
    if ld.s:
        mid = mid * linalg.det(linalg.mat(ld.rho), field)
    return (square_class(field, dp1 * dp), square_class(field, dp * dp2),
            square_class(field, dp1 * dp2 * mid))


def cocycle_formula_reference(space, g1, g2):
    """(c, c_rao, l): the closed form without and with Rao's normalization,
    from x(g1), x(g2), x(g1 g2), l = |S1 cap S2| and rho of
    leray_reference(space, g1, g2)."""
    field = space.field
    ld = leray_reference(space, g1, g2)
    x1, x2, x12 = (x.rep for x in leray_x_classes(space, ld))
    l = len(set(ld.s1) & set(ld.s2))
    val = hilbert(field, x1, x2)
    val *= hilbert(field, x1 * x2, -x12)
    mone = -field.one()
    val *= hilbert(field, mone, mone) ** ((l * (l + 1)) // 2)
    if ld.s:
        detc = linalg.det(linalg.mat(ld.rho), field)
        if l % 2:
            val *= hilbert(field, mone, detc)
        val *= cocycle_w_u_rho(space, ld.rho)
    two = field.element(2)
    return val, val * hilbert(field, two, x1) * hilbert(field, two, x2) * \
        hilbert(field, two, x12), l


def _acceptance_6_pairs():
    """The four cocycle_formula pairs of each of acceptance 6's 1,221
    triples, drawn as that test draws them."""
    rng = random.Random(106)
    for p in (3, 5, 7):
        for m, count in ((1, 340), (2, 67)):
            sp = SympSpace(QpField(p), m)
            for _ in range(count):
                g1, g2, g3 = (random_symplectic(sp, rng, length=5, scale=2)
                              for _ in range(3))
                yield sp, g1, g2
                yield sp, linalg.mat_mul(g1, g2, sp.field), g3
                yield sp, g1, linalg.mat_mul(g2, g3, sp.field)
                yield sp, g2, g3


def _differential_pairs():
    # acceptance 6's triples, seeded pairs over Q_3, Q_5 and Q_7 at m = 1..3
    # with w_all and the identity among them, and every pair of Sp2(F_3)
    # and of Sp2(F_5)
    yield from _acceptance_6_pairs()
    rng = random.Random(38)
    for p in (3, 5, 7):
        for m, count in ((1, 60), (2, 40), (3, 20)):
            sp = SympSpace(QpField(p), m)
            w = sp.w_subset(set(range(m)))
            yield sp, w, w
            yield sp, sp.identity(), w
            for _ in range(count):
                yield sp, random_symplectic(sp, rng, length=6, scale=2), \
                    random_symplectic(sp, rng, length=6, scale=2)
    for q in (3, 5):
        sp = SympSpace(FqField(q), 1)
        group = enumerate_sp2(sp)
        for g1 in group:
            for g2 in group:
                yield sp, g1, g2


def test_cocycle_formula_matches_leray_reference():
    # the value from the invariants equals the one read off the Leray
    # factors, with and without Rao's normalization; over Q_p both signs
    # and an odd |S1 cap S2| must occur, or a factor goes untested
    seen, odd_l, counts = set(), 0, {"padic": 0, "finite": 0}
    for sp, g1, g2 in _differential_pairs():
        want, want_rao, l = cocycle_formula_reference(sp, g1, g2)
        got = cocycle_formula(sp, g1, g2)
        assert got == want, (sp.field, g1, g2)
        flavor = sp.field.flavor
        if flavor == "padic":   # over F_q every symbol is 1
            assert cocycle_formula(sp, g1, g2, rao=True) == want_rao, \
                (sp.field, g1, g2)
        seen.add((flavor, got))
        counts[flavor] += 1
        odd_l += flavor == "padic" and l % 2
    assert counts == {"padic": 4 * 1221 + 3 * (62 + 42 + 22),
                      "finite": 24 ** 2 + 120 ** 2}
    assert seen == {("padic", 1), ("padic", -1), ("finite", 1)}
    assert odd_l >= 50


def _closed_form_view(sp, g1, g2):
    """The library's closed-form input for g1, g2: (space, h1, h2, g12, j12)
    with h = (G, s) on the integers or F_q's index view, g12 = G1 G2 and
    j12 = rank C12."""
    view, (h1, h2) = metaplectic._scaled(*metaplectic._lowered(sp, g1, g2))
    g12 = linalg.mat_mul(h1[0], h2[0], view.field)
    return view, h1, h2, g12, len(metaplectic._x_parts(view, g12)[0])


def test_leray_invariants_match_leray_data():
    # l is |S1 cap S2|, and the nondegenerate part of q = lam G has |S|
    # entries, det rho's square class and rho's Hasse invariant, on pairs
    # whose S and S1 cap S2 are both nonempty and on seeded pairs over Q_3,
    # Q_5, Q_7, F_3 and F_5
    pairs = [(sp, g1, g2) for sp, g1, g2, _, _ in
             _leray_pairs_s_and_p12(random.Random(18))]
    pairs += [(sp, g1, g2) for sp, g1, g2 in
              _leray_pairs(random.Random(38), ((1, 20), (2, 20), (3, 10)))]
    with_s = 0
    for sp, g1, g2 in pairs:
        fld = sp.field
        ld = leray_decompose(sp, g1, g2)
        view, h1, h2, g12, j12 = _closed_form_view(sp, g1, g2)
        l, gram, lam = metaplectic._leray_invariants(view, h1, h2, g12, j12)
        assert l == len(set(ld.s1) & set(ld.s2)), (fld, g1, g2)
        vals = diagonal(view.field, gram, lam)[1]
        assert len(vals) == len(ld.s), (fld, g1, g2)
        if ld.s:
            rho = QuadraticForm(fld, ld.rho)
            det = functools.reduce(view.field.mul, vals, view.field.one())
            assert square_class(fld, det) == square_class(
                fld, linalg.det(linalg.mat(ld.rho), fld)), (fld, g1, g2)
            assert hasse_invariant(fld, vals) == rho.hasse(), (fld, g1, g2)
            with_s += 1
    assert with_s >= 300


# the closed form on Fractions (FFElts over F_q), as metaplectic computed
# it before it lowered each pair to integers: the reference for the
# integer invariants

def leray_invariants_reference(space, g1, g2, g12, j12):
    """(l, q) for g12 = g1 g2, j12 = rank C12: l = |S1 cap S2| = rank
    [C12; C2] - j12, and q(k; y) = -(A2 k - D1^T y) . (C1^T y) on C2 k +
    C1^T y = 0, whose nondegenerate part is isometric to rho."""
    fld, m = space.field, space.m
    _, _, c1, d1 = space.blocks(g1)
    a2, _, c2, _ = space.blocks(g2)
    l = len(linalg.rref(space.blocks(g12)[2] + c2, fld)[1]) - j12
    c1t = linalg.transpose(c1)
    kernel = linalg.nullspace([r + s for r, s in zip(c2, c1t)], fld)
    left = [r + fld.neg(s) for r, s in zip(a2, linalg.transpose(d1))]
    ab = [(linalg.mat_vec(left, z, fld), linalg.mat_vec(c1t, z[m:], fld))
          for z in kernel]     # q(sum t_i z_i) = -sum t_i t_j a_i . b_j
    return l, QuadraticForm(fld, [[-(fld.dot(a, bj) + fld.dot(aj, b)) / 2
                                   for aj, bj in ab] for a, b in ab])


def closed_form_reference(space, g1, g2):
    """(x1, x2, l, rank q, det class of q, h(q), c, c_rao) on the scalars
    of space.field: x1 and x2 the classes of x_data's d, and the value
    without and with Rao's normalization from the Fraction invariants."""
    field = space.field
    g12 = linalg.mat_mul(g1, g2, field)
    (_, d1), (_, d2), (n12, d12) = (metaplectic.x_data(space, g)
                                    for g in (g1, g2, g12))
    l, form = leray_invariants_reference(space, g1, g2, g12, len(n12))
    det = det_hasse(field, field, form.diagonalize()[1])[0]
    out = (square_class(field, d1), square_class(field, d2), l,
           len(form.diagonalize()[1]), det, form.hasse())
    if field.flavor == "finite":
        return out + (1, 1)
    one, two = field.one(), field.element(2)
    val = hilbert(field, d1, d2) * hilbert(field, d1 * d2, -d12) * \
        hilbert(field, -one, -one) ** ((l * (l + 1)) // 2) * \
        hilbert(field, -one, det.rep) ** l * \
        hilbert(field, -two, det.rep) * form.hasse()
    return out + (val, val * hilbert(field, two, d1 * d2 * d12))


def closed_form_invariants(space, g1, g2):
    """closed_form_reference's tuple from the library's integer (or
    raw-index) path."""
    field = space.field
    view, h1, h2, _, _ = _closed_form_view(space, g1, g2)
    fld = view.field
    val, d1, d2, (l, vals) = metaplectic._cocycle(field, view, h1, h2,
                                                  False, True)
    det = functools.reduce(fld.mul, vals, fld.one())
    return (square_class(field, d1), square_class(field, d2), l, len(vals),
            square_class(field, det), hasse_invariant(field, vals), val,
            metaplectic._cocycle(field, view, h1, h2, True)[0])


def _scale_pairs():
    """Q_p pairs whose lowering scales matter: m = 1, 2 and 3, and entries
    whose denominators have odd valuation (p), are non-square units (u0)
    or both, so that D1, D2 and D^m often have a class other than 1."""
    rng = random.Random(46)
    for p in (3, 5, 7):
        fld = QpField(p)
        u0 = fld.nonresidue()
        dens = (1, p, u0, p * u0, p * p * u0)
        for m in (1, 2, 3):
            sp = SympSpace(fld, m)

            def element():
                g = random_symplectic(sp, rng, length=4, scale=2)
                t, u = rng.choice(dens), rng.choice(dens)
                a = [[Fraction(int(i == j)) for j in range(m)]
                     for i in range(m)]
                a[0][0] = Fraction(1, t)
                s = [[Fraction(0)] * m for _ in range(m)]
                s[m - 1][m - 1] = Fraction(rng.choice((1, -1)), u)
                return sp.mul_unipotent(sp.mul_torus(g, a), s)
            for _ in range(12):
                yield sp, element(), element()


def _closed_form_mismatches(pairs):
    return [(sp.field, sp.m, g1, g2) for sp, g1, g2 in pairs
            if closed_form_invariants(sp, g1, g2) !=
            closed_form_reference(sp, g1, g2)]


def test_integer_invariants_match_fraction_reference():
    # x(g1), x(g2), l, rank q, q's det class and Hasse invariant and the
    # value with and without Rao's normalization, read off integer matrices
    # (raw indices over F_q), equal the Fraction path's on the
    # differential pairs and on pairs where each scale factor matters;
    # over F_q the Sp2(F_5) pairs are sampled, one in 25
    pairs = [pair for k, pair in enumerate(_differential_pairs())
             if pair[0].field != FqField(5) or k % 25 == 0]
    scaled = list(_scale_pairs())
    assert _closed_form_mismatches(pairs + scaled) == []
    # odd m with a D^m of class other than 1, and D2 of class other than 1
    # with rho nonempty, each occur
    classes = [(sp, metaplectic._scaled(sp, (g1, g2))[1])
               for sp, g1, g2 in scaled]
    assert sum(sp.m % 2 and square_class(sp.field, s1).tag != "1"
               for sp, ((_, s1), _) in classes) >= 20
    assert sum(square_class(sp.field, s2).tag != "1"
               for sp, (_, (_, s2)) in classes) >= 40


@pytest.mark.parametrize("fault", ["no D^m", "no 2 D2", "no D2"])
def test_integer_invariants_see_each_scale(fault, monkeypatch):
    # the differential test fails once the lowering drops a scale factor:
    # D^m of det M, or the 2 D2 (or only the D2) of q's Gram matrix
    if fault == "no D^m":
        monkeypatch.setattr(metaplectic, "_x_scaled",
                            lambda space, h: metaplectic._x_parts(space,
                                                                  h[0]))
    else:
        real = metaplectic._leray_invariants
        lam = 1 if fault == "no 2 D2" else 2

        def faulted(*args):
            l, gram, _ = real(*args)
            return l, gram, lam
        monkeypatch.setattr(metaplectic, "_leray_invariants", faulted)
    assert _closed_form_mismatches(_scale_pairs()) != []


def test_closed_form_makes_no_fraction(monkeypatch):
    # once g1 and g2 are lowered to integer matrices, cocycle_formula over
    # Q_p builds no Fraction: the lowering reads numerators and
    # denominators, and every invariant and Hilbert symbol reads ints
    rng = random.Random(46)
    cases = []
    for p in (3, 5):
        for m in (1, 2, 3):
            sp = SympSpace(QpField(p), m)
            cases += [(sp, random_symplectic(sp, rng, length=6, scale=2),
                       random_symplectic(sp, rng, length=6, scale=2))
                      for _ in range(8)]
    made = []
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)
    values = []
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counted)
        Fraction(1, 3)
        assert len(made) == 1       # the wrapper counts
        made.clear()
        for sp, g1, g2 in cases:
            values.append(cocycle_formula(sp, g1, g2))
            values.append(cocycle_formula(sp, g1, g2, rao=True))
    assert made == []
    assert set(values) == {1, -1}


def test_finite_formula_report_makes_no_ffelt_but_rho(monkeypatch):
    # over F_q formula_report checks the Leray block on raw indices: the
    # only FFElts it makes are the printed rho's entries
    made = []
    real = FFElt.__init__

    def counted(self, field, i):
        made.append(i)
        real(self, field, i)
    rng = random.Random(46)
    seen_rho = 0
    for field in (FqField(3), FqField(3, 2)):
        for m in (1, 2):
            sp = SympSpace(field, m)
            # [[I, 0], [I, I]] squared has S = {1..m}
            low = fmat(field, [[int(j in (i - m, i)) if i >= m else
                                int(i == j) for j in range(2 * m)]
                               for i in range(2 * m)])
            pairs = [(low, low)] + [
                tuple(random_symplectic(sp, rng, length=6) for _ in range(2))
                for _ in range(8)]
            for g1, g2 in pairs:
                made.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(FFElt, "__init__", counted)
                    ld, val, x1, x2 = metaplectic.formula_report(sp, g1, g2)
                assert val == 1
                assert len(made) == len(ld.s) ** 2, (field, m, g1, g2)
                seen_rho += bool(ld.s)
                assert (x1, x2) == (x_invariant(sp, g1), x_invariant(sp, g2))
    assert seen_rho >= 6


def test_cocycle_formula_reads_invariants_only(monkeypatch):
    # no Leray or Bruhat decomposition, and one is_symplectic per input:
    # g1 g2 is symplectic once g1 and g2 are
    def refuse(*_args):
        raise AssertionError("cocycle_formula made a decomposition")
    for name in ("_leray", "leray_decompose", "_bruhat",
                 "bruhat_decompose"):
        monkeypatch.setattr(metaplectic, name, refuse)
    checked = []
    real = SympSpace.is_symplectic

    def counted(self, g):
        checked.append(g)
        return real(self, g)
    monkeypatch.setattr(SympSpace, "is_symplectic", counted)
    rng = random.Random(38)
    cases = []
    for field in (QpField(3), QpField(5), FqField(3), FqField(3, 2)):
        for m in (1, 2, 3):
            sp = SympSpace(field, m)
            cases += [(sp, random_symplectic(sp, rng, length=6, scale=2),
                       random_symplectic(sp, rng, length=6, scale=2))
                      for _ in range(5)]
    for sp, g1, g2 in cases:
        checked.clear()
        assert cocycle_formula(sp, g1, g2) in (1, -1)
        assert len(checked) == 2


def test_cocycle_formula_splits_each_element_once(monkeypatch):
    # the closed form splits g1, g2 and g1 g2 into blocks at most once
    # each: x_data's d slices the two blocks it reads off the rows, and
    # the Leray invariants split each element once
    split = []
    real = SympSpace.blocks

    def counted(self, g):
        split.append(g)       # held, so no two ids coincide
        return real(self, g)
    monkeypatch.setattr(SympSpace, "blocks", counted)
    rng = random.Random(47)
    for field in (QpField(3), QpField(5), FqField(3)):
        for m in (1, 2, 3):
            sp = SympSpace(field, m)
            for _ in range(5):
                g1, g2 = (random_symplectic(sp, rng, length=6, scale=2)
                          for _ in range(2))
                split.clear()
                cocycle_formula(sp, g1, g2)
                assert len(split) <= 3
                assert len({id(g) for g in split}) == len(split)


def test_finite_cocycle_formula_makes_no_ffelt(monkeypatch):
    # over F_q g1 and g2 are lowered once, and all the work after that is
    # on raw field indices
    made = []
    real = FFElt.__init__

    def counted(self, field, i):
        made.append(i)
        real(self, field, i)
    rng = random.Random(38)
    for field in (FqField(3), FqField(3, 2)):
        for m in (1, 2):
            sp = SympSpace(field, m)
            g1, g2 = (random_symplectic(sp, rng, length=6) for _ in range(2))
            with monkeypatch.context() as patch:
                patch.setattr(FFElt, "__init__", counted)
                assert cocycle_formula(sp, g1, g2) == 1
            assert made == []


def test_leray_x_classes_match_x_invariant():
    # x(g1), x(g2), x(g1 g2) from the Leray factors against a Bruhat
    # decomposition of each; an odd |S1 cap S2| where -1 is not a square,
    # and a non-square det rho, must both occur, or a factor goes untested
    rng = random.Random(11)
    pairs = odd_l = nonsquare_rho = 0
    for field in (QpField(3), QpField(5), QpField(7),
                  FqField(3), FqField(5), FqField(7), FqField(7, 2)):
        minus_one_square = square_class(field, -field.one()).tag == "1"
        for m, count in ((1, 200), (2, 100), (3, 40)):
            sp = SympSpace(field, m)
            for _ in range(count):
                g1 = random_symplectic(sp, rng, length=6, scale=2)
                g2 = random_symplectic(sp, rng, length=6, scale=2)
                ld = leray_reference(sp, g1, g2)
                got = [x.tag for x in leray_x_classes(sp, ld)]
                want = [x_invariant(sp, g).tag
                        for g in (g1, g2, linalg.mat_mul(g1, g2))]
                assert got == want, (field.p, m, g1, g2)
                pairs += 1
                l = len(set(ld.s1) & set(ld.s2))
                odd_l += l % 2 and not minus_one_square
                nonsquare_rho += bool(ld.s) and square_class(
                    field, linalg.det(linalg.mat(ld.rho), field)).tag != "1"
    assert pairs >= 2000 and odd_l >= 50 and nonsquare_rho >= 50


def test_cocycle_lemma_a_parabolic(rng):
    # c(p, g) = c(g, p) = (x(p), x(g))_F
    for p in (3, 5):
        fld = QpField(p)
        sp = SympSpace(fld, 2)
        for _ in range(10):
            g = random_symplectic(sp, rng, length=5, scale=2)
            par = _random_wj_stable_parabolic(sp, 0, rng)
            sym = hilbert(fld, x_invariant(sp, par).rep,
                          x_invariant(sp, g).rep)
            assert cocycle_formula(sp, par, g) == sym
            assert cocycle_formula(sp, g, par) == sym


def test_cocycle_lemma_b_ws():
    # c(w_S, w_S') = (-1,-1)^{l(l+1)/2}
    for p in (3, 7):
        fld = QpField(p)
        sp = SympSpace(fld, 2)
        mone = hilbert(fld, F(-1), F(-1))
        for s1 in (set(), {0}, {1}, {0, 1}):
            for s2 in (set(), {0}, {1}, {0, 1}):
                l = len(s1 & s2)
                expect = mone ** ((l * (l + 1)) // 2)
                got = cocycle_formula(sp, sp.w_subset(s1), sp.w_subset(s2))
                assert got == expect


def test_cocycle_lemma_c_disjoint_supports(rng):
    # g in G_S, g' in G_cS: c(g, g') = (x(g), x(g'))_F
    fld = QpField(3)
    sp = SympSpace(fld, 2)
    sp1 = SympSpace(fld, 1)
    z = Fraction(0)

    def embed_first(g):
        (a, b), (c, d) = g
        return linalg.mat([(a, z, b, z), (z, 1, z, z),
                           (c, z, d, z), (z, z, z, 1)])

    def embed_second(g):
        (a, b), (c, d) = g
        return linalg.mat([(1, z, z, z), (z, a, z, b),
                           (z, z, 1, z), (z, c, z, d)])
    for _ in range(15):
        g1 = random_symplectic(sp1, rng, length=5, scale=2)
        g2 = random_symplectic(sp1, rng, length=5, scale=2)
        e1, e2 = embed_first(g1), embed_second(g2)
        sym = hilbert(fld, x_invariant(sp, e1).rep, x_invariant(sp, e2).rep)
        assert cocycle_formula(sp, e1, e2) == sym
        assert cocycle_formula(sp, e2, e1) == sym


def test_cocycle_w_u_rho_lemma(rng):
    # c(w_S u_rho, w_S) = (-2, det Q)_F h_F(Q) checked against the general
    # formula path on explicit inputs
    for p in (3, 5):
        fld = QpField(p)
        sp = SympSpace(fld, 2)
        w = sp.w_subset({0, 1})
        for _ in range(12):
            while True:
                c = [[Fraction(rng.randrange(-3, 4)) for _ in range(2)]
                     for _ in range(2)]
                c[0][1] = c[1][0]
                try:
                    if linalg.det(linalg.mat(c), fld) != 0:
                        break
                except ZeroDivisionError:
                    continue
            rho = linalg.mat(c)
            g1 = sp.mul_unipotent(w, rho)
            got = cocycle_formula(sp, g1, w)
            q = QuadraticForm(fld, rho)
            expect = hilbert(fld, F(-2), linalg.det(rho, fld)) * q.hasse()
            assert got == expect
            assert cocycle_w_u_rho(sp, ld_rho(rho)) == expect


def ld_rho(rho):
    return tuple(tuple(r) for r in rho)


def test_cocycle_identity_random_triples(rng):
    # 2-cocycle identity, both ranks, several primes
    for p in (3, 5, 7):
        for m in (1, 2):
            sp = SympSpace(QpField(p), m)
            for _ in range(20):
                g1 = random_symplectic(sp, rng, length=5, scale=2)
                g2 = random_symplectic(sp, rng, length=5, scale=2)
                g3 = random_symplectic(sp, rng, length=5, scale=2)
                c12 = cocycle_formula(sp, g1, g2)
                assert c12 in (1, -1)
                lhs = c12 * cocycle_formula(sp, linalg.mat_mul(g1, g2), g3)
                rhs = cocycle_formula(sp, g1, linalg.mat_mul(g2, g3)) * \
                    cocycle_formula(sp, g2, g3)
                assert lhs == rhs


def test_cocycle_formula_finite_trivial(rng):
    f5 = FqField(5)
    sp = SympSpace(f5, 2)
    for _ in range(25):
        g1 = random_symplectic(sp, rng, length=5)
        g2 = random_symplectic(sp, rng, length=5)
        assert cocycle_formula(sp, g1, g2) == 1


def test_parabolic_relations(rng):
    # c(p1 g1 p^{-1}, p g2 p2) c(g1, g2)^{-1} is the product of Lemma-a
    # symbols, here verified through the cocycle identity consequence
    fld = QpField(5)
    sp = SympSpace(fld, 1)
    for _ in range(20):
        g1 = random_symplectic(sp, rng, length=4, scale=2)
        g2 = random_symplectic(sp, rng, length=4, scale=2)
        par = _random_wj_stable_parabolic(sp, 0, rng)
        lhs = cocycle_formula(
            sp, linalg.mat_mul(g1, linalg.mat_inv(par, fld)),
            linalg.mat_mul(par, g2))
        xp = x_invariant(sp, par).rep
        x1 = x_invariant(sp, g1).rep
        x2 = x_invariant(sp, g2).rep
        rel = hilbert(fld, xp, x1) * hilbert(fld, xp, x2) * \
            hilbert(fld, xp, xp)
        assert lhs == rel * cocycle_formula(sp, g1, g2)


def test_rao_variant_coboundary(rng):
    fld = QpField(5)
    sp = SympSpace(fld, 2)
    for _ in range(12):
        g1 = random_symplectic(sp, rng, length=5, scale=2)
        g2 = random_symplectic(sp, rng, length=5, scale=2)
        c = cocycle_formula(sp, g1, g2)
        cr = cocycle_formula(sp, g1, g2, rao=True)
        x1 = x_invariant(sp, g1).rep
        x2 = x_invariant(sp, g2).rep
        x12 = x_invariant(sp, linalg.mat_mul(g1, g2)).rep
        cob = hilbert(fld, F(2), x1) * hilbert(fld, F(2), x2) * \
            hilbert(fld, F(2), x12)
        assert cr == c * cob
        assert cr in (1, -1)


def test_operator_vs_formula_padic(rng):
    for p in (3, 5):
        sp = SympSpace(QpField(p), 1)
        for _ in range(15):
            g1 = random_symplectic(sp, rng, length=4, scale=2)
            g2 = random_symplectic(sp, rng, length=4, scale=2)
            cf = cocycle_formula(sp, g1, g2)
            co = cocycle_operator_padic(p, g1, g2)
            one = co.ring.one()
            assert co == one * cf


def test_mu_g_scalar_examples():
    # g = w_j has det_X(p1 p2) = 1, so the normalizer is 1
    for field in (FqField(3), QpField(5)):
        sp = SympSpace(field, 2)
        psi = AdditiveCharacter(field)
        for s in ({0}, {0, 1}):
            w = sp.w_subset(s)
            one = CyclotomicRing(field.p).one()
            assert mu_g_scalar(sp, psi, w) == one


def test_qp_cocycle_takes_no_operator_dot(monkeypatch):
    # no Q_p path falls back to linalg.OPS, mat_mul's default for callers
    # outside the package: every linalg call names its field (QpField or
    # the integers).  With OPS's dot, eliminate and scale refused,
    # cocycle_formula at m = 1 and m = 2, cocycle_operator_padic, a form's
    # Hasse invariant and diagonalization, and omega over Q_5 still run
    # and give the same values
    rng = random.Random(25)
    fld = QpField(5)
    runs = []
    for m in (1, 2):
        sp = SympSpace(fld, m)
        pairs = [(random_symplectic(sp, rng), random_symplectic(sp, rng))
                 for _ in range(20)]
        runs.append(lambda sp=sp, pairs=pairs: [
            cocycle_formula(sp, g1, g2) for g1, g2 in pairs])
    sp1 = SympSpace(fld, 1)
    op_pairs = [(random_symplectic(sp1, rng, length=4, scale=2),
                 random_symplectic(sp1, rng, length=4, scale=2))
                for _ in range(4)]
    runs.append(lambda: [cocycle_operator_padic(5, g1, g2)
                         for g1, g2 in op_pairs])
    psi = AdditiveCharacter(fld)
    grams = ([[1, 2], [2, 5]], [[F(1, 5), 0, 1], [0, 25, 0], [1, 0, 0]],
             [[1, 1], [1, 1]], [[0, 3], [3, 0]])

    def forms():
        out = []
        for gram in grams:     # fresh forms: diagonalize caches
            out.append(QuadraticForm(fld, gram).hasse())
            out.append(QuadraticForm(fld, gram).diagonalize())
            out.append(omega(QuadraticForm(fld, gram), psi))
        return out
    runs.append(forms)
    want = [run() for run in runs]

    def refuse(*_args):
        raise AssertionError("operator arithmetic on the Q_p path")
    with monkeypatch.context() as patch:
        for name in ("dot", "eliminate", "scale"):
            patch.setattr(linalg.OPS, name, refuse)
        assert [run() for run in runs] == want
