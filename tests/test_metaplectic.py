import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from weilmod import linalg, metaplectic
from weilmod.basefield import AdditiveCharacter, FqField, QpField
from weilmod.coeff import CyclotomicRing, FiniteField
from weilmod.heisenberg import (SympSpace, central, coset_reps, delta,
                                SchrodingerModel)
from weilmod.metaplectic import (WeilContext, bruhat_decompose,
                                 cocycle_formula, cocycle_operator,
                                 cocycle_w_u_rho, enumerate_sp2,
                                 leray_decompose, leray_x_classes, m_bracket,
                                 mu_g_scalar, random_symplectic, scalar_ratio, sigma,
                                 split_checks, u_rho_matrix, x_invariant)
from weilmod.quadratic import QuadraticForm, hilbert, square_class
from weilmod.schwartz import cocycle_operator_padic
from weilmod.weilfactor import fourier_matrix


def F(x, y=1):
    return Fraction(x, y)


def qmat(rows):
    return linalg.mat([[Fraction(x) for x in r] for r in rows])


def fmat(field, rows):
    return linalg.mat([[field.element(x) for x in r] for r in rows])


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


def test_x_invariant_redecomposition_stability(rng):
    # x(g) and the mu_g normalizer are invariant under changing (p1, p2)
    sp = SympSpace(QpField(3), 2)
    psi = AdditiveCharacter(QpField(3))
    fld = sp.field
    for _ in range(12):
        g = random_symplectic(sp, rng, length=5, scale=2)
        bd = bruhat_decompose(sp, g)
        x0 = x_invariant(sp, g)
        mu0 = mu_g_scalar(sp, psi, g, bd)
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
            assert mu_g_scalar(sp, psi, g, BruhatData(j, p1, p2)) == mu0


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
        try:
            if linalg.det(linalg.mat(a)) == field.element(0):
                continue
        except ZeroDivisionError:
            continue
        s = [[field.element(0)] * m for _ in range(m)]
        for i in range(j, m):
            for k in range(i, m):
                v = field.element(rng.randrange(-2, 3))
                s[i][k] = v
                s[k][i] = v
        ainvt = linalg.transpose(linalg.mat_inv(linalg.mat(a), field))
        b = linalg.mat_mul(linalg.mat(a), linalg.mat(s))
        z = field.element(0)
        rows = [tuple(a[i]) + tuple(b[i]) for i in range(m)]
        rows += [(z,) * m + tuple(ainvt[i]) for i in range(m)]
        r = linalg.mat(rows)
        if sp.is_symplectic(r):
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
        return linalg.combine(sol, span, space.zero_vec())
    gx = list(linalg.transpose(g)[:m])
    xb = [space.basis_e(i) for i in range(m)]
    inter = linalg.intersection(gx, xb, field)
    j = m - len(inter)
    u = linalg.column_space_basis(list(inter) + xb)
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


# ---------------------------------------------------------------------------
# sigma over finite F
# ---------------------------------------------------------------------------

def test_sigma_identity_and_intertwining():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    ident = sp.identity()
    s = sigma(ctx, ident)
    n = ctx.model.dim
    for i in range(n):
        for j in range(n):
            assert s[i][j] == (ctx.one() if i == j else ctx.zero())
    # twist law: sigma(g) rho(h) = rho(g . h) sigma(g)
    model = ctx.model
    for g in enumerate_sp2(sp)[:8]:
        sg = sigma(ctx, g)
        for hv in ((1, 0), (0, 1), (2, 1)):
            h = delta(sp, tuple(f3.element(x) for x in hv))
            lhs = linalg.mat_mul(sg, model.rho(h).to_dense(ctx.zero()))
            hg = delta(sp, linalg.mat_vec(g, h.w))
            rhs = linalg.mat_mul(model.rho(hg).to_dense(ctx.zero()), sg)
            assert lhs == rhs


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


def test_split_checks_reports_the_first_failing_pair():
    # sigma(g1 g2) with its scalar negated: sigma(g1) sigma(g2) is then
    # -sigma(g1 g2), so the first pair is not multiplicative
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    g1, g2 = sp.w_subset({0}), sp.unipotent_upper([[f3.element(1)]])
    g12 = linalg.mat_mul(g1, g2)
    assert split_checks(ctx, [(g1, g2)]) == {"multiplicative": True,
                                             "pairs": 1}
    mu, counts = ctx._sigma_cache[g12]
    ctx._sigma_cache[g12] = (-mu, counts)
    assert split_checks(ctx, [(g1, g2), (g2, g1)]) == {
        "multiplicative": False, "pairs": 0}


def test_contragredient_twist_by_traces():
    # (omega_psi)^v = omega_{psi^{-1}} x chi^2 as split-group representations:
    # with the split section chi^2 = 1 on the image, so traces must agree
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    ctx_inv = WeilContext(sp, AdditiveCharacter(f3).inverse())
    for g in enumerate_sp2(sp):
        ginv = linalg.mat_inv(g, f3)
        lhs = linalg.trace(sigma(ctx, ginv))
        rhs = linalg.trace(sigma(ctx_inv, g))
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
            small = linalg.kron(sigma(ctx1, g1), sigma(ctx1, g2))
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
    mu_pt = mu_g_scalar(space, psi, g, bd) * ctx._gauss_half_inv ** bd.j
    ginv = space.inv(g)
    xb = [space.basis_e(i) for i in range(space.m)]
    gx = list(linalg.transpose(g)[:space.m])
    reps = coset_reps(linalg.intersection(gx, xb, field), xb, field)
    model, half, zero = ctx.model, space.half(), ctx.zero()
    n = model.dim
    rows = [[zero] * n for _ in range(n)]
    for i0 in range(n):
        y0 = model.point(i0)
        for a in reps:
            t = half * space.pairing(a, y0)
            w = linalg.mat_vec(ginv, tuple(x + y for x, y in zip(a, y0)))
            wx = w[:space.m] + (field.element(0),) * space.m
            wy = (field.element(0),) * space.m + w[space.m:]
            phase = psi(t - half * space.pairing(wx, wy))
            col = model._index[w[space.m:]]
            rows[i0][col] = rows[i0][col] + mu_pt * phase
    return linalg.mat(rows)


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
    g1, g2 = sp.w_subset({0, 1}), sp.unipotent_upper(
        [[f3.element(1), f3.element(0)], [f3.element(0), f3.element(2)]])
    g12 = linalg.mat_mul(g1, g2)
    assert cocycle_operator(ctx, g1, g2) == ctx.one()
    mu, counts = ctx._sigma_cache[g12]
    dense = sigma(ctx, g12)
    first = next((i, j) for i, row in enumerate(dense)
                 for j, x in enumerate(row) if x != ctx.zero())
    last = max((i, j) for i, row in enumerate(counts)
               for j, c in enumerate(row) if c)
    assert last != first
    bad = [list(row) for row in counts]
    bad[last[0]][last[1]] += 1      # one more zeta^0 term
    ctx._sigma_cache[g12] = (mu, linalg.mat(bad))
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
    assert group[0] not in ctx._sigma_cache
    assert sigma(ctx, group[0]) == first
    assert list(ctx._sigma_cache)[-1] == group[0]


# ---------------------------------------------------------------------------
# M[g]
# ---------------------------------------------------------------------------

def test_m_bracket_identity_scalar():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    m = m_bracket(ctx, sp.identity())
    n = ctx.model.dim
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
        model = ctx.model
        for _ in range(25):
            g = group[rng.randrange(len(group))]
            m = m_bracket(ctx, g)
            # intertwining law in the section's convention
            for hv in ((1, 0), (0, 1)):
                h = delta(sp, tuple(fq.element(x) for x in hv))
                lhs = linalg.mat_mul(m, model.rho(h).to_dense(ctx.zero()))
                hg = delta(sp, linalg.mat_vec(g, h.w))
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
            ld = leray_decompose(sp, g1, g2)  # re-multiplication inside
            assert set(ld.s1) <= set(range(m)) - set(ld.s)
            assert set(ld.s2) <= set(range(m)) - set(ld.s)
            if ld.s:
                rho = linalg.mat(ld.rho)
                assert rho == linalg.transpose(rho)
                assert linalg.det(rho) != 0


def _leray_pairs(rng, counts=((1, 160), (2, 80), (3, 40))):
    for field in (QpField(3), QpField(5), QpField(7), FqField(3),
                  FqField(5)):
        for m, count in counts:
            sp = SympSpace(field, m)
            for _ in range(count):
                yield sp, random_symplectic(sp, rng, length=6, scale=2), \
                    random_symplectic(sp, rng, length=6, scale=2)


def test_leray_digest():
    # the repr of every LerayData on 1,400 seeded pairs, as the per-vector
    # solves gave them before the solves were batched per block
    h = hashlib.sha256()
    for sp, g1, g2 in _leray_pairs(random.Random(14)):
        h.update(repr(leray_decompose(sp, g1, g2)).encode() + b"\n")
    assert h.hexdigest() == \
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
    # the repr of every LerayData on 484 pairs, as the e' basis built from
    # subspace intersections and column-space selections gave them
    h = hashlib.sha256()
    for sp, g1, g2 in _leray_pairs_extension_fields(random.Random(12)):
        h.update(repr(leray_decompose(sp, g1, g2)).encode() + b"\n")
    assert h.hexdigest() == \
        "61a0239d1a8eb551358d75f5c00ab967245ac84634306c05932024d56cfdabe5"


def _random_parabolic(sp, rng):
    # parabolic(a) unipotent_upper(s) with small random a and symmetric s
    field, m = sp.field, sp.m
    while True:
        a = [[field.element(rng.randrange(-2, 3)) for _ in range(m)]
             for _ in range(m)]
        if linalg.det(a):
            break
    s = [[field.element(0)] * m for _ in range(m)]
    for i in range(m):
        for k in range(i, m):
            s[i][k] = s[k][i] = field.element(rng.randrange(-2, 3))
    return linalg.mat_mul(sp.parabolic(a), sp.unipotent_upper(s))


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
                    if linalg.det(rho):
                        break
                p, p1m, p2m = (_random_parabolic(sp, rng) for _ in range(3))
                u = u_rho_matrix(sp, s, linalg.mat(rho))
                g1 = linalg.mat_mul(linalg.mat_mul(
                    sp.mul_w(p1m, set(s + p12 + p1)), u), sp.inv(p))
                g2 = linalg.mat_mul(sp.mul_w(p, set(s + p12 + p2)), p2m)
                yield sp, g1, g2, ns, 1


def test_leray_digest_s_and_p12():
    # the repr of every LerayData on 240 pairs whose S and S1 cap S2 are
    # both nonempty, as the S block's pairing-matrix inverse and its
    # correction in L1 cap L2 gave them
    h = hashlib.sha256()
    for sp, g1, g2, ns, n12 in _leray_pairs_s_and_p12(random.Random(18)):
        ld = leray_decompose(sp, g1, g2)
        assert (len(ld.s), len(set(ld.s1) & set(ld.s2))) == (ns, n12)
        h.update(repr(ld).encode() + b"\n")
    assert h.hexdigest() == \
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

    def counted_mul(a, b):
        products.append(real_mul(a, b))
        return products[-1]

    def counted_rref(a):
        reduced.append(a)
        return real_rref(a)
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


def test_leray_one_solve_per_block(monkeypatch):
    # one rref for each nonempty block among the S decomposition, S u P12,
    # P1 and P2, and one per vector of the C block; rho comes from the
    # S u P12 solve, not from a matrix inverse
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
        blocks = [s, s | (s1 & s2), s1 - s2, s2 - s1]
        c_block = sp.m - len(s | s1 | s2)
        assert len(calls) == sum(map(bool, blocks)) + c_block
        assert sum(calls) == sum(map(len, blocks)) + c_block
        batched += max(calls, default=0) > 1
        with_s += bool(s)
    assert batched >= 50 and with_s >= 10


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
        assert sp.mul_w_inv(g, set(s)) == linalg.mat_mul(g, winv)
        assert sp.w_inv_mul(set(s), g) == linalg.mat_mul(winv, g)
        done += 1
    assert done == 3 * 2 * (2 + 4 + 8)


def test_u_rho_product_matches_dense():
    rng = random.Random(11)
    done = 0
    for sp, g, s in _product_cases(rng):
        field = sp.field
        rho = [[None] * len(s) for _ in s]
        for a in range(len(s)):
            for b in range(a, len(s)):
                rho[a][b] = rho[b][a] = field.element(rng.randrange(-4, 5))
        rho = linalg.mat(rho)
        u = u_rho_matrix(sp, list(s), rho)
        assert metaplectic._mul_u_rho(sp, g, list(s), rho) == \
            linalg.mat_mul(g, u)
        assert metaplectic._mul_u_rho(sp, g, list(s), rho, inverse=True) == \
            linalg.mat_mul(g, linalg.mat_inv(u, field))
        done += bool(s)
    assert done == 3 * 2 * (1 + 3 + 7)


def test_decompositions_make_no_dense_weyl_products(monkeypatch):
    # Bruhat: p1^-1 g and the check (p1 w_j) p2; Leray: the C block of
    # g1 g2, p^-1 g2, g1 p and the two checks.  Products by w_S and u_rho
    # are signed permutations and column updates, not mat_mul
    calls = []
    real = linalg.mat_mul

    def counted(a, b):
        calls.append(len(a))
        return real(a, b)
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
        assert len(calls) == 5
    assert js == {0, 1, 2, 3} and with_s >= 10


def test_u_rho_symplectic_requires_symmetric():
    sp = SympSpace(QpField(3), 2)
    good = u_rho_matrix(sp, [0, 1], qmat([[1, 2], [2, 1]]))
    assert sp.is_symplectic(good)
    with pytest.raises(ValueError):
        u_rho_matrix(sp, [0, 1], qmat([[0, 1], [-1, 0]]))


def test_leray_refuses_non_symplectic():
    sp = SympSpace(QpField(5), 1)
    bad = qmat([[2, 0], [0, 1]])
    for g1, g2 in ((bad, sp.identity()), (sp.identity(), bad)):
        with pytest.raises(ValueError, match="matrix is not symplectic"):
            leray_decompose(sp, g1, g2)
        with pytest.raises(ValueError, match="matrix is not symplectic"):
            cocycle_formula(sp, g1, g2)


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


def test_leray_x_classes_match_x_invariant():
    # x(g1), x(g2), x(g1 g2) from the Leray factors against a Bruhat
    # decomposition of each; an odd |S1 cap S2| where -1 is not a square,
    # and a non-square det rho, must both occur, or a factor goes untested
    rng = random.Random(11)
    pairs = odd_l = nonsquare_rho = 0
    for field in (QpField(3), QpField(5), QpField(7),
                  FqField(3), FqField(5), FqField(7)):
        minus_one_square = square_class(field, field.element(-1)).tag == "1"
        for m, count in ((1, 200), (2, 100), (3, 40)):
            sp = SympSpace(field, m)
            for _ in range(count):
                g1 = random_symplectic(sp, rng, length=6, scale=2)
                g2 = random_symplectic(sp, rng, length=6, scale=2)
                ld = leray_decompose(sp, g1, g2)
                got = [x.tag for x in leray_x_classes(sp, ld)]
                want = [x_invariant(sp, g).tag
                        for g in (g1, g2, linalg.mat_mul(g1, g2))]
                assert got == want, (field.p, m, g1, g2)
                pairs += 1
                l = len(set(ld.s1) & set(ld.s2))
                odd_l += l % 2 and not minus_one_square
                nonsquare_rho += bool(ld.s) and square_class(
                    field, linalg.det(linalg.mat(ld.rho))).tag != "1"
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
                    if linalg.det(linalg.mat(c)) != 0:
                        break
                except ZeroDivisionError:
                    continue
            rho = linalg.mat(c)
            urho = u_rho_matrix(sp, [0, 1], rho)
            g1 = linalg.mat_mul(w, urho)
            got = cocycle_formula(sp, g1, w)
            q = QuadraticForm(fld, rho)
            expect = hilbert(fld, F(-2), linalg.det(rho)) * q.hasse()
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
