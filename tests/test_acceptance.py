"""The ten acceptance criteria, one test each, all exact (no tolerances).
Each prints a PASS line on success; run with `pytest -s` to see them."""

import json
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial

import pytest

from weilmod import linalg
from weilmod.basefield import AdditiveCharacter, FqField, QpField
from weilmod.coeff import CyclotomicRing, FiniteField
from weilmod.heisenberg import (SchrodingerModel, SympSpace,
                                commutant_dim_model, central, delta)
from weilmod.metaplectic import (WeilContext, cocycle_formula,
                                 cocycle_operator, enumerate_sp2, m_bracket,
                                 random_symplectic, scalar_ratio, sigma,
                                 split_checks, x_invariant)
from weilmod.quadratic import QuadraticForm, hilbert
from weilmod.schwartz import cocycle_operator_padic
from weilmod.theta import (DualPair, ThetaLift, char_inner,
                           congruence_check, group_inverses,
                           linear_pm_characters)
from weilmod.weilfactor import (epsilon, fourier_matrix, gauss_sum,
                                hilbert_via_omega, omega, omega_diag_product,
                                omega_ratio)

from conftest import mat_add, mat_scal, random_form, random_unit, trace


def _report(n, text):
    print("ACCEPTANCE %2d PASS  %s" % (n, text))


def _coeff_rings_for(p):
    rings = [CyclotomicRing(p)]
    for ell in (2, 7):
        if ell == p:
            continue
        d = 1
        while (ell ** d - 1) % p:
            d += 1
        rings.append(FiniteField(ell, d))
    return rings


def test_acceptance_1_stone_von_neumann():
    grid = [(3, 1, 1), (3, 1, 2), (5, 1, 1), (5, 1, 2),
            (7, 1, 1), (7, 1, 2), (3, 2, 1), (3, 2, 2)]
    checked = 0
    for p, f, m in grid:
        fq = FqField(p, f)
        if fq.q ** m > 81:
            continue
        sp = SympSpace(fq, m)
        for ring in _coeff_rings_for(p):
            psi = AdditiveCharacter(fq, ring)
            model = SchrodingerModel(sp, psi)
            assert commutant_dim_model(model) == 1
            for t in fq.elements():
                mono = model.rho(central(sp, t))
                assert all(j == pj for j, pj in enumerate(mono.perm))
                assert all(ph == psi(t) for ph in mono.phases)
            checked += 1
    _report(1, "Stone-von Neumann: commutant 1 and central character psi "
               "on %d (field, coefficient) instances" % checked)


def test_acceptance_2_weil_factor_identities():
    rng = random.Random(101)
    # exhaustive Hilbert identity over F_q, q <= 9
    for fq in (FqField(3), FqField(5), FqField(7), FqField(3, 2)):
        psi = AdditiveCharacter(fq)
        one = fq.element(1)
        for a in fq.elements()[1:]:
            for b in fq.elements()[1:]:
                assert hilbert_via_omega(fq, psi, a, b) == 1
        # scaling, transport, orthogonal sums (sampled)
        q = random_form(fq, rng, 2, nondegenerate=True)
        base = omega(q, psi)
        for _ in range(20):
            lam = Fraction(rng.randrange(1, 30), rng.randrange(1, 9))
            assert omega(q, psi, lam) == base * lam
        q1 = random_form(fq, rng, 1, nondegenerate=True)
        z = fq.element(0)
        big = [[q1.gram[0][0], z, z],
               [z, q.gram[0][0], q.gram[0][1]],
               [z, q.gram[1][0], q.gram[1][1]]]
        assert omega(QuadraticForm(fq, big), psi) == omega(q1, psi) * base
    # p-adic Hilbert identity, >= 50 random pairs per p
    for p in (3, 5, 7, 13):
        fld = QpField(p)
        psi = AdditiveCharacter(fld)
        for _ in range(50):
            a, b = random_unit(fld, rng), random_unit(fld, rng)
            assert hilbert_via_omega(fld, psi, a, b) == hilbert(fld, a, b)
        # transport: Omega(Q_{s^2 a}) = |s|^{-1} Omega(Q_a)
        for _ in range(10):
            a, s = random_unit(fld, rng), random_unit(fld, rng)
            lhs = omega_ratio(fld, psi, s * s * a, a)
            assert lhs == Fraction(p) ** fld.val(s) * \
                CyclotomicRing(p).one()
    _report(2, "Weil factor identities a)-g): exhaustive over F_q (q <= 9), "
               "50 pairs per p in {3,5,7,13} over Q_p")


def test_acceptance_3_hasse_product_formula():
    rng = random.Random(103)
    count = 0
    fields = [FqField(3), FqField(5), FqField(7), FqField(3, 2),
              QpField(3), QpField(5), QpField(7)]
    while count < 100:
        field = fields[count % len(fields)]
        psi = AdditiveCharacter(field)
        dim = rng.randrange(1, 5)
        q = random_form(field, rng, dim, nondegenerate=True)
        omega_diag_product(q, psi)
        count += 1
    _report(3, "Hasse-invariant product formula: two independent paths agree "
               "on %d random forms of dim <= 4" % count)


def test_acceptance_4_fourier_normalization():
    rng = random.Random(104)
    cases = 0
    for (p, f) in ((3, 1), (5, 1), (7, 1), (3, 2)):
        fq = FqField(p, f)
        psi = AdditiveCharacter(fq)
        for m in (1, 2):
            if fq.q ** m > 81:
                continue
            # a random symmetric invertible rho plus the identity rho
            rhos = [linalg.identity(fq, m)]
            while True:
                g = [[fq.element(rng.randrange(fq.q)) for _ in range(m)]
                     for _ in range(m)]
                for i in range(m):
                    for j in range(i, m):
                        g[j][i] = g[i][j]
                try:
                    if linalg.det(linalg.mat(g), fq) != fq.zero():
                        rhos.append(linalg.mat(g))
                        break
                except ZeroDivisionError:
                    continue
            for rho in rhos:
                fm = fourier_matrix(fq, psi, rho)
                eps = epsilon(fq, psi, rho)
                f2 = linalg.mat_mul(fm, fm)
                pts = [()]
                for _ in range(m):
                    pts = [h + (e,) for h in pts for e in fq.elements()]
                idx = {ptv: i for i, ptv in enumerate(pts)}
                zero = fq and f2[0][0] - f2[0][0]
                one = CyclotomicRing(p).one()
                for i, ptv in enumerate(pts):
                    j = idx[tuple(-x for x in ptv)]
                    for k in range(len(pts)):
                        want = one * eps if k == j else zero
                        assert f2[k][i] == want
                f4 = linalg.mat_mul(f2, f2)
                eps2 = one * (eps * eps)
                for i in range(len(pts)):
                    for j in range(len(pts)):
                        assert f4[i][j] == (eps2 if i == j else zero)
                cases += 1
    f3 = FqField(3)
    assert epsilon(f3, AdditiveCharacter(f3), [[f3.element(1)]]) == -1
    _report(4, "Fourier normalization: F^2 = eps*parity and F^4 = eps^2 for "
               "%d (q, m, rho) instances, eps = -1 over F_3" % cases)


def test_acceptance_5_finite_cocycle_trivial():
    f3 = FqField(3)
    sp1 = SympSpace(f3, 1)
    ctx1 = WeilContext(sp1, AdditiveCharacter(f3))
    group = enumerate_sp2(sp1)
    pairs = 0
    for g1 in group:
        for g2 in group:
            assert cocycle_operator(ctx1, g1, g2) == ctx1.one()
            pairs += 1
    assert pairs == 576
    sp2 = SympSpace(f3, 2)
    ctx2 = WeilContext(sp2, AdditiveCharacter(f3))
    rng = random.Random(105)
    big_pairs = 10 ** 4
    for _ in range(big_pairs):
        g1 = random_symplectic(sp2, rng, length=8)
        g2 = random_symplectic(sp2, rng, length=8)
        assert cocycle_operator(ctx2, g1, g2) == ctx2.one()
    # section multiplicativity with characteristic-2 coefficients
    f4 = FiniteField(2, 2)
    ctx_c2 = WeilContext(sp1, AdditiveCharacter(f3, f4))
    rep = split_checks(ctx_c2)
    assert rep == {"multiplicative": True, "pairs": 576}
    ctx_c2_sp4 = WeilContext(sp2, AdditiveCharacter(f3, f4))
    for _ in range(200):
        g1 = random_symplectic(sp2, rng, length=8)
        g2 = random_symplectic(sp2, rng, length=8)
        assert cocycle_operator(ctx_c2_sp4, g1, g2) == ctx_c2_sp4.one()
    _report(5, "finite cocycle trivial: all 576 pairs in Sp2(F_3), %d random "
               "pairs in Sp4(F_3), char-2 coefficient splitting" % big_pairs)


def test_acceptance_6_padic_cocycle():
    rng = random.Random(106)
    triples_m1 = 0
    triples_m2 = 0
    for p in (3, 5, 7):
        fld = QpField(p)
        for m, count in ((1, 340), (2, 67)):
            sp = SympSpace(fld, m)
            for _ in range(count):
                g1 = random_symplectic(sp, rng, length=5, scale=2)
                g2 = random_symplectic(sp, rng, length=5, scale=2)
                g3 = random_symplectic(sp, rng, length=5, scale=2)
                c12 = cocycle_formula(sp, g1, g2)
                assert c12 in (1, -1)
                lhs = c12 * cocycle_formula(sp, linalg.mat_mul(g1, g2), g3)
                rhs = cocycle_formula(sp, g1, linalg.mat_mul(g2, g3)) * \
                    cocycle_formula(sp, g2, g3)
                assert lhs == rhs
                if m == 1:
                    triples_m1 += 1
                else:
                    triples_m2 += 1
    assert triples_m1 >= 1000 and triples_m2 >= 200
    # Lemma-level identities over Q_3 and Q_7 at m = 2
    for p in (3, 7):
        fld = QpField(p)
        sp = SympSpace(fld, 2)
        mone = hilbert(fld, Fraction(-1), Fraction(-1))
        for s1 in (set(), {0}, {1}, {0, 1}):
            for s2 in (set(), {0}, {1}, {0, 1}):
                l = len(s1 & s2)
                assert cocycle_formula(sp, sp.w_subset(s1),
                                       sp.w_subset(s2)) == \
                    mone ** ((l * (l + 1)) // 2)
        for _ in range(8):
            g = random_symplectic(sp, rng, length=5, scale=2)
            par = random_symplectic(sp, rng, length=3, scale=2)
            if not sp.in_parabolic(par):
                par = sp.mul_unipotent(sp.identity(),
                                       [[fld.element(1), fld.element(0)],
                                        [fld.element(0), fld.element(1)]])
            sym = hilbert(fld, x_invariant(sp, par).rep,
                          x_invariant(sp, g).rep)
            assert cocycle_formula(sp, par, g) == sym
            assert cocycle_formula(sp, g, par) == sym
        w = sp.w_subset({0, 1})
        for _ in range(6):
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
            expect = hilbert(fld, Fraction(-2), linalg.det(rho, fld)) * \
                QuadraticForm(fld, rho).hasse()
            assert cocycle_formula(sp, g1, w) == expect
    # operator path vs formula path, m = 1, 100 random pairs
    agree = 0
    for p, count in ((3, 40), (5, 40), (7, 20)):
        sp = SympSpace(QpField(p), 1)
        for _ in range(count):
            g1 = random_symplectic(sp, rng, length=4, scale=2)
            g2 = random_symplectic(sp, rng, length=4, scale=2)
            cf = cocycle_formula(sp, g1, g2)
            co = cocycle_operator_padic(p, g1, g2)
            assert co == co.ring.one() * cf
            agree += 1
    assert agree == 100
    _report(6, "p-adic cocycle: +-1-valued, %d + %d cocycle identities, "
               "Lemma a)/b)/w_S-u_rho identities, operator == formula on "
               "%d pairs" % (triples_m1, triples_m2, agree))


def test_acceptance_7_m_bracket():
    rng = random.Random(107)
    checked = 0
    for q in (3, 5):
        fq = FqField(q)
        sp = SympSpace(fq, 1)
        ctx = WeilContext(sp, AdditiveCharacter(fq))
        group = enumerate_sp2(sp)
        model = SchrodingerModel(sp, ctx.psi)
        for _ in range(25):
            g = group[rng.randrange(len(group))]
            m = m_bracket(ctx, g)
            for hv in ((1, 0), (0, 1)):
                h = delta(sp, tuple(fq.element(x) for x in hv))
                lhs = linalg.mat_mul(m, model.rho(h).to_dense(ctx.zero()))
                hg = delta(sp, linalg.mat_vec(g, h.w, fq))
                rhs = linalg.mat_mul(model.rho(hg).to_dense(ctx.zero()), m)
                assert lhs == rhs
            r = scalar_ratio(m, sigma(ctx, g), ctx.zero())
            assert r is not None and not r.is_zero()
            checked += 1
        done = 0
        while done < 25:
            g1 = group[rng.randrange(len(group))]
            g2 = sp.identity()
            for _ in range(rng.randrange(1, 6)):
                g2 = linalg.mat_mul(g2, g1)
            m1, m2 = m_bracket(ctx, g1), m_bracket(ctx, g2)
            assert linalg.mat_mul(m1, m2) == linalg.mat_mul(m2, m1)
            done += 1
    _report(7, "M[g]: intertwining + Schur proportionality on %d elements, "
               "50 commuting pairs" % checked)


def test_acceptance_8_weil_rep_structure():
    dims_seen = {}
    for q in (3, 5, 7):
        fq = FqField(q)
        sp = SympSpace(fq, 1)
        ctx = WeilContext(sp, AdditiveCharacter(fq))
        group = enumerate_sp2(sp)
        inv = {g: linalg.mat_inv(g, fq) for g in group}
        # parity projectors from the split section at -Id
        minus = mat_scal(fq.element(-1), sp.identity())
        pmat = sigma(ctx, minus)
        n = len(ctx.counts.ypoints)
        one = ctx.one()
        half = one * Fraction(1, 2)
        ident = linalg.identity(ctx.psi.coeff_ring, n)
        eplus = mat_scal(half, mat_add(ident, pmat))
        eminus = mat_scal(half, linalg.mat_sub(ident, pmat))
        chi = {g: trace(sigma(ctx, g)) for g in group}
        chi_p = {g: trace(linalg.mat_mul(sigma(ctx, g), eplus))
                 for g in group}
        chi_m = {g: trace(linalg.mat_mul(sigma(ctx, g), eminus))
                 for g in group}
        inv_map = {g: inv[g] for g in group}
        norm_full = char_inner(group, chi, chi, inv_map)
        assert norm_full == one * 2
        for ch in (chi_p, chi_m):
            assert char_inner(group, ch, ch, inv_map) == one
        d1 = chi_p[sp.identity()]
        d2 = chi_m[sp.identity()]
        dims = sorted([d1, d2], key=lambda v: str(v))
        target = {one * Fraction(q + 1, 2), one * Fraction(q - 1, 2)}
        assert {d1, d2} == target
        dims_seen[q] = ((q + 1) // 2, (q - 1) // 2)
    _report(8, "Weil representation structure: constituents of dims "
               "(q+1)/2, (q-1)/2, each irreducible, q in {3,5,7}: %s"
            % (dims_seen,))


def test_acceptance_9_theta_desk_scale():
    f3 = FqField(3)
    v = QuadraticForm(f3, [[1]])
    pair = DualPair(v, 1)
    ctx = WeilContext(pair.space, AdditiveCharacter(f3))
    chars = linear_pm_characters(
        pair.h1_list, partial(linalg.mat_mul, fld=pair.field.indices))
    dims = {}
    for chi in chars:
        name = "trivial" if all(s == 1 for s in chi.values()) else "sign"
        dims[name] = ThetaLift(pair, ctx, chi).dim
    assert dims == {"trivial": 2, "sign": 1}
    rep = congruence_check(v, 1, 7)
    assert rep["idempotent_reduction"] is True
    for r in rep["lifts"]:
        assert r["irreducible_char0"] and r["irreducible_charl"]
    with pytest.raises(ValueError):
        congruence_check(v, 1, 2)
    _report(9, "theta at desk scale: Theta(trivial)=2, Theta(sign)=1, "
               "l = 7 idempotent + Brauer-character congruences, "
               "irreducibility preserved, l = 2 refused")


def test_acceptance_10_determinism():
    def run():
        return subprocess.run(
            [sys.executable, "-m", "weilmod.cli", "selfcheck", "--seed",
             "42"], capture_output=True)
    a, b = run(), run()
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout and a.stdout
    _report(10, "determinism: selfcheck --seed 42 is byte-identical across "
                "two runs")
