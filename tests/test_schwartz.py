import random
from fractions import Fraction

from weilmod import linalg
from weilmod.basefield import AdditiveCharacter, QpField, residue_rep
from weilmod.coeff import CyclotomicRing
from weilmod.schwartz import (PhaseStepFunction, PhaseTerm,
                              cocycle_operator_padic, sigma_padic_matrix)


def F(x, y=1):
    return Fraction(x, y)


def test_eval_examples():
    f = PhaseStepFunction.indicator(5)
    r5 = CyclotomicRing(5)
    assert f.eval(7) == r5.one()
    assert f.eval(F(1, 5)).is_zero()
    # psi(y^2) 1_{Z_3} at y = 1: level-0 psi trivial on Z_3
    g = PhaseStepFunction(3, [PhaseTerm(CyclotomicRing(3).one(), F(0), 0,
                                        F(1), F(0))])
    assert g.eval(1) == CyclotomicRing(3).one()
    # on a deeper coset the quadratic phase is visible: psi((1/3)^2) = psi(1/9)
    g2 = PhaseStepFunction(3, [PhaseTerm(CyclotomicRing(3).one(), F(0), -1,
                                         F(1), F(0))])
    r9 = CyclotomicRing(3, 2)
    assert g2.eval(F(1, 3)) == r9.zeta()  # zeta_9^(1) since 1/9 has a = 1


def test_act_heisenberg_examples():
    p = 5
    f = PhaseStepFunction.indicator(p)
    r = CyclotomicRing(p)
    # central element scales by psi(t)
    g = f.act_heisenberg(0, 0, F(1, 5))
    assert g.eval(0) == r.zeta()
    # delta(f_1): translation; support of f(y + v) at v = -1 is 1 + Z_p = Z_p
    g2 = f.act_heisenberg(0, F(-1), 0)
    assert g2.eval(1) == r.one() and g2.eval(0) == r.one()
    g3 = f.act_heisenberg(0, F(1, 5), 0)
    assert g3.eval(F(-1, 5)) == r.one() and g3.eval(0).is_zero()
    # delta(e_1): linear phase, visible on a deep enough support
    fd = PhaseStepFunction.indicator(p, center=0, depth=-1)
    g4 = fd.act_heisenberg(1, 0, 0)
    v = g4.eval(F(1, 5))
    assert v == r.zeta() ** 4  # psi(-1/5) = zeta_5^{-1}


def test_act_heisenberg_homomorphism():
    rng = random.Random(3)
    p = 3
    f = PhaseStepFunction.indicator(p).act_heisenberg(F(1, 3), F(2), F(1, 2))
    for _ in range(40):
        u1, v1, t1 = [F(rng.randrange(-6, 7), rng.choice([1, 3]))
                      for _ in range(3)]
        u2, v2, t2 = [F(rng.randrange(-6, 7), rng.choice([1, 3]))
                      for _ in range(3)]
        # group law: (u1,v1,t1)(u2,v2,t2) with <w,w'> = u1 v2 - v1 u2
        t = t1 + t2 + (u1 * v2 - v1 * u2) / 2
        lhs = f.act_heisenberg(u2, v2, t2).act_heisenberg(u1, v1, t1)
        rhs = f.act_heisenberg(u1 + u2, v1 + v2, t)
        assert lhs.equals(rhs)


def test_act_parabolic_examples():
    p = 3
    f = PhaseStepFunction.indicator(p)
    r = CyclotomicRing(3)
    assert f.act_parabolic(1, 0).equals(f)
    # torus: 1_{Z_p} -> 1_{a^{-1} Z_p} support-wise (here f(ay))
    g = f.act_parabolic(F(1, 3), 0)
    assert g.eval(3) == r.one() and g.eval(1).is_zero()
    # wait: f(a y) with a = 1/3 is supported on y with y/3 in Z_p
    g2 = f.act_parabolic(3, 0)
    assert g2.eval(F(1, 3)) == r.one()
    # unipotent decorates with a quadratic phase
    g3 = f.act_parabolic(1, F(1, 3))
    assert g3.eval(1) == r.zeta() ** 2  # psi(b/2 y^2) = psi(1/6) = zeta^(1/6->)
    # value: psi((1*1/3/2)*1) = psi(1/6); 1/6 = a/3 with a = 6^{-1}*... check
    # exact: psi(1/6) = zeta_3^k with k = (6^{-1} mod 3)-scaled: 1/6 = 1/(2*3):
    # frac part of 1/6 mod Z_3 is 2/3 since 1/2 = 2 mod 3
    assert g3.eval(1) == r.zeta() ** 2


def test_parabolic_action_multiplicative():
    # the unnormalized P(X)-action (p, I_p) is a group morphism; the
    # normalized section picks up exactly the (x(p), x(p'))_F symbol
    from weilmod.quadratic import hilbert
    p = 5
    fld = QpField(p)
    rng = random.Random(9)
    f0 = PhaseStepFunction.indicator(p)
    probes = [f0, f0.act_heisenberg(1, F(1, 5), 0)]
    for _ in range(25):
        a1 = F(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 5]))
        b1 = F(rng.randrange(-5, 6), rng.choice([1, 5]))
        a2 = F(rng.choice([1, 2, 4]), rng.choice([1, 2, 5]))
        b2 = F(rng.randrange(-5, 6), rng.choice([1, 5]))
        a12 = a1 * a2
        b12 = a1 * b2 + b1 / a2
        for f in probes:
            lhs = f.act_parabolic(a2, b2).act_parabolic(a1, b1)
            rhs = f.act_parabolic(a12, b12)
            assert lhs.equals(rhs)
        s1 = sigma_padic_matrix(p, ((a1, b1), (0, 1 / a1)))
        s2 = sigma_padic_matrix(p, ((a2, b2), (0, 1 / a2)))
        s12 = sigma_padic_matrix(p, ((a12, b12), (0, 1 / a12)))
        sym = hilbert(fld, a1, a2)
        for f in probes:
            assert s1(s2(f)).equals(s12(f).scaled(
                CyclotomicRing(p).from_int(sym)))


def test_fourier_self_duality_and_parity():
    for p in (3, 5, 7):
        f = PhaseStepFunction.indicator(p)
        w = ((F(0), F(-1)), (F(1), F(0)))
        sw = sigma_padic_matrix(p, w)
        assert sw(f).equals(f)
        f1 = PhaseStepFunction.indicator(p, center=1, depth=1)
        fm = PhaseStepFunction.indicator(p, center=-1, depth=1)
        # sigma(w)^2 = eps * parity with eps = Omega_{-1,1} (-1, det)_F = +1
        assert sw(sw(f1)).equals(fm)


def test_fourier_gaussian_term():
    # a Gaussian with deep quadratic phase maps to a Gaussian, verified
    # pointwise against a truncated Riemann-type sum
    p = 3
    r = CyclotomicRing(3)
    c0 = F(1, 9)
    f = PhaseStepFunction(p, [PhaseTerm(r.one(), F(0), 0, c0, F(0))])
    w = ((F(0), F(-1)), (F(1), F(0)))
    g = sigma_padic_matrix(p, w)(f)
    assert g.terms
    psi = AdditiveCharacter(QpField(p))
    for y in (F(0), F(1), F(1, 3), F(2, 3), F(5, 9), F(2)):
        # sigma(w) f (y) = int psi(a y) f(-a) da; the support is Z_p, so sum
        # over integer representatives of Z_p / p^M Z_p with mass p^-M
        M = 4
        acc = None
        stepc = F(1, p ** M)
        for k in range(p ** M):
            v = f.eval(-k)
            if v.is_zero():
                continue
            t = psi(F(k) * y) * v * stepc
            acc = t if acc is None else acc + t
        got = g.eval(y)
        assert acc == got, (y, acc, got)


def _fourier_by_truncated_integral(f, y, extra_depth=2):
    """int psi(a y) f(-a) da evaluated cell-by-cell at a refinement where
    both f and psi(. y) are constant; exact."""
    p = f.p
    fld = QpField(p)
    d = max(f._needed_depth(), -fld.val(y) if y != 0 else 0, extra_depth)
    psi = AdditiveCharacter(fld)
    mass = F(1, p ** d)
    acc = None
    for c, v in f.value_table(d).items():
        t = psi(-c * y) * v * mass
        acc = t if acc is None else acc + t
    if acc is None:
        return CyclotomicRing(p).zero()
    return acc


def test_closure_random_words_with_integral_oracle():
    # random generator words stay representable; each Fourier step agrees
    # with the direct truncated-integral numerics at sample points
    rng = random.Random(17)
    p = 3
    w = ((F(0), F(-1)), (F(1), F(0)))
    sw = sigma_padic_matrix(p, w)
    words = 0
    fourier_checks = 0
    for trial in range(1000):
        f = PhaseStepFunction.indicator(p)
        for _ in range(rng.randrange(1, 7)):
            k = rng.randrange(3)
            if k == 0:
                f = f.act_heisenberg(
                    F(rng.randrange(-3, 4), rng.choice([1, 3])),
                    F(rng.randrange(-3, 4), rng.choice([1, 3])),
                    F(rng.randrange(-3, 4)))
            elif k == 1:
                f = f.act_parabolic(
                    F(rng.choice([1, 2, 3]), rng.choice([1, 3])),
                    F(rng.randrange(-3, 4), rng.choice([1, 3])))
            else:
                g = sw(f)
                if fourier_checks < 40:
                    for _ in range(3):
                        y = F(rng.randrange(-9, 10), rng.choice([1, 3]))
                        assert g.eval(y) == \
                            _fourier_by_truncated_integral(f, y)
                    fourier_checks += 1
                f = g
        assert isinstance(f, PhaseStepFunction)
        assert f.terms  # stays representable
        f.eval(F(1, 3))
        words += 1
    assert words == 1000 and fourier_checks >= 30


def test_canonical_idempotent_and_linearity():
    p = 3
    r = CyclotomicRing(3)
    t1 = PhaseTerm(r.one(), F(10, 3), 1, F(9), F(1, 3))
    f = PhaseStepFunction(p, [t1, t1])
    c1 = f.canonical()
    c2 = c1.canonical()
    assert c1.terms == c2.terms
    assert len(c1.terms) == 1  # merged equal-support equal-phase terms
    assert c1.eval(F(1, 3)) == f.eval(F(1, 3))
    g = f + f.scaled(r.from_int(-2))
    assert g.canonical().eval(F(1, 3)) == f.eval(F(1, 3)) * (-1)


def _z3_minus_3z3():
    # 1_{Z_3} - 1_{3Z_3}: both terms are centred at 0, where it is 0
    return PhaseStepFunction.indicator(3) + \
        PhaseStepFunction.indicator(3, depth=1).scaled(-1)


def test_nonzero_point_refines_past_zero_centres():
    f = _z3_minus_3z3()
    assert f.terms and all(f.eval(t.center).is_zero() for t in f.terms)
    y = f.nonzero_point()
    assert residue_rep(3, y, 1) == 1
    assert f.eval(y) == CyclotomicRing(3).one()


def test_equals_refines_past_canonical_terms():
    # the same function as 1_{1+3Z_3} + 1_{2+3Z_3}, with other terms
    f = _z3_minus_3z3()
    g = PhaseStepFunction.indicator(3, 1, 1) + \
        PhaseStepFunction.indicator(3, 2, 1)
    assert f.canonical().terms != g.canonical().terms
    assert f.equals(g) and g.equals(f)
    assert not f.equals(PhaseStepFunction.indicator(3))


def test_phase_reduction_respects_values():
    p = 3
    r = CyclotomicRing(3)
    rng = random.Random(23)
    for _ in range(30):
        quad = F(rng.randrange(-30, 31), rng.choice([1, 3, 9]))
        lin = F(rng.randrange(-30, 31), rng.choice([1, 3]))
        cen = F(rng.randrange(-9, 10), rng.choice([1, 3]))
        t = PhaseTerm(r.one(), cen, rng.randrange(-1, 3), quad, lin)
        f0 = PhaseStepFunction(p, [])
        f = PhaseStepFunction(p, [t])
        for _ in range(8):
            y = F(rng.randrange(-27, 28), rng.choice([1, 3, 9]))
            d = y - t.center
            if d != 0 and QpField(p).val(d) < t.depth:
                expected = r.zero()
            else:
                expected = t.coeff * AdditiveCharacter(QpField(p))(
                    t.quad * d * d + t.lin * d)
            assert f.eval(y) == expected


def test_cocycle_operator_sign_case():
    # c(torus(u0), [[1,0],[p,1]]) = (u0, p)_p = -1 for p = 5, u0 = 2
    p = 5
    t = ((F(2), F(0)), (F(0), F(1, 2)))
    g = ((F(1), F(0)), (F(5), F(1)))
    c = cocycle_operator_padic(p, t, g)
    assert c == -CyclotomicRing(5).one()
    c2 = cocycle_operator_padic(p, ((F(0), F(-1)), (F(1), F(0))),
                                ((F(0), F(-1)), (F(1), F(0))))
    assert c2 == CyclotomicRing(5).one()
