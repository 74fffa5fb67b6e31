import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_form, random_unit
from weilmod import linalg
from weilmod.basefield import AdditiveCharacter, FqField, QpField
from weilmod.coeff import Cyc, CyclotomicRing, FiniteField
from weilmod.quadratic import QuadraticForm, hilbert, square_class
from weilmod.weilfactor import (classical_weil_factor, convolution, epsilon,
                                fourier_matrix, fourier_normalizer,
                                gauss_sum, hilbert_via_omega, omega,
                                omega1, omega1_padic,
                                omega_diag_product, omega_ratio)


def omega_brute_padic(q_form, depth):
    """Truncated lattice sum  int_{(p^-depth Z_p)^r} psi(Q(x)) dx  for the
    level-0 psi and mu(Z_p^r) = 1, exact over (p^-depth Z_p / p^n' Z_p)^r
    at a refinement n' making psi(Q(x)) constant: the reference of
    omega1_padic's closed form, and in higher dimension of omega."""
    field = q_form.field
    p = field.p
    comp, gc = q_form.nondegenerate_part()
    r = len(gc)
    if r == 0:
        return CyclotomicRing(p).one()
    vmin = min(field.val(gc[i][j]) for i in range(r) for j in range(r)
               if gc[i][j] != 0)
    nprime = max(depth - vmin, (-vmin + 1) // 2, 0)
    count = p ** (depth + nprime)
    level = max(1, 2 * depth - vmin)
    ring = CyclotomicRing(p, level)
    pl = p ** level
    counts = [0] * pl
    # integer Gram scaled so Q(k/p^depth) = k^T C k mod p^level exactly
    cmat = []
    for row in gc:
        crow = []
        for x in row:
            s = Fraction(x) * p ** (level - 2 * depth) if \
                level >= 2 * depth else Fraction(x) / p ** (2 * depth - level)
            if s.denominator % p == 0:
                raise RuntimeError("level estimate too small")
            crow.append((s.numerator * pow(s.denominator, -1, pl)) % pl)
        cmat.append(crow)
    for ks in itertools.product(range(count), repeat=r):
        acc = 0
        for i in range(r):
            ki = ks[i]
            row = cmat[i]
            for j in range(r):
                acc += ki * row[j] * ks[j]
        counts[acc % pl] += 1
    val = ring.element(counts)
    return (val * Fraction(1, p ** (r * nprime))).compress()


def _psi(field, ring=None):
    return AdditiveCharacter(field, ring)


def test_omega_zero_form_is_point_mass():
    f3 = FqField(3)
    q0 = QuadraticForm(f3, [[0]])
    w = omega(q0, _psi(f3))
    assert w == CyclotomicRing(3).one()
    assert omega(q0, _psi(f3), Fraction(5, 2)) == \
        CyclotomicRing(3).from_fraction(Fraction(5, 2))


def test_omega_f3_frozen_gauss_sum():
    f3 = FqField(3)
    q1 = QuadraticForm(f3, [[1]])
    w = omega(q1, _psi(f3))
    r3 = CyclotomicRing(3)
    assert w == r3.from_int(1) + 2 * r3.zeta()
    assert w * w == -3


def test_omega_ratio_examples():
    f3 = FqField(3)
    psi = _psi(f3)
    assert omega_ratio(f3, psi, f3.element(2), f3.element(2)) == \
        CyclotomicRing(3).one()
    assert omega_ratio(f3, psi, f3.element(2), f3.element(1)) == -1


def test_omega_minus_one_square_identity():
    # (Omega_{-1,1})^2 = (-1,-1)_F on both flavors
    for field in (FqField(3), FqField(5), FqField(7), FqField(3, 2)):
        psi = _psi(field)
        one = field.element(1)
        r = omega_ratio(field, psi, -one, one)
        assert r * r == CyclotomicRing(field.p).one()
    for p in (3, 5, 7):
        fld = QpField(p)
        psi = _psi(fld)
        r = omega_ratio(fld, psi, Fraction(-1), Fraction(1))
        val = r * r
        expect = hilbert(fld, Fraction(-1), Fraction(-1))
        assert val == CyclotomicRing(p).from_int(expect)


def test_omega_scaling_law(rng):
    f5 = FqField(5)
    psi = _psi(f5)
    q = QuadraticForm(f5, [[1, 0], [0, 3]])
    base = omega(q, psi)
    for _ in range(20):
        lam = Fraction(rng.randrange(1, 40), rng.randrange(1, 17))
        w = omega(q, psi, lam)
        assert w == base * lam


def test_omega_isometry_transport(rng):
    # Omega_mu(psi o Q_phi) = |phi|^{-1} Omega_mu(psi o Q), finite flavor,
    # random GL-substitutions (|phi| = 1)
    f5 = FqField(5)
    psi = _psi(f5)
    for _ in range(15):
        q = random_form(f5, rng, 2, nondegenerate=True)
        while True:
            c = [[f5.element(rng.randrange(5)) for _ in range(2)]
                 for _ in range(2)]
            try:
                if linalg.det(linalg.mat(c), f5) != f5.zero():
                    break
            except ZeroDivisionError:
                continue
        cm = linalg.mat(c)
        g2 = linalg.mat_mul(linalg.mat_mul(linalg.transpose(cm), q.gram), cm)
        q2 = QuadraticForm(f5, g2)
        w1 = omega(q, psi)
        w2 = omega(q2, psi)
        assert w1 == w2


@pytest.mark.parametrize("p,f", [(5, 1), (3, 2)], ids=["F5", "F9"])
def test_omega1_twisted_is_gauss_sum_of_twist(p, f):
    # sum_x psi_c(a x^2) = sum_x psi_1(c a x^2) term by term
    fq = FqField(p, f)
    psi1 = AdditiveCharacter(fq)
    for c in fq.elements():
        if not c:
            continue
        psi_c = AdditiveCharacter(fq, twist=c)
        for a in fq.elements():
            assert omega1(fq, psi_c, a) == gauss_sum(fq, c * a, psi1)


def test_omega_padic_square_extraction():
    # the s^2-identity against direct stabilized sums
    psi3 = _psi(QpField(3))
    for p in (3, 5):
        fld = QpField(p)
        psi = _psi(fld)
        for a in (Fraction(1), Fraction(2), Fraction(p), Fraction(2 * p)):
            w = omega1_padic(p, a)
            w_scaled = omega1_padic(p, a * p * p)
            assert w_scaled == w * p
            w_down = omega1_padic(p, a / (p * p))
            assert w_down * p == w


def test_omega_padic_stabilization():
    for p in (3, 5):
        for a in (Fraction(1), Fraction(2), Fraction(p), Fraction(1, p)):
            v = QpField(p).val(a)
            n0 = (-v + 1) // 2 + 1
            q = QuadraticForm(QpField(p), [[a]])
            w1 = omega_brute_padic(q, n0)
            w2 = omega_brute_padic(q, n0 + 1)
            w3 = omega_brute_padic(q, n0 + 2)
            assert w1 == w2 == w3


def test_omega_orthogonal_sum(rng):
    f3 = FqField(3)
    psi = _psi(f3)
    for _ in range(10):
        q1 = random_form(f3, rng, 1, nondegenerate=True)
        q2 = random_form(f3, rng, 2, nondegenerate=True)
        z = f3.element(0)
        big = [[q1.gram[0][0], z, z],
               [z, q2.gram[0][0], q2.gram[0][1]],
               [z, q2.gram[1][0], q2.gram[1][1]]]
        qb = QuadraticForm(f3, big)
        w = omega(qb, psi)
        w1 = omega(q1, psi)
        w2 = omega(q2, psi)
        assert w == w1 * w2


def test_omega_degenerate_through_radical():
    f3 = FqField(3)
    psi = _psi(f3)
    q = QuadraticForm(f3, [[1, 0], [0, 0]])
    w = omega(q, psi)
    q1 = QuadraticForm(f3, [[1]])
    assert w == omega(q1, psi)


def test_hilbert_identity_exhaustive_finite():
    for field in (FqField(3), FqField(5), FqField(7), FqField(3, 2)):
        psi = _psi(field)
        for a in field.elements()[1:]:
            for b in field.elements()[1:]:
                assert hilbert_via_omega(field, psi, a, b) == 1


def test_hilbert_identity_padic(rng):
    for p in (3, 5, 7, 13):
        fld = QpField(p)
        psi = _psi(fld)
        for _ in range(50):
            a = random_unit(fld, rng)
            b = random_unit(fld, rng)
            assert hilbert_via_omega(fld, psi, a, b) == hilbert(fld, a, b)


def test_hilbert_identity_padic_large_prime():
    # all 16 pairs of Q_101's square-class representatives: the lattice sum
    # the closed form replaced needed a counts list of 101^4 entries
    fld = QpField(101)
    psi = _psi(fld)
    u0 = fld.nonresidue()
    reps = [Fraction(1), Fraction(u0), Fraction(101), Fraction(101 * u0)]
    for a, b in itertools.product(reps, repeat=2):
        assert hilbert_via_omega(fld, psi, a, b) == hilbert(fld, a, b)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_omega1_padic_closed_form_matches_lattice_sum(p):
    # every square class at every valuation v in -3..3: the closed form
    # against the lattice sum on the class representative, stable at two
    # depths, times p^(v // 2) (the s^2-identity)
    fld = QpField(p)
    for v in range(-3, 4):
        for u in (1, fld.nonresidue()):
            a = u * Fraction(p) ** v
            rep = square_class(fld, a).rep
            q = QuadraticForm(fld, [[rep]])
            depth = (-fld.val(rep) + 1) // 2 + 1
            ref = omega_brute_padic(q, depth)
            assert ref == omega_brute_padic(q, depth + 1)
            ref = ref * Fraction(p) ** (v // 2)
            got = omega1_padic(p, a)
            assert (got.ring, got.coeffs, got.den) == \
                (ref.ring, ref.coeffs, ref.den)


def test_omega_brute_oracle_2dim():
    # independent multi-dimensional lattice sums vs the diagonal fast path;
    # integer Gram entries keep the brute sums desk-sized
    rng = random.Random(41)
    for p, trials, depth in ((3, 4, 2), (5, 2, 1)):
        fld = QpField(p)
        psi = _psi(fld)
        done = 0
        while done < trials:
            g = [[Fraction(rng.randrange(-4, 5)) for _ in range(2)]
                 for _ in range(2)]
            g[0][1] = g[1][0]
            q = QuadraticForm(fld, g)
            if not q.is_nondegenerate():
                continue
            fast = omega(q, psi)
            assert fast == omega_brute_padic(q, depth)
            assert fast == omega_brute_padic(q, depth + 1)
            done += 1


def test_diag_product_formula(rng):
    for field in (FqField(3), FqField(5), QpField(3), QpField(5)):
        psi = _psi(field)
        for _ in range(25):
            q = random_form(field, rng, rng.randrange(1, 5),
                            nondegenerate=True)
            omega_diag_product(q, psi)  # raises on mismatch


def test_fourier_squares_and_epsilon():
    # F^2 f = eps f(-x), F^4 = eps^2, eps from the closed formula
    cases = [(FqField(3), [[1]]), (FqField(3), [[2]]),
             (FqField(5), [[1]]), (FqField(7), [[3]]),
             (FqField(3), [[1, 0], [0, 2]]), (FqField(3, 2), [[1]])]
    for field, rho in cases:
        psi = _psi(field)
        fm = fourier_matrix(field, psi, [[field.element(x) for x in row]
                                         for row in rho])
        f2 = linalg.mat_mul(fm, fm)
        eps = epsilon(field, psi, [[field.element(x) for x in row]
                                   for row in rho])
        n = len(fm)
        m = len(rho)
        # parity permutation on lexicographic F_q^m tuples
        elts = field.elements()
        idx = {}
        pts = [()]
        for _ in range(m):
            pts = [h + (e,) for h in pts for e in elts]
        for i, ptv in enumerate(pts):
            idx[ptv] = i
        zero = fm[0][0] - fm[0][0]
        for i, ptv in enumerate(pts):
            j = idx[tuple(-x for x in ptv)]
            for k in range(n):
                assert f2[k][i] == (eps * CyclotomicRing(field.p).one()
                                    if k == j else zero) * 1 \
                    if k == j else f2[k][i] == zero
        f4 = linalg.mat_mul(f2, f2)
        one = CyclotomicRing(field.p).one()
        eps2 = one * eps * eps
        for i in range(n):
            for j in range(n):
                assert f4[i][j] == (eps2 if i == j else zero)


def test_epsilon_f3_is_minus_one():
    f3 = FqField(3)
    assert epsilon(f3, _psi(f3), [[f3.element(1)]]) == -1


def test_epsilon_f5_is_plus_one():
    f5 = FqField(5)
    assert epsilon(f5, _psi(f5), [[f5.element(1)]]) == 1


def test_epsilon_square_matches_symbol():
    q3 = QpField(3)
    eps = epsilon(q3, _psi(q3), [[Fraction(1)]])
    assert eps * eps == hilbert(q3, Fraction(-1), Fraction(-1))


def test_convolution_theorem(rng):
    f3 = FqField(3)
    psi = _psi(f3)
    rho = [[f3.element(1)]]
    fm = fourier_matrix(f3, psi, rho)
    pts = [(x,) for x in f3.elements()]
    r3 = CyclotomicRing(3)
    for _ in range(10):
        f = {ptv: r3.from_int(rng.randrange(-4, 5)) for ptv in pts}
        g = {ptv: r3.from_int(rng.randrange(-4, 5)) for ptv in pts}
        conv = convolution(f3, psi, rho, f, g)
        fv = [f[ptv] for ptv in pts]
        gv = [g[ptv] for ptv in pts]
        cv = [conv[ptv] for ptv in pts]
        lhs = linalg.mat_vec(fm, cv, r3)
        rf = linalg.mat_vec(fm, fv, r3)
        rg = linalg.mat_vec(fm, gv, r3)
        assert list(lhs) == [a * b for a, b in zip(rf, rg)]


def test_normalizer_independent_of_measure():
    # mu_rho = Omega^{-1} mu does not depend on mu: scaling both cancels
    f5 = FqField(5)
    psi = _psi(f5)
    rho = [[f5.element(2)]]
    w1 = fourier_normalizer(f5, psi, rho)
    q = QuadraticForm(f5, [[f5.element(1)]])
    lam = Fraction(7, 3)
    w2 = omega(QuadraticForm(f5, [[f5.element(1)]]), psi, lam)
    assert w2 == omega(q, psi) * lam
    # rho = 2: Q_{rho/2} = <1> is q, so the normalized masses agree
    assert lam * w2.inv() == w1.inv()


def test_classical_weil_factor_optional_path():
    # with sqrt(q) adjoined: omega(psi o Q_{rho/2}) omega(psi o Q_{-rho/2}) = 1
    f3 = FqField(3)
    psi = _psi(f3)
    r3 = CyclotomicRing(3)
    # i sqrt(3) = 1 + 2 zeta_3 lies in Z[zeta_3]; q = 3 has no rational sqrt,
    # so pass sqrt(-3)-based data: use the Gauss sum as sqrt(chi(-1) q)
    g = gauss_sum(f3, f3.element(1), psi)
    # g^2 = -3, so g is a square root of -3 = chi(-1) 3; the classical factor
    # for rho and -rho must multiply to 1 with any consistent choice
    w_plus = classical_weil_factor(f3, psi, [[f3.element(2)]], g)
    w_minus = classical_weil_factor(f3, psi, [[f3.element(-2)]], g)
    prod = w_plus * w_minus
    # |rho|_mu = q and Omega(rho/2) Omega(-rho/2) = |rho| implies
    # prod = q / g^2 = 3 / -3 = -1 for this sqrt choice; consistency check:
    assert prod == r3.from_int(-1)


def test_omega_value_record():
    f3 = FqField(3)
    q = QuadraticForm(f3, [[1, 0], [0, 2]])
    w = omega(q, _psi(f3))
    assert not w.is_zero()


@pytest.mark.parametrize("field", [QpField(5), FqField(3)])
def test_omega_requires_psi(field):
    # there is no default character: a call without psi is a TypeError
    # naming psi, over Q_p as over F_q
    q = QuadraticForm(field, [[field.element(1)]])
    for fn in (omega, omega_diag_product):
        with pytest.raises(TypeError, match="psi"):
            fn(q)


def _exact(v):
    # the ring and the stored representation, not just the printed value
    if isinstance(v, Cyc):
        return "%r %r/%d" % (v.ring, v.coeffs, v.den)
    return "%r %d" % (v.field, v.i)


def _finite_omega_cases():
    # (form, psi) over F_3, F_5 and F_9 with Z[zeta_p] and F_{l^d}
    # coefficients and twists 1 and 2; eight seeded forms of each dimension
    # 1..3, degenerate ones kept
    rng = random.Random(16)
    for field, rings in ((FqField(3), (CyclotomicRing(3), FiniteField(7))),
                         (FqField(5), (CyclotomicRing(5), FiniteField(11))),
                         (FqField(3, 2), (CyclotomicRing(3),
                                          FiniteField(2, 2)))):
        for ring in rings:
            for twist in (1, 2):
                psi = AdditiveCharacter(field, ring, twist)
                for dim in (1, 2, 3):
                    for _ in range(8):
                        yield random_form(field, rng, dim), psi


def _padic_omega_cases():
    # seeded forms over Q_3, Q_5 and Q_7 whose entries have denominators
    # 1, 2 and 3, level-0 psi and its twist by 2
    rng = random.Random(17)
    for p in (3, 5, 7):
        fld = QpField(p)
        for twist in (1, 2):
            psi = AdditiveCharacter(fld, twist=twist)
            for dim in (1, 2, 3):
                for _ in range(8):
                    yield random_form(fld, rng, dim), psi


def test_omega_is_the_character_sum():
    # the definition over F_q: sum over F_q^n of psi(Q(x)) is
    # q^{dim rad Q} Omega(psi o Q) for the counting measure
    degenerate = 0
    for q, psi in _finite_omega_cases():
        field = q.field
        acc = psi.coeff_ring.zero()
        for x in itertools.product(field.elements(), repeat=q.m):
            acc = acc + psi(field.dot(x, linalg.mat_vec(q.gram, x, field)))
        rad = len(q.radical())
        degenerate += rad > 0
        w = omega(q, psi)
        assert acc == w * field.q ** rad, (q.gram, psi.twist)
    assert degenerate


def test_omega_digest():
    # every Omega value of the two case lists, ring and representation
    # included, as the brute-force sum over F_q^r and the separate 1-d
    # lattice sum gave them
    h = hashlib.sha256()
    for q, psi in itertools.chain(_finite_omega_cases(),
                                  _padic_omega_cases()):
        w = omega(q, psi)
        h.update(_exact(w).encode() + b"\n")
    assert h.hexdigest() == \
        "87ab88504446379904aedde58baca8816163d8b383810b6dd760ae18e96a52db"


def test_gauss_sum_cache_tells_coefficient_fields_apart():
    # F_7 as a FiniteField and as an FqField: the same descriptor,
    # different fields, both holding zeta_3
    f3 = FqField(3)
    f7 = FiniteField(7)
    f7b = FqField(7)
    assert f7b is not f7 and repr(f7) == repr(f7b) == "F_7"
    for ring in (f7, f7b):
        g = gauss_sum(f3, 1, AdditiveCharacter(f3, ring))
        assert g.field is ring
        assert g == sum((AdditiveCharacter(f3, ring)(x * x)
                         for x in f3.elements()), ring.zero())


def test_omega1_padic_reads_a_cached_gauss_sum(monkeypatch):
    # an odd valuation needs g(u) over F_p; once _GAUSS_CACHE holds it, a
    # second call builds no character of F_p (p - 1 products in Z[zeta_p]
    # for its table of powers), so it makes no product of two ring
    # elements at all
    products = []
    real = Cyc.__mul__

    def counted(self, other):
        if isinstance(other, Cyc):
            products.append(self.ring)
        return real(self, other)
    for p, a in ((7, Fraction(3, 7)), (101, Fraction(101)),
                 (101, Fraction(5, 101 ** 3))):
        first = omega1_padic(p, a)
        with monkeypatch.context() as patch:
            patch.setattr(Cyc, "__mul__", counted)
            assert omega1_padic(p, a) == first
        assert products == [], (p, a)
