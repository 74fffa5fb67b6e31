"""Seeded invariant suite behind `weilmod selfcheck`: a fast deterministic
subset of the package's property checks, one pass/fail line per suite."""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .basefield import AdditiveCharacter, FqField, QpField
from .coeff import CyclotomicRing, FiniteField, ReductionMap
from .heisenberg import SympSpace, SchrodingerModel, commutant_dim_model, \
    central
from .metaplectic import (WeilContext, cocycle_formula, cocycle_operator,
                          enumerate_sp2, random_symplectic)
from .quadratic import QuadraticForm, hilbert, hilbert_oracle
from .schwartz import PhaseStepFunction, sigma_padic_matrix
from .weilfactor import hilbert_via_omega, omega_ratio


def run_all(seed):
    rng = random.Random(seed)
    report = []
    ok = True
    for name, fn in SUITES:
        try:
            fn(rng)
            report.append("PASS %s" % name)
        except RuntimeError as ex:  # a failed check; a bug propagates
            report.append("FAIL %s (seed %d): %s" % (name, seed, ex))
            ok = False
    return report, ok


def _expect(what, got, want):
    """Fail loudly, whatever the interpreter flags, with got and want."""
    if got != want:
        raise RuntimeError("%s: got %r, want %r" % (what, got, want))


def _coeff_ring_laws(rng):
    r9 = CyclotomicRing(3, 2)
    f7 = FiniteField(7)
    red = ReductionMap(CyclotomicRing(3), f7)
    r3 = CyclotomicRing(3)
    for _ in range(200):
        a = r3.element([rng.randrange(-9, 10) for _ in range(2)])
        b = r3.element([rng.randrange(-9, 10) for _ in range(2)])
        _expect("r(a b) for a = %r, b = %r" % (a, b), red(a * b),
                red(a) * red(b))
        _expect("r(a + b) for a = %r, b = %r" % (a, b), red(a + b),
                red(a) + red(b))
        if not a.is_zero():
            _expect("a a^-1 for a = %r" % (a,), a * a.inv(), r3.one())
    z9 = r9.zeta()
    _expect("zeta_9^9", z9 ** 9, r9.one())
    _expect("zeta_9^3 == 1", z9 ** 3 == r9.one(), False)


def _hilbert_suite(rng):
    for p in (3, 5, 7):
        fld = QpField(p)
        psi = AdditiveCharacter(fld)
        for _ in range(25):
            a = Fraction(rng.choice([1, 2, 3, 5, 7, 10, -1, -2]),
                         rng.choice([1, 1, 2, 3]))
            b = Fraction(rng.choice([1, 2, 3, 5, 7, 11, -3]),
                         rng.choice([1, 1, 2]))
            s = hilbert(fld, a, b)
            what = "(%s, %s)_%d" % (a, b, p)
            _expect(what + " vs the oracle", s, hilbert_oracle(fld, a, b))
            _expect(what + " vs Omega", s, hilbert_via_omega(fld, psi, a, b))


def _omega_scaling(rng):
    f5 = FqField(5)
    psi = AdditiveCharacter(f5)
    one = f5.one()
    for _ in range(10):
        a = f5.element(rng.randrange(1, 5))
        b = f5.element(rng.randrange(1, 5))
        lhs = omega_ratio(f5, psi, a * b, one)
        rhs = omega_ratio(f5, psi, a, one) * omega_ratio(f5, psi, b, one)
        _expect("Omega_{ab,1} for a = %r, b = %r" % (a, b), lhs,
                rhs * hilbert(f5, a, b))


def _finite_cocycle(rng):
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    ctx = WeilContext(sp, AdditiveCharacter(f3))
    group = enumerate_sp2(sp)
    for _ in range(60):
        g1 = group[rng.randrange(len(group))]
        g2 = group[rng.randrange(len(group))]
        _expect("operator cocycle at %r, %r" % (g1, g2),
                cocycle_operator(ctx, g1, g2), ctx.one())


def _padic_cocycle(rng):
    sp = SympSpace(QpField(3), 1)
    for _ in range(12):
        g1 = random_symplectic(sp, rng, length=4, scale=2)
        g2 = random_symplectic(sp, rng, length=4, scale=2)
        g3 = random_symplectic(sp, rng, length=4, scale=2)
        lhs = cocycle_formula(sp, g1, g2) * \
            cocycle_formula(sp, linalg.mat_mul(g1, g2, sp.field), g3)
        rhs = cocycle_formula(sp, g1, linalg.mat_mul(g2, g3, sp.field)) * \
            cocycle_formula(sp, g2, g3)
        what = "cocycle identity at %r, %r, %r" % (g1, g2, g3)
        _expect(what, lhs, rhs)
        _expect(what + " is +-1", lhs in (1, -1), True)


def _schwartz_closure(rng):
    p = 3
    f = PhaseStepFunction.indicator(p)
    w = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
    sw = sigma_padic_matrix(p, w)
    _expect("sigma(w)^2 on the indicator of Z_3", sw(sw(f)).equals(f), True)
    g = f.act_heisenberg(Fraction(1), Fraction(1, 3), Fraction(1, 2))
    h = g.act_parabolic(Fraction(3), Fraction(1, 2))
    _expect("sigma(w) h is nonzero", bool(sw(h).terms), True)


def _stone_von_neumann(rng):
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    model = SchrodingerModel(sp, AdditiveCharacter(f3))
    _expect("commutant dimension", commutant_dim_model(model), 1)
    for t in range(3):
        mono = model.rho(central(sp, t))
        _expect("rho(central %d) permutation" % t, list(mono.perm),
                list(range(len(mono.perm))))


def _theta_instance(rng):
    from .theta import zero_side
    f3 = FqField(3)
    v = QuadraticForm(f3, [[f3.one()]])
    dims = sorted(lift.dim for lift, _, _ in zero_side(v, 1)[1])
    _expect("theta dimensions for diag:1 over F_3", dims, [1, 2])


SUITES = [
    ("coeff-ring-laws", _coeff_ring_laws),
    ("hilbert-three-paths", _hilbert_suite),
    ("omega-hilbert-identity", _omega_scaling),
    ("finite-cocycle-trivial", _finite_cocycle),
    ("padic-cocycle-identity", _padic_cocycle),
    ("schwartz-closure", _schwartz_closure),
    ("stone-von-neumann", _stone_von_neumann),
    ("theta-desk-instance", _theta_instance),
]
