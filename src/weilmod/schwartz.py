"""p-adic function models at desk scale: finite sums of quadratic-phase
decorated coset indicators on Q_p, closed under the Heisenberg action, the
P(X)-action and the normalized Fourier element, which yields the full
operator-level section of SL_2(Q) on the Schrödinger model.

A term (c, a, n, q, l) is the function  y -> c psi(q (y-a)^2 + l (y-a))  on
a + p^n Z_p and 0 elsewhere; psi is the level-0 character.  All centers and
phases are exact rationals, all coefficients exact cyclotomics.

A function is canonical from the moment it is built: each center is
residue_rep's representative of its ball, quad is reduced mod p^-2n Z_p and
lin mod p^-n Z_p (the phases only matter there), the phase that recentring
moves is folded into the coefficient, and terms of one ball and one phase
are merged.  A term is reduced once, from int numerators and denominators
(residue_rep, psi.at_ratio), and no action reduces it again.

sigma(g) on a term, g = [[alpha, beta], [gamma, delta]], det g = 1.  For
gamma = 0 it is the parabolic action y -> psi(alpha beta y^2 / 2)
f(alpha y), times 1/omega1(alpha).  For gamma != 0 the integral over the
term's ball, with na = n - val(gamma), gives 1/omega1(gamma) p^-na times
psi(p2 y^2 + p1 y + p0) on y0 + p^-na Z_p, y0 = -b0, where

    b0 = -l gamma - delta c,   acoef = gamma delta / 2 + q gamma^2,
    p2 = alpha / 2 gamma,      p1 = -c / gamma,    p0 = delta c^2 / 2 gamma;

p2 and p1 are (gamma delta / 2) c(y)^2 - beta gamma c(y) y + alpha beta y^2/2
and its y-part, c(y) = (alpha y - c) / gamma, simplified by
alpha delta - beta gamma = 1.  When at = acoef p^2na has val(at) < 0 the
integral is a Gaussian: a factor omega1(at), depth val(at) - na and the
extra phase k (y + b0)^2, k = -1/(4 acoef).

Read around y0 = gamma l + delta c, again with det g = 1:

    slope  p1 + 2 p2 y0 = (alpha y0 - c) / gamma = alpha l + beta c = l',
    value  (alpha y0^2 - 2 c y0 + delta c^2) / 2 gamma
           = (alpha gamma l^2 + 2 beta gamma l c + beta delta c^2) / 2
           = (l' y0 - l c) / 2,

so (l', y0) = g (l, c), and the Gaussian's phase, zero to second order at
y0, only adds k to the quad: alpha / 2 gamma + k = (beta + 2 q alpha) /
2 (delta + 2 q gamma).  The parabolic action has the same slope and value
at its center delta c = c / alpha and the quad q alpha^2 + alpha beta / 2,
which is that formula at gamma = 0.  With g lowered to G = D g
(QpField.lower) and l, c, q read as int pairs, each center, quad, slope and
value is an int numerator over an int denominator, and the term is reduced
from those once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .basefield import (INTEGERS, AdditiveCharacter, InputError, QpField,
                        residue_rep)
from .coeff import CyclotomicRing
from .weilfactor import omega1_padic, omega_ratio


class PhaseTerm(NamedTuple):
    coeff: object      # cyclotomic coefficient
    center: Fraction
    depth: int
    quad: Fraction
    lin: Fraction

    def pairs(self):
        """center, quad and lin as (numerator, denominator) int pairs."""
        c, q, l = self.center, self.quad, self.lin
        return ((c.numerator, c.denominator), (q.numerator, q.denominator),
                (l.numerator, l.denominator))


class PhaseStepFunction:
    """Finite sum of phase-decorated coset indicators on Q_p, canonical as
    built (module docstring)."""

    # the level-0 character of each prime asked for
    _characters = {}

    def __init__(self, p, terms):
        self.p = p
        self.psi = self._character(p)
        self.terms = self._merged([
            self._canon_term(t.coeff, t.depth, *t.pairs(), (0, 1))
            for t in terms if t.coeff])

    @classmethod
    def _character(cls, p):
        psi = cls._characters.get(p)
        if psi is None:
            psi = cls._characters[p] = AdditiveCharacter(QpField(p))
        return psi

    @classmethod
    def _of(cls, p, terms):
        """The function of canonical terms: merged, none reduced again."""
        f = object.__new__(cls)
        f.p = p
        f.psi = cls._character(p)
        f.terms = cls._merged(terms)
        return f

    @staticmethod
    def _merged(terms):
        if len(terms) == 1:
            return tuple(terms) if terms[0].coeff else ()
        merged = {}
        for t in terms:
            key = t[1:]
            c = merged.get(key)
            merged[key] = t.coeff if c is None else c + t.coeff
        return tuple(sorted(
            (PhaseTerm(c, *k) for k, c in merged.items() if c),
            key=lambda t: (t.depth, str(t.center), str(t.quad), str(t.lin))))

    @classmethod
    def indicator(cls, p, center=0, depth=0):
        return cls(p, [PhaseTerm(CyclotomicRing(p).one(), center, depth,
                                 0, 0)])

    def _canon_term(self, coeff, depth, center, quad, lin, const):
        """The canonical term of  coeff psi(const + lin t + quad t^2),
        t = y - y0, on y0 + p^depth Z_p; center = y0 and the phases are
        (numerator, denominator) int pairs."""
        p = self.p
        (yn, yd), (qn, qd), (ln, ld), (kn, kd) = center, quad, lin, const
        a = residue_rep(p, yn, depth, yd)
        # t = a - y0 moves the constant and the slope to the center a
        tn, td = a.numerator * yd - yn * a.denominator, a.denominator * yd
        if tn:
            kn, kd = (kn * ld * qd * td * td + kd * tn * qd * td * ln
                      + kd * ld * tn * tn * qn, kd * ld * qd * td * td)
            ln, ld = ln * qd * td + 2 * ld * qn * tn, ld * qd * td
        if kn:
            coeff = coeff * self.psi.at_ratio(kn, kd)
        return PhaseTerm(coeff, a, depth, residue_rep(p, qn, -2 * depth, qd),
                         residue_rep(p, ln, -depth, ld))

    def eval(self, y):
        acc = None
        p = self.p
        fld = QpField(p)
        yn, yd = y.numerator, y.denominator
        for t in self.terms:
            (cn, cd), (qn, qd), (ln, ld) = t.pairs()
            dn, dd = yn * cd - cn * yd, yd * cd
            if not dn:
                v = t.coeff
            elif fld.val(dn) - fld.val(dd) < t.depth:
                continue
            else:
                v = t.coeff * self.psi.at_ratio(
                    dn * (qn * dn * ld + ln * qd * dd), qd * ld * dd * dd)
            acc = v if acc is None else acc + v
        if acc is None:
            return CyclotomicRing(p).zero()
        return acc

    def scaled(self, c):
        return PhaseStepFunction._of(
            self.p, [PhaseTerm(c * t.coeff, *t[1:]) for t in self.terms])

    def __add__(self, other):
        if self.p != other.p:
            raise InputError("mismatched function spaces")
        return PhaseStepFunction._of(self.p, self.terms + other.terms)

    def __repr__(self):
        return "PhaseStep(p=%d, %d terms)" % (self.p, len(self.terms))

    # -- group actions --------------------------------------------------------

    def act_heisenberg(self, u, v, t):
        """rho((u e + v f, t)): y -> psi(-u y - u v/2 + t) f(y + v)."""
        p = self.p
        u, v, t = Fraction(u), Fraction(v), Fraction(t)
        out = []
        for tm in self.terms:
            a1 = tm.center - v
            coeff = tm.coeff * self.psi(-u * a1 - u * v / 2 + t)
            out.append(PhaseTerm(coeff, a1, tm.depth, tm.quad, tm.lin - u))
        return PhaseStepFunction(p, out)

    def act_parabolic(self, a, b):
        """I_p for p = [[a, b],[0, 1/a]]: y -> psi((a b/2) y^2) f(a y), a
        and b ints or Fractions.  A term on c + p^n Z_p moves to c/a +
        p^(n - val a) Z_p, with quad q a^2 + a b/2, slope a l + b c and
        value b c^2 / 2a there (module docstring)."""
        if a == 0:
            raise InputError("parabolic block must be invertible")
        an, ad = a.numerator, a.denominator
        bn, bd = b.numerator, b.denominator
        va = QpField(self.p).val(a)
        out = []
        for t in self.terms:
            (cn, cd), (qn, qd), (ln, ld) = t.pairs()
            out.append(self._canon_term(
                t.coeff, t.depth - va, (cn * ad, cd * an),
                (an * (2 * qn * an * bd + bn * ad * qd),
                 2 * qd * ad * ad * bd),
                (an * ln * bd * cd + bn * cn * ad * ld, ad * ld * bd * cd),
                (bn * cn * cn * ad, 2 * bd * cd * cd * an)))
        return PhaseStepFunction._of(self.p, out)

    # -- exact equality by refinement -----------------------------------------

    def _needed_depth(self):
        """Refinement depth making every term constant on each sub-ball."""
        d = 0
        p = self.p
        fld = QpField(p)
        for t in self.terms:
            d = max(d, t.depth)
            if t.quad != 0:
                vq = fld.val(t.quad)
                d = max(d, (-vq + 1) // 2, -vq - t.depth)
            if t.lin != 0:
                d = max(d, -fld.val(t.lin))
        return d

    def value_table(self, depth):
        """dict sub-ball-center -> constant value at refinement `depth`;
        requires depth >= self._needed_depth() and at most 200,000
        sub-balls over all terms."""
        p = self.p
        table = {}
        for t in self.terms:
            k = depth - t.depth
            if k < 0:
                raise InputError("refinement coarser than support")
            if p ** k * len(self.terms) > 200000:
                raise InputError("refinement too large")
            step = Fraction(p) ** t.depth
            for i in range(p ** k):
                c = residue_rep(p, t.center + i * step, depth)
                d = c - t.center
                v = t.coeff * self.psi(t.quad * d * d + t.lin * d)
                table[c] = table.get(c, CyclotomicRing(p).zero()) + v
        return {c: v for c, v in table.items() if v}

    def equals(self, other):
        if self.terms == other.terms:
            return True
        d = max(self._needed_depth(), other._needed_depth())
        return self.value_table(d) == other.value_table(d)

    def nonzero_point(self):
        """Some y with f(y) != 0, or None."""
        if not self.terms:
            return None
        for t in self.terms:
            if self.eval(t.center):
                return t.center
        d = self._needed_depth()
        tab = self.value_table(d)
        for c in sorted(tab, key=str):
            return c
        return None


# ---------------------------------------------------------------------------
# the section sigma on SL_2(Q) subset Sp_2(Q_p), operator level
# ---------------------------------------------------------------------------

def sigma_padic_matrix(p, g, den=1):
    """sigma(g / den) as an operator on PhaseStepFunctions over Q_p, for
    g / den = [[alpha, beta],[gamma, delta]] in SL_2(Q); g holds ints or
    Fractions, den is an int."""
    fld = QpField(p)
    ((a, b), (c, e)), d = fld.lower(g)
    d *= den
    if a * e - b * c != d * d:
        raise ValueError("matrix must have determinant 1")
    psi = PhaseStepFunction._character(p)
    if c == 0:
        al, be = Fraction(a, d), Fraction(b, d)
        scal = omega_ratio(fld, psi, 1, al)

        def act_p(f):
            return f.act_parabolic(al, be).scaled(scal)
        return act_p

    scal = omega_ratio(fld, psi, 1, Fraction(c, d))
    vga = fld.val(c) - fld.val(d)
    vd2 = 2 * fld.val(d)

    def act(f):
        out = []
        for t in f.terms:
            (cn, cd), (qn, qd), (ln, ld) = t.pairs()
            na = t.depth - vga
            coeff = t.coeff * scal
            coeff = coeff * p ** -na if na <= 0 else \
                coeff * Fraction(1, p ** na)
            # center y0 = gamma l + delta c and slope alpha l + beta c, both
            # over m; the value there is (slope y0 - l c) / 2
            m = d * ld * cd
            yn = c * ln * cd + e * cn * ld
            sn = a * ln * cd + b * cn * ld
            const = (sn * yn - ln * cn * d * d * ld * cd, 2 * m * m)
            # delta + 2 q gamma = s / (d qd), so at = c s p^2na / (2 d^2 qd);
            # theta = val(at), and 0 when s = 0 (at = 0)
            s = e * qd + 2 * qn * c
            theta = s and fld.val(c * s) - vd2 - fld.val(qd) + 2 * na
            if theta < 0:
                quad = (b * qd + 2 * qn * a, 2 * s)
                depth = theta - na
                num, den2 = c * s, 2 * d * d * qd
                if na >= 0:
                    num *= p ** (2 * na)
                else:
                    den2 *= p ** (-2 * na)
                coeff = coeff * omega1_padic(p, Fraction(num, den2))
            else:
                quad = (a, 2 * c)
                depth = -na
            out.append(f._canon_term(coeff, depth, (yn, m), quad, (sn, m),
                                     const))
        return PhaseStepFunction._of(p, out)
    return act


def cocycle_operator_padic(p, g1, g2):
    """Operator-path cocycle over Q_p at m = 1: the scalar c with
    sigma(g1) sigma(g2) = c sigma(g1 g2), verified on two probe functions,
    the indicators of Z_p and of 1 + pZ_p.  g1 and g2 are lowered once,
    and g1 g2 is their integer product over D1 D2."""
    fld = QpField(p)
    (h1, d1), (h2, d2) = fld.lower(g1), fld.lower(g2)
    s1 = sigma_padic_matrix(p, h1, d1)
    s2 = sigma_padic_matrix(p, h2, d2)
    s12 = sigma_padic_matrix(p, linalg.mat_mul(h1, h2, INTEGERS), d1 * d2)
    c = None
    for f in (PhaseStepFunction.indicator(p),
              PhaseStepFunction.indicator(p, center=1, depth=1)):
        lhs = s1(s2(f))
        rhs = s12(f)
        y = rhs.nonzero_point()
        if y is None:
            if lhs.nonzero_point() is not None:
                raise RuntimeError("cocycle operator is not scalar")
            continue
        cand = lhs.eval(y) * rhs.eval(y).inv()
        if c is None:
            c = cand
        elif c != cand:
            raise RuntimeError("cocycle scalar differs between probes")
        if not lhs.equals(rhs.scaled(cand)):
            raise RuntimeError("cocycle operator is not scalar")
    if c is None:
        raise RuntimeError("all probes vanished")
    return c
