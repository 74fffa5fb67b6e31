"""p-adic function models at desk scale: finite sums of quadratic-phase
decorated coset indicators on Q_p, closed under the Heisenberg action, the
P(X)-action and the normalized Fourier element, which yields the full
operator-level section of SL_2(Q) on the Schrödinger model.

A term (c, a, n, q, l) is the function  y -> c psi(q (y-a)^2 + l (y-a))  on
a + p^n Z_p and 0 elsewhere; psi is the level-0 character.  All centers and
phases are exact rationals, all coefficients exact cyclotomics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .basefield import AdditiveCharacter, InputError, QpField, residue_rep
from .coeff import CyclotomicRing
from .weilfactor import omega1_padic, omega_ratio


class PhaseTerm(NamedTuple):
    coeff: object      # cyclotomic coefficient
    center: Fraction
    depth: int
    quad: Fraction
    lin: Fraction


class PhaseStepFunction:
    """Finite sum of phase-decorated coset indicators on Q_p."""

    def __init__(self, p, terms):
        self.p = p
        self.psi = AdditiveCharacter(QpField(p))
        self.terms = tuple(self._canon_term(t) for t in terms if t.coeff)

    @classmethod
    def indicator(cls, p, center=0, depth=0):
        return cls(p, [PhaseTerm(CyclotomicRing(p).one(), Fraction(center),
                                 depth, Fraction(0), Fraction(0))])

    def _canon_term(self, t):
        p = self.p
        a = residue_rep(p, t.center, t.depth)
        coeff = t.coeff
        if a != t.center:
            d = a - t.center
            # rewrite phases around the canonical center
            const = t.quad * d * d + t.lin * d
            lin = t.lin + 2 * t.quad * d
            coeff = coeff * self.psi(const)
        else:
            lin = t.lin
        # phases only matter modulo p^-2depth Z_p and p^-depth Z_p
        quad = residue_rep(p, t.quad, -2 * t.depth)
        lin = residue_rep(p, lin, -t.depth)
        return PhaseTerm(coeff, a, t.depth, quad, lin)

    def canonical(self):
        merged = {}
        for t in self.terms:
            key = (t.center, t.depth, t.quad, t.lin)
            if key in merged:
                merged[key] = merged[key] + t.coeff
            else:
                merged[key] = t.coeff
        terms = [PhaseTerm(c, k[0], k[1], k[2], k[3])
                 for k, c in sorted(merged.items(),
                                    key=lambda kv: (kv[0][1], str(kv[0][0]),
                                                    str(kv[0][2]),
                                                    str(kv[0][3])))
                 if c]
        return PhaseStepFunction(self.p, terms)

    def eval(self, y):
        y = Fraction(y)
        acc = None
        p = self.p
        for t in self.terms:
            d = y - t.center
            if d != 0 and QpField(p).val(d) < t.depth:
                continue
            v = t.coeff * self.psi(t.quad * d * d + t.lin * d)
            acc = v if acc is None else acc + v
        if acc is None:
            return CyclotomicRing(p).zero()
        return acc

    def scaled(self, c):
        return PhaseStepFunction(
            self.p, [t._replace(coeff=c * t.coeff) for t in self.terms])

    def __add__(self, other):
        if self.p != other.p:
            raise InputError("mismatched function spaces")
        return PhaseStepFunction(self.p, self.terms + other.terms)

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
        """I_p for p = [[a, b],[0, 1/a]]: y -> psi((a b/2) y^2) f(a y)."""
        p = self.p
        a, b = Fraction(a), Fraction(b)
        if a == 0:
            raise InputError("parabolic block must be invertible")
        va = QpField(p).val(a)
        out = []
        for tm in self.terms:
            c1 = tm.center / a
            d1 = tm.depth - va
            # phases: quad (ay - c)^2 = quad a^2 (y - c1)^2; lin a (y - c1)
            quad = tm.quad * a * a
            lin = tm.lin * a
            # extra (ab/2) y^2 recentred at c1
            e2 = a * b / 2
            quad2 = quad + e2
            lin2 = lin + 2 * e2 * c1
            const = e2 * c1 * c1
            out.append(PhaseTerm(tm.coeff * self.psi(const), c1, d1,
                                 quad2, lin2))
        return PhaseStepFunction(p, out)

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
        a = self.canonical()
        b = other.canonical()
        if a.terms == b.terms:
            return True
        d = max(a._needed_depth(), b._needed_depth())
        return a.value_table(d) == b.value_table(d)

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

def sigma_padic_matrix(p, g):
    """sigma(g) as an operator on PhaseStepFunctions over Q_p, for
    g = [[alpha, beta],[gamma, delta]] in SL_2(Q)."""
    (al, be), (ga, de) = (Fraction(g[0][0]), Fraction(g[0][1])), \
        (Fraction(g[1][0]), Fraction(g[1][1]))
    if al * de - be * ga != 1:
        raise ValueError("matrix must have determinant 1")
    fld = QpField(p)
    psi = AdditiveCharacter(fld)
    if ga == 0:
        scal = omega_ratio(fld, psi, Fraction(1), al)

        def act_p(f):
            return f.act_parabolic(al, be).scaled(scal)
        return act_p

    scal = omega_ratio(fld, psi, Fraction(1), ga)
    vga = fld.val(ga)

    def act(f):
        out = []
        for tm in f.terms:
            na = tm.depth - vga
            # a-integral data (see module docstring derivation)
            acoef = ga * de / 2 + tm.quad * ga * ga
            czero = -tm.center / ga          # c(y) = (al/ga) y + czero
            cone = al / ga
            b0 = -tm.lin * ga + ga * de * czero
            # B(y) = b0 + y  (since al*de - be*ga = 1)
            # C(y) = (ga de/2) c(y)^2 - be ga c(y) y, plus (al be/2) y^2
            p2 = (ga * de / 2) * cone * cone - be * ga * cone + al * be / 2
            p1 = ga * de * cone * czero - be * ga * czero
            p0 = (ga * de / 2) * czero * czero
            at = acoef * Fraction(p) ** (2 * na)
            scale = tm.coeff * scal * Fraction(p) ** (-na)
            if at == 0 or fld.val(at) >= 0:
                theta = 0
                gaussian = None
            else:
                theta = fld.val(at)
                # int_{Z_p} psi(at v^2) dv, the 1-d Weil factor of at
                gaussian = omega1_padic(p, at)
                # extra phase -beta~(y)^2 / (4 at), beta~ = (b0 + y) p^na
                k = -(Fraction(p) ** (2 * na)) / (4 * at)
                p2 = p2 + k
                p1 = p1 + 2 * k * b0
                p0 = p0 + k * b0 * b0
            d_out = theta - na
            y_c = -b0
            # recentre the quadratic P at y_c
            quad = p2
            lin = p1 + 2 * p2 * y_c
            const = p2 * y_c * y_c + p1 * y_c + p0
            coeff = scale * psi(const)
            if gaussian is not None:
                coeff = coeff * gaussian
            out.append(PhaseTerm(coeff, y_c, d_out, quad, lin))
        return PhaseStepFunction(p, out).canonical()
    return act


def cocycle_operator_padic(p, g1, g2):
    """Operator-path cocycle over Q_p at m = 1: the scalar c with
    sigma(g1) sigma(g2) = c sigma(g1 g2), verified on two probe functions,
    the indicators of Z_p and of 1 + pZ_p."""
    from . import linalg
    s1 = sigma_padic_matrix(p, g1)
    s2 = sigma_padic_matrix(p, g2)
    g12 = linalg.mat_mul(g1, g2, QpField(p))
    s12 = sigma_padic_matrix(p, g12)
    c = None
    for f in (PhaseStepFunction.indicator(p),
              PhaseStepFunction.indicator(p, center=1, depth=1)):
        lhs = s1(s2(f)).canonical()
        rhs = s12(f).canonical()
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
