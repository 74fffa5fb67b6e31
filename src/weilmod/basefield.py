"""The base field F in both flavors: F_q with q = p^f odd, and Q_p (p odd)
through exact rational representatives.  F_q carries the trivial valuation,
so the Q_p formulas hold over it at val = 0.  Additive characters, the
modulus character and residues mod p^n Z_p live here; a Haar measure enters
only through its mass (see weilfactor.omega).

p-adic scalars are plain Fractions; every quantity the package computes from
them depends on finitely many digits, so exact rationals lose nothing.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import mul

from .coeff import CyclotomicRing, FiniteField, RingMismatchError, common_ring
from .linalg import Ops


class InputError(ValueError):
    """A malformed descriptor or argument; the CLI exits 2 on it."""


# the largest order p^k of the roots of unity zeta_{p^k} a Q_p value (or,
# at k = 1, an F_q character) may hold: a product costs up to phi(p^k)^2
# steps.  It admits Q_727 at level 1 (operator cocycles of g with entries
# 1/727 took up to 3.3 s, against 11.5 s at p = 997), Q_5 at level 4, Q_3
# at level 6 and omega over fq:251:2 (1.4 s; fq:10007 ran past 15 s)
MAX_PADIC_ORDER = 729

# Q_p's p, checked before coeff._is_prime's trial division (93 s at 2^61 - 1)
MAX_PADIC_PRIME = 2 ** 31


def padic_ring(p, k=1):
    """Z[zeta_{p^k}], where Q_p values of level k (and F_q's characters at
    k = 1) live; p^k above MAX_PADIC_ORDER is refused (InputError)."""
    if p ** k > MAX_PADIC_ORDER:
        raise InputError("values here need roots of unity of order %d^%d, "
                         "above the cap MAX_PADIC_ORDER = %d"
                         % (p, k, MAX_PADIC_ORDER))
    return CyclotomicRing(p, k)


class FqField(FiniteField):
    """Base field F_q, q = p^f with p odd (char F != 2 throughout)."""

    def __new__(cls, p, f=1):
        if p == 2:
            raise ValueError("base fields of characteristic 2 are excluded")
        return super().__new__(cls, p, f)

    @property
    def flavor(self):
        return "finite"

    def index(self, x):
        """The raw index of x: an element's own, or an int read as element
        reads it (mod q), with no FFElt made."""
        return x % self.q if isinstance(x, int) else self.element(x).i

    def val(self, x):
        """The trivial valuation: 0 on every unit, so |x|_F = 1."""
        if not self.index(x):
            raise ZeroDivisionError("valuation of zero")
        return 0

    def is_square(self, a):
        return self.indices.is_square(self.index(a))

    def nonresidue(self):
        return self.element(next(i for i in range(1, self.q)
                                 if not self.indices.is_square(i)))


def points(field, k):
    """The points of F_q^k as coordinate tuples, the last coordinate running
    fastest: the one order of every enumeration of F_q^k in the package,
    the Schrödinger basis included."""
    return list(itertools.product(field.elements(), repeat=k))


# QpField's zero() and one(): identity() and a sum from zero() (Ops.pairing)
# hold Fractions.  A Fraction is immutable, so each call returns the same one
_ZERO, _ONE = Fraction(0), Fraction(1)


class Integers(Ops):
    """Z as linalg's arithmetic, where a Q_p matrix g is read once it is
    lowered to G = D g (QpField.lower): ranks, kernels and the classes of
    determinants survive the scaling up to a factor the caller tracks
    (metaplectic._cocycle).  Rows are eliminated fraction-free (pivot)."""

    @staticmethod
    def zero():
        return 0

    @staticmethod
    def one():
        return 1

    @staticmethod
    def dot(u, v):
        return sum(map(mul, u, v))

    @staticmethod
    def add(u, v):
        return tuple(x + y for x, y in zip(u, v))

    @staticmethod
    def pairing(u, v, m):
        return sum(map(mul, u[:m], v[m:])) - sum(map(mul, u[m:], v[:m]))

    @staticmethod
    def divide(row, d):
        return [x // d for x in row]

    @staticmethod
    def pivot(rows, r, c, lead, lo=0):
        """Bareiss's step: with x = rows[r][c], row i becomes (x row_i -
        rows[i][c] row_r) / lead for each i >= lo but r, lead being the
        last pivot (1 at the first).  Every entry is a minor of the input,
        so each division is exact, every pivot row of rref holds x at its
        pivot, and det's last x is the determinant.  Returns x."""
        x, piv, d = rows[r][c], rows[r], lead or 1
        for i in range(lo, len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [(x * u - f * v) // d for u, v in zip(rows[i], piv)]
        return x


INTEGERS = Integers()


class QpField(Ops):
    """Q_p for odd p; elements are exact rationals (ints or Fractions).
    linalg's arithmetic is the Fraction operators (Ops), and recip takes
    an int too, so an int-entry matrix never turns to floats."""

    # one field per prime p asked for, each two attributes
    _cache = {}

    def __new__(cls, p):
        fld = cls._cache.get(p)
        if fld is not None:
            return fld
        if p == 2:
            raise ValueError("residual characteristic 2 is excluded")
        if p >= MAX_PADIC_PRIME:
            raise InputError("Q_%d: p >= MAX_PADIC_PRIME = 2^31" % p)
        from .coeff import _is_prime
        if not _is_prime(p):
            raise ValueError("p must be prime")
        fld = object.__new__(cls)
        fld.p = p
        fld._nonres = None
        cls._cache[p] = fld
        return fld

    @property
    def flavor(self):
        return "padic"

    def __repr__(self):
        return "Q_%d" % self.p

    def element(self, x):
        return Fraction(x)

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def recip(self, x):
        return Fraction(x.denominator, x.numerator)

    def lower(self, a):
        """(G, D) with a = G / D, for D the lcm of the denominators of a's
        rationals (Fractions or ints), read with no Fraction made."""
        d = lcm(*[x.denominator for row in a for x in row])
        return tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                     for row in a), d

    def _split(self, x):
        """(v, n, d) with x = p^v n / d, p dividing neither n nor d, read
        off the numerator and denominator of an int or a Fraction."""
        n, d, p = x.numerator, x.denominator, self.p
        if not n:
            raise ZeroDivisionError("valuation of zero")
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        while d % p == 0:
            d //= p
            v -= 1
        return v, n, d

    def val(self, x):
        """Exact p-adic valuation of a nonzero rational."""
        return self._split(x)[0]

    def unit_part(self, x):
        """x / p^val(x) as a rational that is a p-adic unit."""
        return Fraction(x) / Fraction(self.p) ** self.val(x)

    def unit_residue(self, x):
        """The residue mod p of the unit part of x."""
        _, n, d = self._split(x)
        return n * pow(d, -1, self.p) % self.p

    def legendre(self, r):
        r %= self.p
        if r == 0:
            return 0
        return 1 if pow(r, (self.p - 1) // 2, self.p) == 1 else -1

    def nonresidue(self):
        """Smallest positive integer nonresidue mod p."""
        if self._nonres is None:
            for u in range(2, self.p):
                if self.legendre(u) == -1:
                    self._nonres = u
                    break
        return self._nonres


def parse_field(desc):
    """Parse "fq:p:f", "fq:p" or "qp:p"."""
    kind, *nums = desc.split(":")
    bad = InputError("bad field descriptor %r (fq:p:f or qp:p)" % (desc,))
    if len(nums) not in {"fq": (1, 2), "qp": (1,)}.get(kind, ()):
        raise bad
    try:
        nums = [int(x) for x in nums]
    except ValueError:
        raise bad from None
    return FqField(*nums) if kind == "fq" else QpField(*nums)


def residue_rep(p, a, n, den=1):
    """The canonical representative of a / den + p^n Z_p, for a an int or a
    Fraction and den a nonzero int: c / p^k with k = max(0, -val(a / den))
    and 0 <= c < p^(n+k) (0 when n + k <= 0).  It is read off the numerator
    and denominator, so no Fraction is made but the result; a pair that is
    not in lowest terms gives the same representative."""
    num, den = a.numerator, a.denominator * den
    # a / den = num / (den' p^k) with den' prime to p
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if n + k <= 0:
        return _ZERO
    mod = p ** (n + k)
    return Fraction(num * pow(den, -1, mod) % mod, p ** k)


def frac_part(x, p, den=1):
    """(a, n) with x / den = a/p^n mod Z_p, 0 <= a < p^n and n minimal, for
    x an int or a Fraction and den a nonzero int, with no Fraction made."""
    num, den = x.numerator, x.denominator * den
    n = 0
    while den % p == 0:
        den //= p
        n += 1
    if not n:
        return 0, 0
    mod = p ** n
    a = num * pow(den, -1, mod) % mod
    # p divides num when the pair is not in lowest terms
    while n and a % p == 0:
        a //= p
        n -= 1
    return a, n


def modulus(field, x):
    """|x|_F = p^{-val(x)} as an exact rational (1 over F_q)."""
    return Fraction(field.p) ** (-field.val(x))


class AdditiveCharacter:
    """psi: F -> R^x.

    finite flavor: psi(x) = zeta_p^{Tr(c x)} for a twist c in F_q^x.
    p-adic flavor: psi(x) = zeta_{p^n}^{a} for {c x} = a/p^n, the level-0
    character twisted by multiplication with a fixed rational c.
    """

    def __init__(self, field, coeff_ring=None, twist=1):
        self.field = field
        self.flavor = field.flavor
        if self.flavor == "finite":
            self.coeff_ring = coeff_ring or padic_ring(field.p)
            self.twist = field.element(twist)
            if self.twist.i == 0:
                raise ValueError("twist must be nonzero")
            zeta = self.coeff_ring.root_of_unity(field.p)
            self._powers = [self.coeff_ring.one()]
            for _ in range(field.p - 1):
                self._powers.append(self._powers[-1] * zeta)
            # psi(x) = zeta_p^{_exp[i]} on the raw field index i of x
            t = self.twist.i
            self._exp = tuple(field.trace_i(field.mul_i(t, i))
                              for i in range(field.q))
            self._table = tuple(self._powers[e] for e in self._exp)
        else:
            if coeff_ring is not None and not isinstance(coeff_ring,
                                                         CyclotomicRing):
                raise RingMismatchError(
                    "p-adic characters need cyclotomic coefficients")
            self.coeff_ring = coeff_ring or CyclotomicRing(field.p)
            self.twist = Fraction(twist)
            if self.twist == 0:
                raise ValueError("twist must be nonzero")

    def __call__(self, x):
        if self.flavor == "finite":
            return self._table[self.field.element(x).i]
        return self.at_ratio(x.numerator, x.denominator)

    def at_ratio(self, num, den):
        """psi(num / den) for the p-adic flavor, num and den ints: the
        twist and the residue are read off integers, with no Fraction
        made."""
        p, tw = self.field.p, self.twist
        a, n = frac_part(tw.numerator * num, p, tw.denominator * den)
        if n == 0:
            return self.coeff_ring.one()
        ring = common_ring(self.coeff_ring, padic_ring(p, n))
        return ring.zeta_pow(a * (ring.n // p ** n))


def parse_character(field, desc):
    if desc in (None, "psi:standard", "psi:level0"):
        return AdditiveCharacter(field)
    if desc.startswith("psi:twist:"):
        raw = desc[len("psi:twist:"):]
        try:
            c = int(raw) if field.flavor == "finite" else Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise InputError("bad twist %r in %r" % (raw, desc)) from None
        # over F_{p^f}, f > 1, c is an element index (README); over F_p an
        # int mod p and an index mod p are the same element
        if field.flavor == "finite" and field.f > 1 and not 0 <= c < field.q:
            raise InputError("twist %d in %r is not an element index of "
                             "F_%d: it must lie in [0, %d)"
                             % (c, desc, field.q, field.q))
        return AdditiveCharacter(field, twist=c)
    raise InputError("bad character descriptor %r" % (desc,))

