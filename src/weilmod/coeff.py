"""Exact coefficient arithmetic: cyclotomic integers Z[zeta_{p^k}] with their
fraction field, finite fields F_{l^d} carrying p-power roots of unity, and the
reduction map between them.

Cyclotomic elements are stored as an integer coefficient vector of length
phi(p^k) = p^{k-1}(p-1) over the power basis 1, zeta, ..., zeta^{phi-1},
together with a positive common denominator.  All arithmetic is exact.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul

from .linalg import Ops


class RingMismatchError(TypeError):
    """Operands live in different coefficient rings."""


class NotInvertibleError(ZeroDivisionError):
    """Element is not a unit in its ring."""


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n):
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Cyclotomic rings
# ---------------------------------------------------------------------------

# one ring per (p, k) asked for, each four ints: it grows only with the
# distinct primes and levels a run uses
_CYC_CACHE = {}


class CyclotomicRing(Ops):
    """Z[zeta_{p^k}] and its fraction field, p an odd prime, k >= 1."""

    def __new__(cls, p, k=1):
        key = (p, k)
        ring = _CYC_CACHE.get(key)
        if ring is not None:
            return ring
        if not _is_prime(p) or p == 2:
            raise ValueError("p must be an odd prime, got %r" % (p,))
        if k < 1:
            raise ValueError("level k must be >= 1")
        ring = object.__new__(cls)
        ring.p = p
        ring.k = k
        ring.n = p ** k
        ring.phi = p ** (k - 1) * (p - 1)
        _CYC_CACHE[key] = ring
        return ring

    def __repr__(self):
        if self.k == 1:
            return "Z[zeta_%d]" % self.p
        return "Z[zeta_%d^%d]" % (self.p, self.k)

    def _reduce(self, coeffs):
        # fold powers >= phi with zeta^phi = -(1 + zeta^m + ... + zeta^{(p-2)m}),
        # m = p^{k-1}
        phi = self.phi
        m = self.p ** (self.k - 1)
        c = list(coeffs)
        for idx in range(len(c) - 1, phi - 1, -1):
            v = c[idx]
            if v:
                base = idx - phi
                for i in range(self.p - 1):
                    c[base + i * m] -= v
            c[idx] = 0
        del c[phi:]
        while len(c) < phi:
            c.append(0)
        return c

    def element(self, coeffs, den=1):
        c = self._reduce(coeffs)
        return Cyc(self, c, den)

    def zero(self):
        return Cyc(self, [0] * self.phi, 1)

    def one(self):
        return self.from_int(1)

    def from_int(self, v):
        c = [0] * self.phi
        c[0] = v
        return Cyc(self, c, 1)

    def from_fraction(self, q):
        q = Fraction(q)
        c = [0] * self.phi
        c[0] = q.numerator
        return Cyc(self, c, q.denominator)

    @cached_property
    def generator(self):
        """The least r of order phi mod p^k: zeta -> zeta^r generates the
        Galois group."""
        n, phi = self.n, self.phi
        return next(r for r in range(2, n)
                    if all(pow(r, phi // f, n) != 1
                           for f in _prime_factors(phi)))

    def zeta(self):
        return self.zeta_pow(1)

    def zeta_pow(self, e):
        e %= self.n
        c = [0] * (e + 1)
        c[e] = 1
        return self.element(c)

    def root_of_unity(self, order):
        """Element of multiplicative order exactly `order` (a power of p)."""
        if order == 1:
            return self.one()
        j = 0
        o = order
        while o % self.p == 0:
            o //= self.p
            j += 1
        if o != 1 or j > self.k:
            raise NotInvertibleError(
                "no root of order %d in %r" % (order, self))
        return self.zeta_pow(self.p ** (self.k - j))

    def count_map(self, powers, bits):
        """phi: sum_e c_e x^e -> sum_e c_e powers[e] in this ring, for the
        counts c_e packed in `bits`-bit slots from slot 0 up."""
        mask = (1 << bits) - 1
        basis = [pw.coeffs for pw in powers]

        def phi(c):
            vec = [0] * self.phi
            for b in basis:
                v = c & mask
                if v:
                    for t, x in enumerate(b):
                        vec[t] += v * x
                c >>= bits
            return Cyc(self, vec, 1)
        return phi

    def coerce(self, x):
        if isinstance(x, Cyc):
            if x.ring is self:
                return x
            if x.ring.p != self.p:
                raise RingMismatchError(
                    "mixed cyclotomic rings %r and %r" % (x.ring, self))
            if x.ring.k > self.k:
                raise RingMismatchError(
                    "cannot coerce level %d into level %d" % (x.ring.k, self.k))
            step = self.p ** (self.k - x.ring.k)
            c = [0] * self.phi
            for i, v in enumerate(x.coeffs):
                if v:
                    c[i * step] += v
            return Cyc(self, self._reduce(c), x.den)
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            return self.from_fraction(x)
        raise RingMismatchError("cannot coerce %r into %r" % (x, self))


def common_ring(a, b):
    """The smaller of two cyclotomic rings lifts into the larger."""
    if a is b:
        return a
    if a.p != b.p:
        raise RingMismatchError("mixed primes %d and %d" % (a.p, b.p))
    return a if a.k >= b.k else b


class Cyc:
    """Element of Z[zeta_{p^k}] (den = 1) or its fraction field."""

    __slots__ = ("ring", "coeffs", "den", "_hash", "_inv")

    def __init__(self, ring, coeffs, den):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            coeffs = [-v for v in coeffs]
            den = -den
        g = den
        for v in coeffs:
            g = gcd(g, v)
            if g == 1:
                break
        if g > 1:
            coeffs = [v // g for v in coeffs]
            den //= g
        self.ring = ring
        self.coeffs = tuple(coeffs)
        self.den = den
        self._hash = None
        self._inv = None

    # -- basic predicates ---------------------------------------------------

    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self):
        return all(v == 0 for v in self.coeffs[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("%r is not rational" % (self,))
        return Fraction(self.coeffs[0], self.den)

    # -- arithmetic ----------------------------------------------------------

    def _pair(self, other):
        if isinstance(other, Cyc):
            if other.ring is self.ring:
                return self, other
            ring = common_ring(self.ring, other.ring)
            return ring.coerce(self), ring.coerce(other)
        if isinstance(other, (int, Fraction)):
            return self, self.ring.coerce(other)
        return self, None

    def __add__(self, other):
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        da, db = a.den, b.den
        g = gcd(da, db)
        la, lb = db // g, da // g
        c = [x * la + y * lb for x, y in zip(a.coeffs, b.coeffs)]
        return Cyc(a.ring, c, da // g * db)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.ring, [-v for v in self.coeffs], self.den)

    def __sub__(self, other):
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        ca, cb = a.coeffs, b.coeffs
        out = [0] * (2 * len(ca) - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    if y:
                        out[i + j] += x * y
        return Cyc(a.ring, a.ring._reduce(out), a.den * b.den)

    __rmul__ = __mul__

    def inv(self):
        """Exact inverse in the fraction field: the product P of the other
        Galois conjugates over the rational norm x P.  The Galois group is
        cyclic, generated by s: zeta -> zeta^r, so P = s(Q) for Q the
        product of s^i(x) over 0 <= i < phi - 1, built by doubling
        (Q_2a = Q_a s^a(Q_a), Q_a+1 = x s(Q_a)): 2 log2(phi) products, not
        phi - 2."""
        if self._inv is not None:
            return self._inv
        if self.is_zero():
            raise NotInvertibleError("zero is not invertible")
        if self.is_rational():
            r = self.ring.from_fraction(1 / self.as_fraction())
        else:
            ring = self.ring
            g, n = ring.generator, ring.n
            q, a = self, 1
            for bit in bin(ring.phi - 1)[3:]:
                q, a = q * q.galois(pow(g, a, n)), 2 * a
                if bit == "1":
                    q, a = self * q.galois(g), a + 1
            num = q.galois(g)
            r = num * (1 / (num * self).as_fraction())
        self._inv = r
        return r

    def __truediv__(self, other):
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        return a * b.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        acc = self.ring.one()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def galois(self, t):
        """Apply zeta -> zeta^t, gcd(t, p) = 1."""
        ring = self.ring
        if gcd(t, ring.p) != 1:
            raise ValueError("galois exponent must be prime to p")
        c = [0] * (ring.n)
        for i, v in enumerate(self.coeffs):
            if v:
                c[(i * t) % ring.n] += v
        # fold zeta^n = 1 first (indices were taken mod n already), then reduce
        return Cyc(ring, ring._reduce(c), self.den)

    # -- comparisons / misc ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.coerce(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        try:
            a, b = self._pair(other)
        except RingMismatchError:
            return False
        return a.coeffs == b.coeffs and a.den == b.den

    def __hash__(self):
        # values equal across levels hash equal: hash the smallest-level
        # representative, and rationals as the Fraction they equal
        if self._hash is None:
            if self.is_rational():
                self._hash = hash(Fraction(self.coeffs[0], self.den))
            else:
                c = self.compress()
                self._hash = hash((c.ring.p, c.ring.k, c.coeffs, c.den))
        return self._hash

    def __repr__(self):
        terms = []
        for i, v in enumerate(self.coeffs):
            if v == 0:
                continue
            if i == 0:
                terms.append(str(v))
            elif i == 1:
                terms.append("%d*z" % v)
            else:
                terms.append("%d*z^%d" % (v, i))
        body = " + ".join(terms) if terms else "0"
        if self.den != 1:
            return "(%s)/%d" % (body, self.den)
        return body

    def approx(self):
        """Non-authoritative complex embedding zeta -> exp(2 pi i / p^k)."""
        z = cmath.exp(2j * cmath.pi / self.ring.n)
        acc = 0j
        for i, v in enumerate(self.coeffs):
            if v:
                acc += v * z ** i
        return acc / self.den

    def compress(self):
        """Smallest-level representative of the same value (levels embed by
        zeta_{p^k} = zeta_{p^k'}^{p^{k'-k}}, index-multiples of p^{k'-k})."""
        ring = self.ring
        k = ring.k
        if k == 1:
            return self
        best = self
        for j in range(1, k):
            step = ring.p ** (k - j)
            if all(v == 0 for i, v in enumerate(self.coeffs) if i % step):
                sub = CyclotomicRing(ring.p, j)
                coeffs = [self.coeffs[i * step] for i in range(sub.phi)]
                best = Cyc(sub, coeffs, self.den)
                break
        return best


# ---------------------------------------------------------------------------
# Finite fields F_{l^d}
# ---------------------------------------------------------------------------

# Conway polynomials (coefficients low -> high, monic) for the sizes this
# package actually meets; anything else falls back to the lexicographically
# smallest monic irreducible, which keeps runs reproducible.
_CONWAY = {
    (2, 1): (1, 1), (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 1): (1, 1), (3, 2): (2, 2, 1), (3, 3): (1, 2, 0, 1),
    (5, 1): (3, 1), (5, 2): (2, 4, 1),
    (7, 1): (4, 1), (7, 2): (3, 6, 1),
    (11, 1): (9, 1), (13, 1): (11, 1),
}

# one field per (class, l, d) asked for, each holding its tables (about
# 4q entries, q <= MAX_Q)
_FF_CACHE = {}

# The largest q built: the discrete-log tables hold about 4q entries, and
# filling them costs q - 2 products, so a larger q is refused (ValueError)
# before anything is allocated.
MAX_Q = 2 ** 16


def _poly_rem(a, b, ell):
    """Remainder of a modulo the monic b over F_ell (coefficients low ->
    high, len(a) >= deg b), as deg b coefficients."""
    r = [v % ell for v in a]
    n = len(b) - 1
    for top in range(len(r) - 1, n - 1, -1):
        c = r[top]
        if c:
            for j in range(n + 1):
                r[top - n + j] = (r[top - n + j] - c * b[j]) % ell
    return r[:n]


def _is_irreducible(poly, ell):
    """Whether the monic `poly` (low -> high) has no monic factor of degree
    1 .. deg/2 over F_ell (trial division)."""
    for k in range(1, (len(poly) - 1) // 2 + 1):
        for low in itertools.product(range(ell), repeat=k):
            if not any(_poly_rem(poly, low + (1,), ell)):
                return False
    return True


class FiniteField(Ops):
    """F_{l^d} = F_l[x]/(irred).  An element is encoded as the base-l digit
    integer i = c_0 + c_1 l + ... + c_{d-1} l^{d-1} of its coefficients over
    1, x, ..., x^{d-1}, so 0 <= i < q = l^d.  Products, inverses and powers
    go through discrete logarithms to the first index g that generates F^x:
    `_exp[k]` is the index of g^k for 0 <= k < 2(q-1), and `_log[i]` is the
    k < q-1 with g^k = i for every unit i.  Sums of units go through Zech
    logarithms, g^a + g^b = g^a (1 + g^(b-a)): `_zech[k]` is the log of
    g^k + 1, or -1 where g^k = -1.  q is at most MAX_Q."""

    def __new__(cls, ell, d=1):
        key = (cls, ell, d)
        fld = _FF_CACHE.get(key)
        if fld is not None:
            return fld
        if d < 1:
            raise ValueError("degree must be >= 1, got %r" % (d,))
        if d > MAX_Q.bit_length() or ell ** d > MAX_Q:
            raise ValueError("F_{%d^%d} has more than MAX_Q = %d elements"
                             % (ell, d, MAX_Q))
        if not _is_prime(ell):
            raise ValueError("characteristic must be prime, got %r" % (ell,))
        fld = object.__new__(cls)
        fld.p = ell
        fld.f = d
        fld.q = ell ** d
        if (ell, d) in _CONWAY:
            fld.irred = _CONWAY[(ell, d)]
        else:
            fld.irred = next(
                poly for poly in (tuple(fld._digits(i)) + (1,)
                                  for i in range(fld.q))
                if _is_irreducible(poly, ell))
        fld._build_tables()
        _FF_CACHE[key] = fld
        return fld

    # -- construction helpers -------------------------------------------------

    def _digits(self, i):
        out = []
        for _ in range(self.f):
            i, r = divmod(i, self.p)
            out.append(r)
        return out

    def _undigits(self, ds):
        acc = 0
        for v in reversed(ds):
            acc = acc * self.p + (v % self.p)
        return acc

    def _poly_mul_mod(self, a, b):
        p, f = self.p, self.f
        out = [0] * (2 * f - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = (out[i + j] + x * y) % p
        return _poly_rem(out, self.irred, p)

    def _poly_pow(self, a, e):
        # square and multiply
        out = self._digits(1)
        while e:
            if e & 1:
                out = self._poly_mul_mod(out, a)
            a = self._poly_mul_mod(a, a)
            e >>= 1
        return out

    def _build_tables(self):
        q = self.q
        # g generates the q - 1 units exactly when g^((q-1)/r) != 1 for
        # every prime r | q - 1; its powers then fill the table once
        one = self._digits(1)
        exps = [(q - 1) // r for r in _prime_factors(q - 1)]
        dg = next(d for d in map(self._digits, range(1, q))
                  if all(self._poly_pow(d, e) != one for e in exps))
        exp, cur = [1], one
        for _ in range(q - 2):
            cur = self._poly_mul_mod(cur, dg)
            exp.append(self._undigits(cur))
        self._exp = exp + exp
        self._log = [0] * q
        for k, v in enumerate(exp):
            self._log[v] = k
        # adding 1 changes only the lowest base-l digit
        ell = self.p
        self._zech = [self._log[w] if w else -1
                      for w in (v - v % ell + (v + 1) % ell for v in exp)]
        self._lneg = self._log[ell - 1]     # -1 is the index l - 1

    # -- element ops on raw indices -------------------------------------------

    def add_i(self, i, j):
        if self.f == 1:
            return (i + j) % self.p
        if not (i and j):
            return i or j
        li = self._log[i]
        z = self._zech[(self._log[j] - li) % (self.q - 1)]
        return self._exp[li + z] if z >= 0 else 0

    def neg_i(self, i):
        if self.f == 1:
            return (-i) % self.p
        return self._exp[self._log[i] + self._lneg] if i else 0

    def mul_i(self, i, j):
        if i and j:
            return self._exp[self._log[i] + self._log[j]]
        return 0

    def inv_i(self, i):
        if i == 0:
            raise NotInvertibleError("zero in %r" % (self,))
        return self._exp[self.q - 1 - self._log[i]]

    def pow_i(self, i, e):
        if i == 0:
            if e == 0:
                return 1
            if e < 0:
                raise NotInvertibleError("zero in %r" % (self,))
            return 0
        return self._exp[self._log[i] * e % (self.q - 1)]

    def trace_i(self, i):
        # absolute trace to F_p
        acc, cur = 0, i
        for _ in range(self.f):
            acc = self.add_i(acc, cur)
            cur = self.pow_i(cur, self.p)
        return acc % self.p

    # -- public wrapped interface ----------------------------------------------

    def __repr__(self):
        return "F_%d" % self.q if self.f > 1 else "F_%d" % self.p

    def element(self, i):
        """i itself for an element of this field; an int is read as a raw
        index mod q, so over F_9 element(-1) is index 8 (2 + 2x), not -1.
        from_int gives the image of Z."""
        if isinstance(i, FFElt):
            if i.field is not self:
                raise RingMismatchError("element of %r used in %r"
                                        % (i.field, self))
            return i
        return FFElt(self, i % self.p if self.f == 1 else i % self.q)

    def from_int(self, v):
        return FFElt(self, v % self.p)

    def from_coeffs(self, coeffs):
        return FFElt(self, self._undigits(list(coeffs)[:self.f]))

    def zero(self):
        return FFElt(self, 0)

    def one(self):
        return FFElt(self, 1)

    def elements(self):
        return [FFElt(self, i) for i in range(self.q)]

    def count_map(self, powers, bits):
        """phi: sum_e c_e x^e -> sum_e c_e powers[e] in this field, for the
        counts c_e packed in `bits`-bit slots from slot 0 up."""
        mask = (1 << bits) - 1
        powers = [pw.i for pw in powers]

        def phi(c):
            acc = 0
            for pw in powers:
                v = (c & mask) % self.p
                if v:
                    acc = self.add_i(acc, self.mul_i(pw, v))
                c >>= bits
            return FFElt(self, acc)
        return phi

    @cached_property
    def indices(self):
        """The index view: this field's arithmetic on raw indices."""
        return (PrimeIndices if self.f == 1 else FieldIndices)(self)

    def root_of_unity(self, order):
        """Smallest index of multiplicative order exactly `order`."""
        n = self.q - 1
        if order < 1 or n % order != 0:
            raise NotInvertibleError(
                "order %d not available in %r (q-1 = %d)"
                % (order, self, n))
        return FFElt(self, next(i for i in range(1, self.q)
                                if n // gcd(self._log[i], n) == order))


class FFElt:
    """Element of a FiniteField, wrapping the digit-encoded index."""

    __slots__ = ("field", "i")

    def __init__(self, field, i):
        self.field = field
        self.i = i

    def _j(self, other):
        if isinstance(other, FFElt):
            if other.field is not self.field:
                raise RingMismatchError("mixed fields %r and %r"
                                        % (self.field, other.field))
            return other.i
        if isinstance(other, int):
            return other % self.field.p
        if isinstance(other, Fraction):
            if other.denominator % self.field.p == 0:
                raise NotInvertibleError("denominator divisible by l")
            num = other.numerator % self.field.p
            den = pow(other.denominator % self.field.p, -1, self.field.p)
            return (num * den) % self.field.p
        return None

    def __add__(self, other):
        j = self._j(other)
        if j is None:
            return NotImplemented
        return FFElt(self.field, self.field.add_i(self.i, j))

    __radd__ = __add__

    def __neg__(self):
        return FFElt(self.field, self.field.neg_i(self.i))

    def __sub__(self, other):
        j = self._j(other)
        if j is None:
            return NotImplemented
        return FFElt(self.field, self.field.add_i(self.i, self.field.neg_i(j)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        j = self._j(other)
        if j is None:
            return NotImplemented
        return FFElt(self.field, self.field.mul_i(self.i, j))

    __rmul__ = __mul__

    def inv(self):
        return FFElt(self.field, self.field.inv_i(self.i))

    def __truediv__(self, other):
        j = self._j(other)
        if j is None:
            return NotImplemented
        return FFElt(self.field, self.field.mul_i(self.i, self.field.inv_i(j)))

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        return FFElt(self.field, self.field.pow_i(self.i, e))

    def __bool__(self):
        return self.i != 0

    def __eq__(self, other):
        # only elements of the same field: equality with ints would be mod
        # l (1 == 4 in F_3), neither transitive nor consistent with hash
        if not isinstance(other, FFElt):
            return NotImplemented
        return self.field is other.field and self.i == other.i

    def __hash__(self):
        return hash((id(self.field), self.i))

    def __repr__(self):
        if self.field.f == 1:
            return "%d" % self.i
        return "ff(%d;%s)" % (self.i, self.field)


class FieldIndices(Ops):
    """A FiniteField on raw indices (its encoding, an int 0 <= i < q): zero
    0 and one 1, the points as range(q), and the arithmetic linalg takes
    from `fld`, a whole row or one dot product per call.  A product is one
    `_exp[_log[x] + _log[y]]` and a sum one `FiniteField.add_i`;
    PrimeIndices overrides the row operations over F_p.  A matrix becomes
    index tuples at `lower` and FFElts again at `lift`."""

    def __init__(self, field):
        self.field = field
        self.p, self.q = field.p, field.q
        self._log, self._exp, self._lneg = field._log, field._exp, field._lneg

    def zero(self):
        return 0

    def one(self):
        return 1

    def elements(self):
        return range(self.q)

    def lower(self, a):
        """A matrix of this field's FFElts as a tuple of index tuples."""
        field = self.field
        if any(x.field is not field for row in a for x in row):
            raise RingMismatchError("matrix over another field than %r"
                                    % (field,))
        return tuple(tuple(x.i for x in row) for row in a)

    def lift(self, a):
        """A matrix of indices as a tuple of FFElt tuples."""
        field = self.field
        return tuple(tuple(FFElt(field, i) for i in row) for row in a)

    def is_square(self, i):
        # q odd: the squares are the units of even discrete log, and 0
        # (whose `_log` entry is 0)
        return self._log[i] % 2 == 0

    def recip(self, x):
        return self.field.inv_i(x)

    def mul(self, x, y):
        return self.field.mul_i(x, y)

    def dot(self, u, v):
        log, exp, add, acc = self._log, self._exp, self.field.add_i, 0
        for x, y in zip(u, v):
            if x and y:
                acc = add(acc, exp[log[x] + log[y]])
        return acc

    def add(self, u, v):
        return tuple(map(self.field.add_i, u, v))

    def pairing(self, u, v, m):
        """u_X . v_Y - u_Y . v_X."""
        field = self.field
        return field.add_i(self.dot(u[:m], v[m:]),
                           field.neg_i(self.dot(u[m:], v[:m])))

    def eliminate(self, row, f, pivot_row):
        """row - f pivot_row."""
        if not f:
            return list(row)
        log, exp, add = self._log, self._exp, self.field.add_i
        t = (log[f] + self._lneg) % (self.q - 1)    # the log of -f
        return [add(x, exp[t + log[y]]) if y else x
                for x, y in zip(row, pivot_row)]

    def scale(self, row, c):
        log, exp = self._log, self._exp
        if not c:
            return [0] * len(row)
        t = log[c]
        return [exp[t + log[x]] if x else 0 for x in row]

    def neg(self, row):
        log, exp, t = self._log, self._exp, self._lneg
        return tuple(exp[t + log[x]] if x else 0 for x in row)


class PrimeIndices(FieldIndices):
    """F_p on its residues 0 .. p - 1: every operation one `% p`."""

    def mul(self, x, y):
        return x * y % self.p

    def dot(self, u, v):
        return sum(map(mul, u, v)) % self.p

    def add(self, u, v):
        p = self.p
        return tuple((x + y) % p for x, y in zip(u, v))

    def pairing(self, u, v, m):
        return (sum(map(mul, u[:m], v[m:])) -
                sum(map(mul, u[m:], v[:m]))) % self.p

    def eliminate(self, row, f, pivot_row):
        p = self.p
        return [(x - f * y) % p for x, y in zip(row, pivot_row)]

    def scale(self, row, c):
        p = self.p
        return [x * c % p for x in row]

    def neg(self, row):
        p = self.p
        return tuple(-x % p for x in row)


# ---------------------------------------------------------------------------
# Reduction Z[zeta_{p^k}] -> F_{l^d}
# ---------------------------------------------------------------------------

class ReductionMap:
    """r_l restricted to Z[zeta_{p^k}] (denominators prime to l allowed)."""

    def __init__(self, ring, field):
        self.ring = ring
        self.field = field
        if field.p == ring.p:
            raise RingMismatchError("reduction requires l != p")
        root = field.root_of_unity(ring.n)
        # the image of zeta must have order exactly p^k
        one = field.one()
        if root ** ring.n != one or root ** (ring.n // ring.p) == one:
            raise ValueError("designated root has wrong order")
        self._powers = [one]
        for _ in range(ring.phi - 1):
            self._powers.append(self._powers[-1] * root)

    def __call__(self, x):
        x = self.ring.coerce(x)
        if x.den % self.field.p == 0:
            raise NotInvertibleError("denominator divisible by l")
        acc = self.field.zero()
        for i, v in enumerate(x.coeffs):
            if v:
                acc = acc + self._powers[i] * v
        return acc * Fraction(1, x.den)

