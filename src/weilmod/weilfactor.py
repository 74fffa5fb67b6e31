"""The non-normalised Weil factor Omega_mu(psi o Q), over F_q and Q_p alike
the product of the one-dimensional factors of a diagonalization (Gauss sums
over F_q, stabilized lattice sums over Q_p) times the modulus of the change
of coordinates.  Also the ratio factors Omega_{a,b}, the Hilbert-symbol
identity, the Hasse product formula, the psi-normalized Fourier transform
and its epsilon constants.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .basefield import HaarConvention, QpField, modulus
from .coeff import CyclotomicRing
from .quadratic import QuadraticForm, hilbert


class OmegaValue(NamedTuple):
    value: object          # unit of the coefficient ring
    measure: object        # HaarConvention it was computed against
    diag: tuple            # diagonal entries of the nondegenerate part


# ---------------------------------------------------------------------------
# finite-field Gauss sums
# ---------------------------------------------------------------------------

# one sum per (field, a, twist, coefficient ring): at most q (q - 1) per
# field and ring.  The key holds the field and ring objects themselves:
# two coefficient fields F_{l^d} built apart (with another polynomial, or
# the same one) share a descriptor but are different rings.
_GAUSS_CACHE = {}


def gauss_sum(field, a, psi):
    """sum over x in F_q of psi(a x^2)."""
    a = field.element(a)
    key = (field, a.i, psi.twist.i, psi.coeff_ring)
    v = _GAUSS_CACHE.get(key)
    if v is None:
        acc = None
        for x in field.elements():
            t = psi(a * x * x)
            acc = t if acc is None else acc + t
        _GAUSS_CACHE[key] = acc
        v = acc
    return v


# ---------------------------------------------------------------------------
# p-adic one-dimensional factors (level-0 psi; twists fold into the
# coefficient since psi_c(a x^2) = psi(c a x^2))
# ---------------------------------------------------------------------------

# one (value, representative) per (p, val(a) mod 2, square class of the
# unit part): at most 4 per prime p
_PADIC_CACHE = {}


def omega1_padic(p, a):
    """Omega_mu(psi o Q_a) over Q_p, level-0 psi, mu(Z_p) = 1.

    Valuation is first reduced by square extraction (the s^2-identity); the
    residual class representative is evaluated by a stabilized lattice sum,
    checked at two consecutive depths."""
    a = Fraction(a)
    if a == 0:
        raise ZeroDivisionError("Omega of Q_0 in dimension 1 is the 0-form")
    fld = QpField(p)
    v = fld.val(a)
    r = v % 2
    s = (v - r) // 2
    res = fld.legendre(fld.unit_residue(a))
    key = (p, r, res)
    core = _PADIC_CACHE.get(key)
    if core is None:
        u = 1 if res == 1 else fld.nonresidue()
        rep = Fraction(u * p ** r)
        n0 = (0 - r + 1) // 2 + 1  # ceil((cond - v)/2) + 1 at cond = 0
        q_rep = QuadraticForm(fld, [[rep]])
        w1 = omega_brute_padic(q_rep, n0)
        w2 = omega_brute_padic(q_rep, n0 + 1)
        if w1 != w2:
            raise RuntimeError("p-adic Weil factor failed to stabilize")
        core = (w1, rep)
        _PADIC_CACHE[key] = core
    w, rep = core
    # a = (a/rep) * rep with a/rep = square * unit-square-class-1 element
    scale = Fraction(p) ** s
    # remaining unit square factor has modulus 1: Omega(Q_{w^2 u}) = Omega(Q_u)
    return w * scale


def omega1(field, psi, a):
    """One-dimensional factor for either flavor.  Over F_q it is the Gauss
    sum of psi itself; over Q_p the twist folds into the coefficient."""
    if field.flavor == "finite":
        return gauss_sum(field, a, psi)
    return omega1_padic(field.p, psi.twist * Fraction(a))


# ---------------------------------------------------------------------------
# the non-normalised Weil factor
# ---------------------------------------------------------------------------

def omega(q_form, mu, psi):
    """Omega_mu(psi o Q).  Degenerate forms pass through the radical
    quotient; mu is a measure on X_Q (None: the field's default)."""
    field = q_form.field
    if mu is None:
        mu = HaarConvention.default_for(field)
    val = _omega_scalar(q_form, mu, psi)
    return OmegaValue(val, mu, q_form.diagonalize()[1])


def _omega_scalar(q_form, mu, psi):
    """Omega is multiplicative under orthogonal sums: the product of
    omega1 over the diagonal entries a_i = Q(b_i), times mu's mass and
    |det P|, P the b_i in quotient coordinates (1 over F_q)."""
    field = q_form.field
    vecs, vals = q_form.diagonalize()
    acc = psi.coeff_ring.one()
    if not vals:
        return acc * mu.scale
    # the rows of P^T: each b_i in the complement's coordinates
    comp, _ = q_form.nondegenerate_part()
    pt = linalg.solve_columns(linalg.transpose(comp), vecs, field)
    for a in vals:
        acc = acc * omega1(field, psi, a)
    return acc * (mu.scale * modulus(field, linalg.det(pt)))


def omega_brute_padic(q_form, depth):
    """Truncated lattice sum  int_{(p^-depth Z_p)^r} psi(Q(x)) dx  for the
    level-0 psi and mu(Z_p^r) = 1, exact over (p^-depth Z_p / p^n' Z_p)^r
    at a refinement n' making psi(Q(x)) constant.  In dimension 1 it is the
    kernel of omega1_padic; in higher dimension an independent oracle."""
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


# ---------------------------------------------------------------------------
# ratios, Hilbert identity, product formula
# ---------------------------------------------------------------------------

def omega_ratio(field, psi, a, b):
    """Omega_{a,b} = Omega(psi o Q_a)/Omega(psi o Q_b); measure-free."""
    wa = omega1(field, psi, a)
    wb = omega1(field, psi, b)
    return wa * wb.inv()


def hilbert_via_omega(field, psi, a, b):
    """(a,b)_F = Omega_1 Omega_{ab} / (Omega_a Omega_b); must be +-1."""
    num = omega1(field, psi, field.element(1)) * omega1(field, psi, a * b)
    den = omega1(field, psi, a) * omega1(field, psi, b)
    r = num * den.inv()
    one = psi.coeff_ring.one()
    if r == one:
        return 1
    if r == -one:
        return -1
    raise RuntimeError("Omega Hilbert identity did not land in {+-1}")


def omega_diag_product(q_form, mu, psi):
    """Omega_{det_B(Q),1} * Omega_mu(psi o Q_Id_B) * h_F(Q), asserted equal to
    the directly computed Omega_mu(psi o Q)."""
    field = q_form.field
    if mu is None:
        mu = HaarConvention.default_for(field)
    if not q_form.is_nondegenerate():
        raise ValueError("product formula needs a nondegenerate form")
    vecs, vals = q_form.diagonalize()
    detb = vals[0]
    for a in vals[1:]:
        detb = detb * a
    one = field.element(1)
    ratio = omega_ratio(field, psi, detb, one)
    # Q_Id in the basis B: identity Gram expressed back in ambient coordinates
    binv = linalg.mat_inv(linalg.transpose(linalg.mat(vecs)), field)
    gid = linalg.mat_mul(linalg.transpose(binv), binv)
    qid = QuadraticForm(field, gid)
    w_id = _omega_scalar(qid, mu, psi)
    h = q_form.hasse()
    lhs = ratio * w_id * h
    rhs = _omega_scalar(q_form, mu, psi)
    if lhs != rhs:
        raise RuntimeError("Hasse product formula mismatch")
    return lhs


# ---------------------------------------------------------------------------
# normalized Fourier transform (finite-field matrices)
# ---------------------------------------------------------------------------

def fourier_normalizer(field, psi, rho_gram):
    """Omega_mu(psi o Q_{rho/2}) for the field's default mu (counting over
    F_q, mu(Z_p^m) = 1 over Q_p): the scalar that normalizes the Fourier
    transform."""
    half = field.element(1) / 2
    q = QuadraticForm(field, [[half * x for x in row] for row in rho_gram])
    return _omega_scalar(q, HaarConvention.default_for(field), psi)


def fourier_matrix(field, psi, rho_gram):
    """F_{mu_rho} on functions on F_q^m: entry (x, u) is
    Omega^{-1} psi(x^T R u).  Basis indexed by lexicographic tuples."""
    m = len(rho_gram)
    gram = linalg.mat([[field.element(x) for x in row] for row in rho_gram])
    om = fourier_normalizer(field, psi, rho_gram)
    om_inv = om.inv()
    elts = field.elements()
    pts = list(itertools.product(elts, repeat=m))
    rows = []
    for x in pts:
        rx = linalg.mat_vec(gram, x)
        rows.append(tuple(om_inv * psi(linalg._dot(rx, u)) for u in pts))
    return linalg.mat(rows)


def convolution(field, psi, rho_gram, f, g):
    """f *_{mu_rho} g on functions F_q^m -> R given as dicts point -> value."""
    om_inv = fourier_normalizer(field, psi, rho_gram).inv()
    m = len(rho_gram)
    pts = list(itertools.product(field.elements(), repeat=m))
    out = {}
    for x in pts:
        acc = None
        for u in pts:
            xu = tuple(a - b for a, b in zip(x, u))
            t = f[u] * g[xu]
            acc = t if acc is None else acc + t
        out[x] = acc * om_inv
    return out


def epsilon(field, psi, rho_gram):
    """epsilon = Omega_{-1,1}^m (-1, det(Q_{rho/2}))_F with
    epsilon^2 = (-1,-1)_F^m."""
    m = len(rho_gram)
    one = field.element(1)
    om = omega_ratio(field, psi, -one, one)
    half = field.element(1) / 2
    gram = linalg.mat([[field.element(x) * half for x in row]
                       for row in rho_gram])
    d = linalg.det(gram)
    sym = hilbert(field, -one, d)
    return om ** m * sym


def classical_weil_factor(field, psi, rho_gram, sqrt_q):
    """omega(psi o Q_{rho/2}) = Omega / |rho|_mu^{1/2}; sqrt_q is supplied by
    the caller (the coefficient ring does not canonicalize it)."""
    om = fourier_normalizer(field, psi, rho_gram)
    if field.flavor == "finite":
        sq = sqrt_q ** len(rho_gram)  # |rho|_mu = q^m
    else:
        gram = linalg.mat([[Fraction(x) for x in row] for row in rho_gram])
        sq = sqrt_q ** field.val(linalg.det(gram))
    return om * sq.inv()
