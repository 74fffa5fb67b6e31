"""The non-normalised Weil factor Omega_mu(psi o Q), over F_q and Q_p alike
the product of the one-dimensional factors of a diagonalization (Gauss sums
over F_q; over Q_p a power of p, times the Gauss sum of F_p at an odd
valuation) times the modulus of the change of coordinates.  Also the ratio
factors Omega_{a,b}, the Hilbert-symbol identity, the Hasse product
formula, the psi-normalized Fourier transform and its epsilon constants.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .basefield import (AdditiveCharacter, FqField, QpField, modulus,
                        padic_ring, points)
from .coeff import CyclotomicRing
from .quadratic import QuadraticForm, hilbert


# ---------------------------------------------------------------------------
# finite-field Gauss sums
# ---------------------------------------------------------------------------

# one sum per (field, a, twist, coefficient ring): at most q (q - 1) per
# field and ring.  The key holds the field and ring objects themselves:
# two coefficient fields of one size, a FiniteField and an FqField, print
# alike but are different rings.
_GAUSS_CACHE = {}


def gauss_sum(field, a, psi):
    """sum over x in F_q of psi(a x^2)."""
    a = field.element(a)
    key = (field, a, psi.twist, psi.coeff_ring)
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

def omega1_padic(p, a):
    """Omega_mu(psi o Q_a) over Q_p, level-0 psi, mu(Z_p) = 1: p^k for
    val(a) = 2k and p^k g(u) for val(a) = 2k + 1, with u the residue of
    a's unit part and g(u) the Gauss sum of F_p (Weil's index of
    x -> psi(a x^2)).

    x = p^-k y scales mu by p^k and takes Q_a to Q_b, b = p^e u, e in
    {0, 1}.  On the shell val(y) = -j with j > e, shifting y by t in Z_p
    adds the phase 2 b y t, of valuation e - j < 0, and b t^2 in Z_p, so
    the shell integrates to 0.  What is left is Z_p, where psi(b y^2) = 1,
    for e = 0; for e = 1 it is p^-1 Z_p, where y = z/p gives
    p * p^-1 sum over z mod p of zeta_p^(u z^2) = g(u)."""
    w, k = _omega1_padic_parts(p, a)
    if w is None:
        w = CyclotomicRing(p).one()
    return w * Fraction(p) ** k


def _omega1_padic_parts(p, a):
    """(w, k) with omega1_padic(p, a) = w p^k: w is the Gauss sum g(u) at
    an odd valuation and None (for 1) at an even one.  g(u) is the object
    gauss_sum caches, so Cyc.inv computes its inverse once and keeps it."""
    fld = QpField(p)
    k, e = divmod(fld.val(a), 2)
    if not e:
        return None, k
    fp = FqField(p)
    u = fp.element(fld.unit_residue(a))
    # gauss_sum's key: psi (p - 1 products) is built for a new sum only
    w = _GAUSS_CACHE.get((fp, u, fp.one(), padic_ring(p)))
    if w is None:
        w = gauss_sum(fp, u, AdditiveCharacter(fp))
    return w, k


def omega1(field, psi, a):
    """One-dimensional factor for either flavor.  Over F_q it is the Gauss
    sum of psi itself; over Q_p the twist folds into the coefficient."""
    if field.flavor == "finite":
        return gauss_sum(field, a, psi)
    return omega1_padic(field.p, psi.twist * Fraction(a))


# ---------------------------------------------------------------------------
# the non-normalised Weil factor
# ---------------------------------------------------------------------------

def omega(q_form, psi, mass=1):
    """Omega_mu(psi o Q), a scalar of psi's coefficient ring.  A Haar
    measure mu on X_Q enters only through its mass relative to the
    reference measure (counting over F_q, mu(Z_p^r) = 1 over Q_p), so
    Omega_{lambda mu} = lambda Omega_mu.  Degenerate forms pass through the
    radical quotient.

    Omega is multiplicative under orthogonal sums: the product of omega1
    over the diagonal entries a_i = Q(b_i), times the mass and |det P|, P
    the b_i in quotient coordinates (1 over F_q)."""
    field = q_form.field
    vecs, vals = q_form.diagonalize()
    acc = psi.coeff_ring.one()
    if not vals:
        return acc * mass
    # the rows of P^T: each b_i in the complement's coordinates, its
    # entries where the complement's standard vectors are 1
    comp, _ = q_form.nondegenerate_part()
    pt = [[v[e.index(field.one())] for e in comp] for v in vecs]
    for a in vals:
        acc = acc * omega1(field, psi, a)
    return acc * (mass * modulus(field, linalg.det(pt, field)))


# ---------------------------------------------------------------------------
# ratios, Hilbert identity, product formula
# ---------------------------------------------------------------------------

def omega_ratio(field, psi, a, b):
    """Omega_{a,b} = Omega(psi o Q_a)/Omega(psi o Q_b); measure-free.  Both
    factors are Gauss sums from gauss_sum's cache over F_q, and over Q_p
    Omega(psi o Q_b) = w p^k is inverted as w^-1 p^-k with w such a sum
    or 1, so a ratio takes no Cyc.inv once its sums were inverted."""
    if field.flavor == "finite":
        return gauss_sum(field, a, psi) * gauss_sum(field, b, psi).inv()
    p, tw = field.p, psi.twist
    wa, ka = _omega1_padic_parts(p, tw * a)
    wb, kb = _omega1_padic_parts(p, tw * b)
    r = CyclotomicRing(p).one() if wa is None else wa
    if wb is not None:
        r = r * wb.inv()
    return r * Fraction(p) ** (ka - kb)


def hilbert_via_omega(field, psi, a, b):
    """(a,b)_F = Omega_1 Omega_{ab} / (Omega_a Omega_b); must be +-1."""
    num = omega1(field, psi, field.one()) * omega1(field, psi, a * b)
    den = omega1(field, psi, a) * omega1(field, psi, b)
    r = num * den.inv()
    one = psi.coeff_ring.one()
    if r == one:
        return 1
    if r == -one:
        return -1
    raise RuntimeError("Omega Hilbert identity did not land in {+-1}")


def omega_diag_product(q_form, psi):
    """Omega_{det_B(Q),1} * Omega_mu(psi o Q_Id_B) * h_F(Q), asserted equal to
    the directly computed Omega_mu(psi o Q)."""
    field = q_form.field
    if not q_form.is_nondegenerate():
        raise ValueError("product formula needs a nondegenerate form")
    vecs, vals = q_form.diagonalize()
    detb = vals[0]
    for a in vals[1:]:
        detb = detb * a
    one = field.one()
    ratio = omega_ratio(field, psi, detb, one)
    # Q_Id in the basis B: identity Gram expressed back in ambient coordinates
    binv = linalg.mat_inv(linalg.transpose(linalg.mat(vecs)), field)
    gid = linalg.mat_mul(linalg.transpose(binv), binv, field)
    qid = QuadraticForm(field, gid)
    w_id = omega(qid, psi)
    h = q_form.hasse()
    lhs = ratio * w_id * h
    rhs = omega(q_form, psi)
    if lhs != rhs:
        raise RuntimeError("Hasse product formula mismatch")
    return lhs


# ---------------------------------------------------------------------------
# normalized Fourier transform (finite-field matrices)
# ---------------------------------------------------------------------------

def fourier_normalizer(field, psi, rho_gram):
    """Omega_mu(psi o Q_{rho/2}) for the reference measure mu (counting
    over F_q, mu(Z_p^m) = 1 over Q_p): the scalar that normalizes the
    Fourier transform."""
    half = field.one() / 2
    q = QuadraticForm(field, [[half * x for x in row] for row in rho_gram])
    return omega(q, psi)


def fourier_matrix(field, psi, rho_gram):
    """F_{mu_rho} on functions on F_q^m: entry (x, u) is
    Omega^{-1} psi(x^T R u), the basis in `points` order."""
    m = len(rho_gram)
    gram = linalg.mat([[field.element(x) for x in row] for row in rho_gram])
    om = fourier_normalizer(field, psi, rho_gram)
    om_inv = om.inv()
    pts = points(field, m)
    rows = []
    for x in pts:
        rx = linalg.mat_vec(gram, x, field)
        rows.append(tuple(om_inv * psi(field.dot(rx, u)) for u in pts))
    return linalg.mat(rows)


def convolution(field, psi, rho_gram, f, g):
    """f *_{mu_rho} g on functions F_q^m -> R given as dicts point -> value."""
    om_inv = fourier_normalizer(field, psi, rho_gram).inv()
    m = len(rho_gram)
    pts = points(field, m)
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
    one = field.one()
    om = omega_ratio(field, psi, -one, one)
    half = field.one() / 2
    gram = linalg.mat([[field.element(x) * half for x in row]
                       for row in rho_gram])
    d = linalg.det(gram, field)
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
        sq = sqrt_q ** field.val(linalg.det(gram, field))
    return om * sq.inv()
