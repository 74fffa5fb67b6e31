"""Independent reference computations for the benchmark's correctness checks.

Everything here uses plain integers mod p and Fractions only; nothing imports
weilmod, so a fault in the library cannot hide in a check that calls it.
"""

from fractions import Fraction
from itertools import product


class CheckError(AssertionError):
    """A program output disagrees with an independent computation."""


def require(ok, what, got=None, want=None):
    if not ok:
        raise CheckError("%s: got %r, want %r" % (what, got, want))


# ---------------------------------------------------------------------------
# Q_p for odd p: valuations, Legendre symbols, Hilbert symbols
# ---------------------------------------------------------------------------

def val_p(x, p):
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ZeroDivisionError("valuation of zero")
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def unit_residue(x, p):
    """The unit part of x, reduced mod p."""
    x = Fraction(x) / Fraction(p) ** val_p(x, p)
    return x.numerator * pow(x.denominator, -1, p) % p


def legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def hilbert_qp(a, b, p):
    """(a, b)_p for odd p by the closed form: with a = p^al u, b = p^be v,
    (a, b)_p = (-1)^(al be (p-1)/2) (u/p)^be (v/p)^al."""
    al, be = val_p(a, p), val_p(b, p)
    u, v = unit_residue(a, p), unit_residue(b, p)
    s = (-1) ** (al * be * ((p - 1) // 2) % 2)
    if be % 2:
        s *= legendre(u, p)
    if al % 2:
        s *= legendre(v, p)
    return s


def hasse_diag(vals, p):
    """Hasse invariant prod_{i<j} (a_i, a_j)_p of a diagonal form."""
    s = 1
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            s *= hilbert_qp(vals[i], vals[j], p)
    return s


def square_class_tag(x, p):
    """Tag of x mod squares in Q_p^x: 1, u0, p or u0p."""
    odd = val_p(x, p) % 2
    square_unit = legendre(unit_residue(x, p), p) == 1
    return {(0, True): "1", (0, False): "u0",
            (1, True): "p", (1, False): "u0p"}[(odd, square_unit)]


# ---------------------------------------------------------------------------
# symplectic matrices and SL_2
# ---------------------------------------------------------------------------

def mat_mul(a, b, p=None):
    """Matrix product, reduced mod p when p is given."""
    cols = list(zip(*b))
    out = []
    for row in a:
        r = [sum(x * y for x, y in zip(row, c)) for c in cols]
        out.append(tuple(v % p for v in r) if p else tuple(r))
    return tuple(out)


def transpose(a):
    return tuple(zip(*a))


def form_j(m):
    """J = [[0, I], [-I, 0]] for the basis e_1..e_m, f_1..f_m."""
    n = 2 * m
    return tuple(tuple(1 if j == i + m else -1 if i == j + m else 0
                       for j in range(n)) for i in range(n))


def is_symplectic(g, p=None):
    """g^T J g = J, exactly over Q (p None) or mod p."""
    j = form_j(len(g) // 2)
    lhs = mat_mul(mat_mul(transpose(g), j, p), g, p)
    if p:
        j = tuple(tuple(v % p for v in row) for row in j)
    return lhs == j


def sl2(p):
    """All of SL_2(F_p) as integer matrices mod p, in lexicographic order."""
    return [((a, b), (c, d))
            for a, b, c, d in product(range(p), repeat=4)
            if (a * d - b * c) % p == 1]


def sl2_order(q):
    return q * (q * q - 1)


# ---------------------------------------------------------------------------
# orthogonal groups and theta dimensions over F_p
# ---------------------------------------------------------------------------

def rank_mod(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i],
                                                           rows[rank])]
        rank += 1
    return rank


def orthogonal_group(gram, p):
    """All h in GL_n(F_p) with h^T G h = G, by enumeration."""
    n = len(gram)
    g = tuple(tuple(v % p for v in row) for row in gram)
    out = []
    for flat in product(range(p), repeat=n * n):
        h = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
        if mat_mul(mat_mul(transpose(h), g, p), h, p) == g:
            out.append(h)
    return out


def pm_characters(group, p):
    """All homomorphisms group -> {1, -1}, each as a dict, by brute force."""
    index = {h: k for k, h in enumerate(group)}
    table = [[index[mat_mul(a, b, p)] for b in group] for a in group]
    chars = []
    for signs in product((1, -1), repeat=len(group)):
        if all(signs[table[i][j]] == signs[i] * signs[j]
               for i in range(len(group)) for j in range(len(group))):
            chars.append(dict(zip(group, signs)))
    return chars


def theta_dim(group, chi, p):
    """dim Theta(chi) = (1/|H1|) sum_h chi(h) p^dim ker(h - 1): the
    multiplicity of chi in the permutation action of O(V) on functions on
    V (for m' = 1), whose trace at h counts the fixed points of h."""
    n = len(group[0])
    total = 0
    for h in group:
        minus = [[(h[i][j] - (i == j)) % p for j in range(n)]
                 for i in range(n)]
        total += chi[h] * p ** (n - rank_mod(minus, p))
    if total % len(group):
        raise CheckError("character sum not divisible by |H1|")
    return total // len(group)


# ---------------------------------------------------------------------------
# Gauss sums in Z[zeta_p] (power basis 1, zeta, ..., zeta^(p-2))
# ---------------------------------------------------------------------------

def _cyclo_reduce(coeffs, p):
    """Fold a length-p vector over zeta^0..zeta^(p-1) into the power basis,
    using zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))."""
    top = coeffs[p - 1]
    return [c - top for c in coeffs[:p - 1]]


def gauss_product(diag, p):
    """sum over x in F_p^n of zeta_p^(sum a_i x_i^2), as power-basis
    coefficients: the Weil factor of diag(a_1..a_n) with counting measure."""
    acc = [0] * p
    acc[0] = 1
    for a in diag:
        g = [0] * p
        for x in range(p):
            g[a * x * x % p] += 1
        nxt = [0] * p
        for i, u in enumerate(acc):
            if u:
                for j, v in enumerate(g):
                    nxt[(i + j) % p] += u * v
        acc = nxt
    return _cyclo_reduce(acc, p)
