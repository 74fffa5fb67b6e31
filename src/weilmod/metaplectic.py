"""Bruhat decomposition and x(g), the normalized measures mu_g, the section
sigma on the Schrödinger model, the metaplectic 2-cocycle (operator path over
finite F, closed-form path via Leray data over any F), and M[g].
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .coeff import Cyc, CyclotomicRing, FFElt
from .heisenberg import SchrodingerModel, coset_reps, delta
from .quadratic import QuadraticForm, hilbert, square_class
from .weilfactor import gauss_sum, omega_ratio


class BruhatData(NamedTuple):
    j: int
    p1: tuple
    p2: tuple


class LerayData(NamedTuple):
    s: tuple        # S
    s1: tuple       # S1 subset of complement of S
    s2: tuple       # S2 subset of complement of S
    rho: tuple      # symmetric |S| x |S| matrix of u_rho (may be empty)
    p: tuple
    p1: tuple
    p2: tuple


# ---------------------------------------------------------------------------
# subspace helpers over an arbitrary base field
# ---------------------------------------------------------------------------

def _echelon_kernel_image(a, c, field):
    """A ker C as {f: b_f}, its basis in reduced echelon form read from the
    last coordinate: b_f is 1 at its last nonzero coordinate f and 0 at the
    other keys (one nullspace of C, one rref of the reversed vectors A k)."""
    m = len(a)
    rows, piv = linalg.rref([linalg.mat_vec(a, k)[::-1]
                             for k in linalg.nullspace(c, field)])
    return {m - 1 - pc: row[::-1] for row, pc in zip(rows, piv)}


def _x_meet(space, vectors):
    """X cap span(vectors) for independent vectors (v_X; v_Y): -V_X k, with
    Y = 0, for each k in the nullspace basis of V_Y."""
    m = space.m
    vx = linalg.transpose([v[:m] for v in vectors])
    vy = linalg.transpose([v[m:] for v in vectors])
    pad = (space.field.element(0),) * m
    return [tuple(-x for x in linalg.mat_vec(vx, k)) + pad
            for k in linalg.nullspace(vy, space.field)]


# ---------------------------------------------------------------------------
# Bruhat decomposition and x(g)
# ---------------------------------------------------------------------------

def bruhat_decompose(space, g):
    """g = p1 w_j p2, verified by re-multiplication.

    For g = [[A, B], [C, D]], j = rank C and gX cap X = A ker C (Rao).
    p1 = [[U, U S], [0, U^-T]]: U is e_i for i in N, then minus the basis
    of A ker C in reduced echelon form read from the last coordinate, N
    being the j indices that are not its pivots; S is symmetric with
    S[:, :j] = U^-1 A K for C[N] K = I_j, and S[j:, j:] = 0."""
    field = space.field
    m = space.m
    if not space.is_symplectic(g):
        raise ValueError("matrix is not symplectic")
    a, _, c, _ = space.blocks(g)
    zero, one = field.element(0), field.element(1)
    echelon = _echelon_kernel_image(a, c, field)
    n_idx = [i for i in range(m) if i not in echelon]
    j = len(n_idx)
    # K from one rref of [C[N] | I_j], zero off its pivots: y_i = g (k_i, 0)
    rows, piv = linalg.rref([c[r] + tuple(one if t == i else zero
                                          for t in range(j))
                             for i, r in enumerate(n_idx)])
    if any(pc >= m for pc in piv):
        raise RuntimeError("Bruhat: p1 construction failed")
    gcols = linalg.transpose(g)
    us = [space.basis_e(i) for i in n_idx]
    ys = [linalg.combine([row[m + i] for row in rows],
                         [gcols[pc] for pc in piv], space.zero_vec())
          for i in range(j)]
    # the column of -b_f: (U S, U^-T) e_f = (-sum_i (A k_i)_f e_{N_i}, -f_f)
    for f in sorted(echelon):
        us.append(tuple(-x for x in echelon[f]) + (zero,) * m)
        y = [zero] * (2 * m)
        for i, r in enumerate(n_idx):
            y[r] = -ys[i][f]
        y[m + f] = -one
        ys.append(tuple(y))
    p1 = linalg.transpose(linalg.mat(us + ys))
    if not space.is_symplectic(p1) or not space.in_parabolic(p1):
        raise RuntimeError("Bruhat: p1 construction failed")
    sj = set(range(j))
    p2 = space.w_inv_mul(sj, linalg.mat_mul(space.inv(p1), g))
    if not space.in_parabolic(p2):
        raise RuntimeError("Bruhat: p2 not parabolic")
    if linalg.mat_mul(space.mul_w(p1, sj), p2) != g:
        raise RuntimeError("Bruhat: product check failed")
    return BruhatData(j, p1, p2)


def x_invariant(space, g, bruhat=None):
    """x(g) = det_X(p1) det_X(p2) mod squares; a given `bruhat` must be
    bruhat_decompose(space, g)."""
    bd = bruhat or bruhat_decompose(space, g)
    d = space.det_x(bd.p1) * space.det_x(bd.p2)
    return square_class(space.field, d)


def mu_g_scalar(space, psi, g, bruhat=None):
    """The decomposition-invariant mass of mu_g relative to mu_{w_j}: the
    normalization Omega_{1, det_X(p1 p2)} times, over Q_p, the volume of the
    transported reference lattice (finite F: a point, so the bare Omega)."""
    bd = bruhat or bruhat_decompose(space, g)
    d = space.det_x(bd.p1) * space.det_x(bd.p2)
    field = space.field
    one = field.element(1)
    base = omega_ratio(field, psi, one, d)
    if field.flavor == "finite" or bd.j == 0:
        return base
    # volume of phi_1(image of the standard X-lattice) in mu_{w_j}-coords
    p1inv = space.inv(bd.p1)
    m, j = space.m, bd.j
    cols = []
    for k in range(m):
        v = linalg.mat_vec(p1inv, space.basis_e(k))
        cols.append(tuple(v[:j]))  # projection mod X_{cS_j}
    best = None
    for subset in itertools.combinations(range(m), j):
        sq = [[cols[c][r] for c in subset] for r in range(j)]
        dv = linalg.det(linalg.mat(sq))
        if dv != 0:
            val = field.val(dv)
            best = val if best is None else min(best, val)
    if best is None:
        raise RuntimeError("degenerate lattice projection in mu_g")
    return base * Fraction(field.p) ** (-best)


# ---------------------------------------------------------------------------
# the section sigma on the Schrödinger model (finite F)
# ---------------------------------------------------------------------------

# the most sigma(g) count forms one WeilContext keeps; the oldest go first
SIGMA_CACHE_SIZE = 4096


class WeilContext:
    """Finite base field, coefficient ring via psi, Schrödinger model, and
    the cache of sigma(g) in count form (see sigma_counts).

    psi(x) = zeta_p^{Tr(c x)} for the twist c, so every sigma(g) is a scalar
    times a matrix of sums of p-th roots of unity.  An entry sum_e c_e
    zeta^e is kept as its counts c_0 .. c_{p-1} packed into one int, slot e
    at bit B e (Kronecker substitution).  A product entry sums n counts,
    each a product of two entries of at most q^m terms, so no slot of a
    product exceeds n q^{2m} < 2^B."""

    def __init__(self, space, psi):
        self.space = space
        self.psi = psi
        self.model = SchrodingerModel(space, psi)
        self._sigma_cache = {}
        # mu_{w_j} normalizer: Omega(psi o Q_j) with Q_j(x) = x^2/2 per
        # coordinate (the sign that makes sigma multiplicative over finite F)
        self._gauss_half_inv = gauss_sum(space.field,
                                         space.field.element(1) / 2,
                                         psi).inv()
        field = space.field
        # the Y-points as raw coordinates, in basis order
        self._ypoints = tuple(tuple(x.i for x in pt)
                              for pt in self.model._points)
        self._yindex = {pt: i for i, pt in enumerate(self._ypoints)}
        # 2^B > n q^{2m}, the largest slot a product can reach
        self._slot_bits = (self.model.dim *
                           field.q ** (2 * space.m)).bit_length()
        self._phi = _ring_map(psi, self._slot_bits)

    def one(self):
        return self.psi.coeff_ring.one()

    def zero(self):
        return self.psi.coeff_ring.zero()


def _ring_map(psi, bits):
    """phi: packed counts -> R, sum_e c_e x^e -> sum_e c_e root^e with
    root = psi._powers[1], psi's image of zeta_p; one scalar of R each."""
    mask = (1 << bits) - 1
    ring = psi.coeff_ring
    if isinstance(ring, CyclotomicRing):
        basis = [pw.coeffs for pw in psi._powers]

        def phi(c):
            vec = [0] * ring.phi
            for b in basis:
                v = c & mask
                if v:
                    for t, x in enumerate(b):
                        vec[t] += v * x
                c >>= bits
            return Cyc(ring, vec, 1)
        return phi
    powers = [pw.i for pw in psi._powers]

    def phi(c):
        acc = 0
        for pw in powers:
            v = (c & mask) % ring.p
            if v:
                acc = ring.add_i(acc, ring.mul_i(pw, v))
            c >>= bits
        return FFElt(ring, acc)
    return phi


def sigma_counts(ctx, g):
    """(mu, N) with sigma(g) = mu phi(N): the scalar mu = mu_g normalized
    by Omega_{1/2}^{-j}, and N the packed count matrix on the Y-point basis
    (see WeilContext), from the cache when it holds g.

    sigma(g) f (y0) = mu sum_a psi(<a, y0>/2 - <w_X, w_Y>/2) f(w_Y) with
    w = g^-1 (a + y0), a over a complement of gX cap X in X: the F_q-span
    of the first j columns of Bruhat's p1.  Since g^-1 (a + y0) = g^-1 a +
    g^-1 y0, the build makes q^j + q^m products by g^-1, on raw indices."""
    cache = ctx._sigma_cache
    entry = cache.get(g)
    if entry is not None:
        return entry
    space = ctx.space
    field = space.field
    m, p = space.m, field.p
    bd = bruhat_decompose(space, g)
    mu = mu_g_scalar(space, ctx.psi, g, bd) * ctx._gauss_half_inv ** bd.j
    add, mul, exp = field.add_i, field.mul_i, ctx.psi._exp
    ginv = [[x.i for x in row] for row in space.inv(g)]

    def image(v):   # g^-1 v for v = (x-part, y-part)
        out = []
        for row in ginv:
            acc = 0
            for s, t in zip(row, v):
                acc = add(acc, mul(s, t))
            out.append(acc)
        return out
    comp = [[bd.p1[r][k].i for r in range(m)] for k in range(bd.j)]
    reps = []
    for co in itertools.product(range(field.q), repeat=bd.j):
        a = [0] * m
        for c, col in zip(co, comp):
            a = [add(x, mul(c, y)) for x, y in zip(a, col)]
        reps.append((a, image(a + [0] * m)))
    shift = [1 << (ctx._slot_bits * e) for e in range(p)]
    half = (p + 1) // 2     # 1/2 in F_p; Tr(c x/2) = Tr(c x)/2
    n = ctx.model.dim
    rows = []
    for y in ctx._ypoints:
        vy = image([0] * m + list(y))
        row = [0] * n
        for a, va in reps:
            w = [add(s, t) for s, t in zip(va, vy)]
            e = 0
            for k in range(m):
                e += exp[mul(a[k], y[k])] - exp[mul(w[k], w[m + k])]
            row[ctx._yindex[tuple(w[m:])]] += shift[e * half % p]
        rows.append(tuple(row))
    entry = (mu, tuple(rows))
    if len(cache) >= SIGMA_CACHE_SIZE:
        del cache[next(iter(cache))]
    cache[g] = entry
    return entry


def _count_product(ctx, n1, n2):
    """N1 N2 for packed count matrices: each entry one packed dot product
    (a product of packed ints is the product of the count polynomials),
    folded mod x^p - 1 once."""
    bits = ctx._slot_bits * ctx.space.field.p
    low = (1 << bits) - 1
    cols = tuple(zip(*n2))
    out = []
    for row in n1:
        sums = [sum(map(operator.mul, row, col)) for col in cols]
        out.append(tuple((s & low) + (s >> bits) for s in sums))
    return tuple(out)


def _ring_matrix(ctx, counts):
    """phi(N) as a dense matrix over R."""
    phi, zero = ctx._phi, ctx.zero()
    return tuple(tuple(phi(c) if c else zero for c in row) for row in counts)


def sigma(ctx, g):
    """sigma(g) = I_{gX,X,mu_g,0} o I_g as a dense matrix on the Y-point
    basis; the measure normalization makes it multiplicative over finite F.
    Only the count form is cached."""
    mu, counts = sigma_counts(ctx, g)
    return linalg.mat_scal(mu, _ring_matrix(ctx, counts))


def scalar_ratio(a, b, zero):
    """c with a = c*b for matrices, or None."""
    c = None
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if y != zero:
                c = x * y.inv()
                break
        if c is not None:
            break
    if c is None:
        return None
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if x != c * y:
                return None
    return c


def cocycle_operator(ctx, g1, g2):
    """sigma(g1) sigma(g2) sigma(g1 g2)^{-1} must be scalar; returns it.
    With sigma(g) = mu phi(N), that is mu1 mu2 mu12^-1 c for the scalar c
    with phi(N1 N2) = c phi(N12), checked on every entry in R."""
    mu1, n1 = sigma_counts(ctx, g1)
    mu2, n2 = sigma_counts(ctx, g2)
    mu12, n12 = sigma_counts(ctx, linalg.mat_mul(g1, g2))
    c = scalar_ratio(_ring_matrix(ctx, _count_product(ctx, n1, n2)),
                     _ring_matrix(ctx, n12), ctx.zero())
    if c is None:
        raise RuntimeError("cocycle operator is not scalar")
    return mu1 * mu2 * mu12.inv() * c


# ---------------------------------------------------------------------------
# M[g] (finite F)
# ---------------------------------------------------------------------------

def m_bracket(ctx, g):
    """M[g] = sum over W/Ker(1-g) of psi(<w, g w>/2) rho((1-g)w, 0) with the
    counting measure; lies in the same intertwining direction as sigma(g),
    so the two are Schur-proportional."""
    space = ctx.space
    field = space.field
    one_minus = linalg.mat_sub(space.identity(), g)
    ker = linalg.nullspace(one_minus, field)
    std = [space.basis_e(i) for i in range(space.m)] + \
          [space.basis_f(i) for i in range(space.m)]
    model = ctx.model
    half = space.half()
    n = model.dim
    zero = ctx.zero()
    rows = [[zero] * n for _ in range(n)]
    for w in coset_reps(ker, std, field):
        phase = ctx.psi(half * space.pairing(w, linalg.mat_vec(g, w)))
        mono = model.rho(delta(space, linalg.mat_vec(one_minus, w)))
        for j in range(n):
            rows[mono.perm[j]][j] = rows[mono.perm[j]][j] + \
                phase * mono.phases[j]
    return linalg.mat(rows)


# ---------------------------------------------------------------------------
# Leray decomposition
# ---------------------------------------------------------------------------

def u_rho_matrix(space, s_indices, rho):
    """u_rho: identity on X + Y_{cS}; f_j -> f_j + sum_k rho[k][j] e_k."""
    field = space.field
    m = space.m
    cols = []
    for i in range(m):
        cols.append(space.basis_e(i))
    for i in range(m):
        v = list(space.basis_f(i))
        if i in s_indices:
            pos = s_indices.index(i)
            for kpos, k in enumerate(s_indices):
                v[k] = v[k] + rho[kpos][pos]
        cols.append(tuple(v))
    g = linalg.transpose(linalg.mat(cols))
    if not space.is_symplectic(g):
        raise ValueError("rho matrix must be symmetric (u_rho symplectic)")
    return g


def _mul_u_rho(space, g, s_indices, rho, inverse=False):
    """g u_rho, or g u_rho^-1 = g u_{-rho}: column m+j of g gains (or
    loses) sum_k rho[k][j] (column k) for j in S; the other columns stay."""
    m = space.m
    rho_cols = linalg.transpose(rho)
    out = []
    for r in g:
        row = list(r)
        xs = [r[k] for k in s_indices]
        for j, col in zip(s_indices, rho_cols):
            shift = linalg._dot(col, xs)
            row[m + j] = row[m + j] - shift if inverse else row[m + j] + shift
        out.append(tuple(row))
    return tuple(out)


def leray_decompose(space, g1, g2):
    """Leray data: g1 = p1 w_{S u S1} u_rho p^{-1}, g2 = p w_{S u S2} p2,
    built deterministically from the triple (X, g1^{-1}X, g2 X)."""
    field = space.field
    m = space.m
    if not (space.is_symplectic(g1) and space.is_symplectic(g2)):
        raise ValueError("matrix is not symplectic")
    zero, one = field.element(0), field.element(1)
    # L1 = g1^-1 X is spanned by the columns (D1^T; -C1^T), L2 = g2 X by
    # (A2; C2), and <g1^-1 e_i, g2 e_j> is entry ij of C12, the C block of
    # g1 g2; every subspace below is read off these blocks
    xb = [space.basis_e(i) for i in range(m)]
    l1 = [r[m:] + tuple(-x for x in r[:m]) for r in g1[m:]]
    g2x = tuple(row[:m] for row in g2)
    l2 = list(linalg.transpose(g2x))
    c12 = linalg.mat_mul(g1[m:], g2x)
    # L1 cap L2 = -g2 (ker C12; 0), and its part in X is A2 ker [C12; C2]
    ker12 = linalg.nullspace(c12, field)
    inter12 = [tuple(-x for x in linalg.mat_vec(g2x, k)) for k in ker12]
    echelon = _echelon_kernel_image(g2x[:m], c12 + g2x[m:], field)
    a_basis = [tuple(-x for x in echelon[f]) + (zero,) * m
               for f in sorted(echelon)]
    x_l1 = _x_meet(space, l1)
    x_l2 = _x_meet(space, l2)
    # L1 + L2 has the basis L1 and the columns of L2 at the pivots of C12:
    # the last nonzero coordinate of each kernel vector is a free column
    free = {max(k for k, x in enumerate(v) if x) for v in ker12}
    z_basis = _x_meet(space, l1 + [l2[k] for k in range(m) if k not in free])
    # dim(X - gX cap X) = rank C for g = [[A, B], [C, D]]
    j1, j2, j12 = m - len(x_l1), m - len(x_l2), m - len(inter12)
    t = len(a_basis)
    l_ov = m - t - j12
    ns = j1 + j2 + j12 + 2 * t - 2 * m
    n1, n2 = j1 - ns, j2 - ns
    if ns < 0 or l_ov < 0 or n1 < l_ov or n2 < l_ov:
        raise RuntimeError("Leray: inconsistent invariants")
    # index layout
    s_idx = list(range(ns))
    p12_idx = list(range(ns, ns + l_ov))
    p1_idx = list(range(ns + l_ov, ns + n1))                 # S1 only
    p2_idx = list(range(ns + n1, ns + n1 + (n2 - l_ov)))     # S2 only
    c_idx = list(range(ns + n1 + n2 - l_ov, m))
    s1 = tuple(sorted(p12_idx + p1_idx))
    s2 = tuple(sorted(p12_idx + p2_idx))
    # e' vectors: one greedy pass over the groups in this order, each
    # vector kept when it is not in the span of those before it
    groups = ((c_idx, a_basis), (p2_idx, x_l1), (p1_idx, x_l2),
              (s_idx, z_basis), (p12_idx, xb))
    vecs = [v for _, vs in groups for v in vs]
    piv = linalg.rref(linalg.transpose([v[:m] for v in vecs]))[1]
    e = [None] * m
    start = 0
    for idx, vs in groups:
        kept = [vecs[c] for c in piv if start <= c < start + len(vs)]
        if len(kept) != len(idx):
            raise RuntimeError("Leray: e-basis construction failed")
        for i, v in zip(idx, kept):
            e[i] = v
        start += len(vs)
    # f' vectors, one rref per block (but the C block, whose `extra` grows)
    f = [None] * m

    def solve_block(idx, span, extra, failure):
        # f_i in span with <e_k, f_i> = delta_ki and <w, f_i> = 0 for w in
        # extra, the solution zero off the pivots; returns its coordinates
        if not idx:
            return []
        rows = [tuple(space.pairing(u, b) for b in span) for u in e + extra]
        rhs = [[one if k == i else zero for k in range(m)] +
               [zero] * len(extra) for i in idx]
        sols = linalg.solve_columns(linalg.mat(rows), rhs, field)
        if sols is None:
            raise RuntimeError(failure)
        for i, sol in zip(idx, sols):
            f[i] = linalg.combine(sol, span, space.zero_vec())
        return sols
    bs = []
    if s_idx:
        # e_i = a_i + b_i with a_i in L1 and b_i in L2, for i in S
        sols = linalg.solve_columns(linalg.transpose(linalg.mat(l1 + l2)),
                                    [e[i] for i in s_idx], field)
        if sols is None:
            raise RuntimeError("Leray: Z-decomposition failed")
        bs = [linalg.combine(sol[len(l1):], l2, space.zero_vec())
              for sol in sols]
    # S u P12 in span(b) + L1 cap L2: L1 cap L2 pairs to zero with every e'
    # outside P12, so rho is read off the b-coordinates of the S solutions
    coords = solve_block(s_idx + p12_idx, bs + list(inter12), [],
                         "Leray: S and P12 solve failed")
    c_rho = linalg.transpose([c[:ns] for c in coords[:ns]])
    # symmetry of rho is forced; verify
    if c_rho != linalg.transpose(c_rho):
        raise RuntimeError("Leray: rho not symmetric")
    # on L1, <f_s, v> = sum_k rho[k][s] <e_k, v> for s in S (a_k and the
    # L1 cap L2 part pair to zero with L1), so the e' rows already make
    # the S-block f' vectors orthogonal to the P1 solutions
    solve_block(p1_idx, list(l1), [], "Leray: P1 solve failed")
    solve_block(p2_idx, list(l2), [f[k] for k in p1_idx],
                "Leray: P2 solve failed")
    full = xb + [space.basis_f(i) for i in range(m)]
    for i in c_idx:
        solve_block([i], full, [v for v in f if v is not None],
                    "Leray: C solve failed")
    p = linalg.transpose(linalg.mat(e + f))
    if not space.is_symplectic(p) or not space.in_parabolic(p):
        raise RuntimeError("Leray: p is not in P(X)")
    t1 = set(s_idx) | set(s1)
    t2 = set(s_idx) | set(s2)
    pinv = space.inv(p)
    p2 = space.w_inv_mul(t2, linalg.mat_mul(pinv, g2))
    p1 = space.mul_w_inv(_mul_u_rho(space, linalg.mat_mul(g1, p), s_idx,
                                    c_rho, inverse=True), t1)
    if not (space.in_parabolic(p1) and space.in_parabolic(p2)):
        raise RuntimeError("Leray: parabolic factors failed")
    # exact re-multiplication checks
    lhs1 = linalg.mat_mul(_mul_u_rho(space, space.mul_w(p1, t1), s_idx,
                                     c_rho), pinv)
    lhs2 = linalg.mat_mul(space.mul_w(p, t2), p2)
    if lhs1 != g1 or lhs2 != g2:
        raise RuntimeError("Leray: factorization check failed")
    return LerayData(tuple(s_idx), s1, s2, c_rho, p, p1, p2)


# ---------------------------------------------------------------------------
# closed-form cocycle
# ---------------------------------------------------------------------------

def cocycle_w_u_rho(space, rho):
    """c^(w_S u_rho, w_S) = (-2, det Q)_F h_F(Q) for Q(x) = x^T rho x."""
    field = space.field
    if not rho:
        return 1
    q = QuadraticForm(field, rho)
    d = linalg.det(linalg.mat(rho))
    two = field.element(2)
    return hilbert(field, -two, d) * q.hasse()


def leray_x_classes(space, ld):
    """(x(g1), x(g2), x(g1 g2)) read off the Leray factors: g2 = p w_2 p2
    and g1 = p1 w_1 (u_rho p^-1) are Bruhat factorizations (u_rho is in
    P(X)), and g1 g2 = p1 (w_1 u_rho w_2) p2 with x(w_1 u_rho w_2) =
    (-1)^|S1 cap S2| det rho (det rho = 1 for S empty)."""
    field = space.field
    dp, dp1, dp2 = (space.det_x(h) for h in (ld.p, ld.p1, ld.p2))
    mid = field.element(-1 if len(set(ld.s1) & set(ld.s2)) % 2 else 1)
    if ld.s:
        mid = mid * linalg.det(linalg.mat(ld.rho))
    return (square_class(field, dp1 * dp), square_class(field, dp * dp2),
            square_class(field, dp1 * dp2 * mid))


def cocycle_formula(space, g1, g2, rao=False, leray=None):
    """The general closed form via Leray data; +-1 valued, trivial over
    finite F.  x(g1), x(g2) and x(g1 g2) come from the Leray factors
    (leray_x_classes), so no Bruhat decomposition is made; a given `leray`
    must be leray_decompose(space, g1, g2)."""
    field = space.field
    ld = leray or leray_decompose(space, g1, g2)
    x1, x2, x12 = (x.rep for x in leray_x_classes(space, ld))
    l = len(set(ld.s1) & set(ld.s2))
    val = hilbert(field, x1, x2)
    val *= hilbert(field, x1 * x2, -x12)
    mone = field.element(-1)
    val *= hilbert(field, mone, mone) ** ((l * (l + 1)) // 2)
    if ld.s:
        detc = linalg.det(linalg.mat(ld.rho))
        if l % 2:
            val *= hilbert(field, mone, detc)
        val *= cocycle_w_u_rho(space, ld.rho)
    if rao:
        two = field.element(2)
        val *= hilbert(field, two, x1) * hilbert(field, two, x2) * \
            hilbert(field, two, x12)
    return val


# ---------------------------------------------------------------------------
# splitting reports (finite F / char-2 coefficients)
# ---------------------------------------------------------------------------

def split_checks(ctx, pairs=None):
    """Multiplicativity of sigma on the given pairs (default: exhaustive over
    Sp_2 when m = 1): each pair's cocycle_operator must be 1.  Returns a
    report dict; a cocycle that is not scalar raises RuntimeError."""
    space = ctx.space
    if pairs is None:
        group = enumerate_sp2(space)
        pairs = [(g1, g2) for g1 in group for g2 in group]
    checked = 0
    for g1, g2 in pairs:
        if cocycle_operator(ctx, g1, g2) != ctx.one():
            return {"multiplicative": False, "pairs": checked}
        checked += 1
    return {"multiplicative": True, "pairs": checked}


def enumerate_sp2(space):
    """All of Sp_2(F_q) = SL_2(F_q) as matrices in the (e_1; f_1) basis."""
    field = space.field
    if space.m != 1:
        raise ValueError("enumerate_sp2 needs m = 1")
    out = []
    elts = field.elements()
    for a in elts:
        for b in elts:
            for c in elts:
                for d in elts:
                    if a * d - b * c == field.element(1):
                        out.append(linalg.mat([[a, b], [c, d]]))
    return out


def random_symplectic(space, rng, length=6, scale=3):
    """Seeded random element of Sp(W): a word in torus, unipotent and w_S
    generators with small parameters."""
    field = space.field
    m = space.m
    g = space.identity()
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            while True:
                a = [[field.element(rng.randrange(-scale, scale + 1))
                      for _ in range(m)] for _ in range(m)]
                if linalg.det(a):
                    break
            step = space.parabolic(a)
        elif kind == 1:
            s = [[field.element(0)] * m for _ in range(m)]
            for i in range(m):
                for jj in range(i, m):
                    v = field.element(rng.randrange(-scale, scale + 1))
                    s[i][jj] = v
                    s[jj][i] = v
            step = space.unipotent_upper(s)
        else:
            subset = {i for i in range(m) if rng.randrange(2)}
            step = space.w_subset(subset)
        g = linalg.mat_mul(g, step)
    return g
