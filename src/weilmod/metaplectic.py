"""Bruhat decomposition and x(g), the normalized measures mu_g, the section
sigma on the Schrödinger model, the metaplectic 2-cocycle (operator path over
finite F, closed form from invariants over any F), Leray data, and M[g].
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial, reduce
from typing import NamedTuple

from . import linalg
from .basefield import INTEGERS, QpField, points
from .coeff import FiniteField
from .heisenberg import SchrodingerModel, SympSpace, coset_reps, delta
from .quadratic import (det_hasse, diagonal, hasse_invariant, hilbert,
                        square_class)
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


# ---------------------------------------------------------------------------
# subspace helpers over an arbitrary base field
# ---------------------------------------------------------------------------

def _echelon_kernel_image(a, kernel, field):
    """A K as {f: b_f} for K spanned by the vectors `kernel`, its basis in
    reduced echelon form read from the last coordinate: b_f is 1 at its
    last nonzero coordinate f and 0 at the other keys (one rref of the
    reversed vectors A k; none when `kernel` is empty)."""
    if not kernel:
        return {}
    m = len(a)
    rows, piv = linalg.rref([linalg.mat_vec(a, k, field)[::-1]
                             for k in kernel], field)
    return {m - 1 - pc: row[::-1] for row, pc in zip(rows, piv)}


def _x_meet(space, vectors):
    """X cap span(vectors) for independent vectors (v_X; v_Y): -V_X k, with
    Y = 0, for each k in the nullspace basis of V_Y."""
    m, field = space.m, space.field
    vx = linalg.transpose([v[:m] for v in vectors])
    vy = linalg.transpose([v[m:] for v in vectors])
    pad = (field.zero(),) * m
    return [field.neg(linalg.mat_vec(vx, k, field)) + pad
            for k in linalg.nullspace(vy, field)]


# ---------------------------------------------------------------------------
# Bruhat decomposition and x(g)
# ---------------------------------------------------------------------------

def bruhat_decompose(space, g):
    """g = p1 w_j p2, verified by re-multiplication.  Over F_q the
    decomposition runs on raw field indices (_bruhat on the space over the
    field's index view) and p1, p2 come back as FFElt matrices.  A g that
    is not symplectic fails a check (RuntimeError naming g): a caller
    with outside input tests it first, as the CLI does."""
    sp, (h,) = _lowered(space, g)
    bd = _bruhat(sp, h)
    return bd if sp is space else BruhatData(bd.j, *map(sp.field.lift, bd[1:]))


def _bruhat(space, g):
    """g = p1 w_j p2 in the scalars of space.field, verified by
    re-multiplication.

    For g = [[A, B], [C, D]], j = rank C and gX cap X = A ker C (Rao).
    p1 = [[U, U S], [0, U^-T]]: U is e_i for i in N, then minus the basis
    of A ker C in reduced echelon form read from the last coordinate, N
    being the j indices that are not its pivots; S is symmetric with
    S[:, :j] = U^-1 A K for C[N] K = I_j, and S[j:, j:] = 0."""
    field = space.field
    m = space.m
    if not space.is_symplectic(g):
        raise RuntimeError("Bruhat: g = %s is not symplectic" % (g,))
    a, _, c, _ = space.blocks(g)
    zero, one = field.zero(), field.one()
    echelon = _echelon_kernel_image(a, linalg.nullspace(c, field),
                                    field)
    n_idx = [i for i in range(m) if i not in echelon]
    j = len(n_idx)
    # K from one rref of [C[N] | I_j], zero off its pivots: y_i = g (k_i, 0)
    rows, piv = linalg.rref([c[r] + tuple(one if t == i else zero
                                          for t in range(j))
                             for i, r in enumerate(n_idx)], field)
    if any(pc >= m for pc in piv):
        raise RuntimeError("Bruhat: p1 construction failed")
    us = [space.basis_e(i) for i in n_idx]
    ys = []
    for i in range(j):
        k = [zero] * (2 * m)
        for row, pc in zip(rows, piv):
            k[pc] = row[m + i]
        ys.append(linalg.mat_vec(g, k, field))
    # the column of -b_f: (U S, U^-T) e_f = (-sum_i (A k_i)_f e_{N_i}, -f_f)
    for f in sorted(echelon):
        us.append(field.neg(echelon[f]) + (zero,) * m)
        y = [zero] * (2 * m)
        for i, r in enumerate(n_idx):
            y[r] = ys[i][f]
        y[m + f] = one
        ys.append(field.neg(y))
    p1 = linalg.transpose(linalg.mat(us + ys))
    if not space.is_symplectic(p1) or not space.in_parabolic(p1):
        raise RuntimeError("Bruhat: p1 construction failed")
    sj = set(range(j))
    p2 = space.w_inv_mul(sj, linalg.mat_mul(space.inv(p1), g, field))
    if not space.in_parabolic(p2):
        raise RuntimeError("Bruhat: p2 not parabolic")
    if linalg.mat_mul(space.mul_w(p1, sj), p2, field) != g:
        raise RuntimeError("Bruhat: product check failed")
    return BruhatData(j, p1, p2)


def x_data(space, g):
    """(N, d) for g = [[A, B], [C, D]] in Sp(space): N lists the j = rank C
    indices that are not pivots of A ker C, as _bruhat picks them, and d =
    det M, row i of M being row i of C for i in N and of A otherwise: x(g)
    is the class of d = det_X(p1) det_X(p2) for _bruhat's g = p1 w_j p2
    (README).  g is checked (is_symplectic) and a zero d refused, each a
    failed check naming g, all in space's arithmetic (a field or an index
    view)."""
    if not space.is_symplectic(g):
        raise RuntimeError("x(g): g = %s is not symplectic" % (g,))
    return _x_parts(space, g)


def _x_parts(space, g):
    """x_data's (N, d) in space.field's scalars, g checked by the caller:
    every index and det C when C is invertible (ker C = 0), one det.  Only
    the A and C blocks are read, sliced off g's rows."""
    field, m = space.field, space.m
    a, c = [r[:m] for r in g[:m]], [r[:m] for r in g[m:]]
    d = linalg.det(c, field)
    if d:
        return list(range(m)), d
    pivots = _echelon_kernel_image(a, linalg.nullspace(c, field), field)
    n_idx = [i for i in range(m) if i not in pivots]
    d = linalg.det([c[i] if i not in pivots else a[i] for i in range(m)],
                   field)
    if not d:
        raise RuntimeError("x(g): det M = 0 for g = %s" % (g,))
    return n_idx, d


def _lowered(space, *gs):
    """(space, gs) over F_q's index view on F_q, else as given."""
    if not isinstance(space.field, FiniteField):
        return space, gs
    ix = space.field.indices
    return SympSpace(ix, space.m), tuple(ix.lower(g) for g in gs)


def x_invariant(space, g):
    """x(g), the square class of x_data's d."""
    return square_class(space.field, x_data(space, g)[1])


def mu_g_scalar(space, psi, g):
    """The decomposition-invariant mass of mu_g relative to mu_{w_j}: the
    normalization Omega_{1, det_X(p1 p2)} times the volume of the
    transported reference lattice, p^(-min val) over the j x j minors of
    its projection (1 over F_q, whose valuation is trivial)."""
    bd = bruhat_decompose(space, g)
    field = space.field
    d = field.mul(space.det_x(bd.p1), space.det_x(bd.p2))
    one = field.one()
    base = omega_ratio(field, psi, one, d)
    if bd.j == 0:
        return base
    # volume of phi_1(image of the standard X-lattice) in mu_{w_j}-coords
    p1inv = space.inv(bd.p1)
    m, j = space.m, bd.j
    cols = []
    for k in range(m):
        v = linalg.mat_vec(p1inv, space.basis_e(k), field)
        cols.append(tuple(v[:j]))  # projection mod X_{cS_j}
    best = None
    for subset in itertools.combinations(range(m), j):
        sq = [[cols[c][r] for c in subset] for r in range(j)]
        dv = linalg.det(linalg.mat(sq), field)
        if dv:
            val = field.val(dv)
            best = val if best is None else min(best, val)
    if best is None:
        raise RuntimeError("degenerate lattice projection in mu_g")
    return base * Fraction(field.p) ** (-best)


# ---------------------------------------------------------------------------
# the section sigma on the Schrödinger model (finite F)
# ---------------------------------------------------------------------------

# the most sigma(g) count forms one CountModel keeps, and the most cocycle
# scalars one WeilContext keeps; the oldest go first
SIGMA_CACHE_SIZE = 4096

# one model per (field, m, psi's exponent table), kept for the process:
# every context with those three inputs shares it, whatever its ring
_COUNT_MODELS = {}


class CountModel:
    """The ring-free half of sigma over F_q, for one field, one m and one
    exponent table exp (psi(x) = zeta_p^{exp[x]} on raw field indices).

    sigma(g) = mu phi(N): the count matrix N depends only on g, exp and
    the Y-points, while mu and the ring map phi belong to the coefficient
    ring, so every WeilContext with this field, m and twist shares this
    model (_COUNT_MODELS).
    An entry sum_e c_e zeta_p^e of N is kept as its counts c_0 .. c_{p-1}
    packed into one int, slot e at bit W e (Kronecker substitution), and a
    row of N as one int of such entries, entry j at bit C j with stride
    C = (2p - 1) W.  An entry times a row is then the row of the entrywise
    products, each a polynomial of degree at most 2p - 2 whose 2p - 1
    slots fit in its C bits.  Folding mod x^p - 1 adds slots p .. 2p - 2
    onto slots 0 .. p - 2 of the same entry with two masks: fold(R) =
    (R & lo) + ((R >> p W) & hi), lo holding the low p slots of each entry
    and hi the low p - 1.

    An entry of N totals at most q^m, an entry of N1 N2 at most n q^{2m}
    and a product of one such entry with one of N at most n q^{3m} <
    2^{W-1}, before the fold and after it.  So no slot of a build's rows
    (_slot) or of the check's products carries into the next, and the
    check's difference, offset by 2^{W-1} in each slot, borrows from none.

    g is a matrix of raw field indices (FiniteField.indices.lower), and
    the model works over `space`, the symplectic space of dimension 2m
    over the field's index view.  Beside the Y-points' addition table
    ysum (n x n), the first count build makes two more tables on Y-point
    indices (_point_tables): E[u][v] = exp[u . v] (_dot_exps, n x n) and
    the multiples c u of each u, c in F_q (_mults, n x q).  `entry` reads
    every phase and every image of a point from these tables.  The cache
    maps g to ((j, x(g) class), N) with N the tuple of its packed rows (mu
    depends on g only through that key, read from x_data: j = len(N) and,
    over F_q, whether d is a square, the test square_class makes), at most
    SIGMA_CACHE_SIZE entries, read at each insertion.  `check` keeps its
    last successful pair (_last); `restrict` its work by g (_restricted),
    matched by identity on N."""

    def __init__(self, field, m, exp):
        self.space = SympSpace(field.indices, m)
        self.p, self.m = field.p, m
        self.exp = exp
        # the Y-points as raw indices, in the Schrödinger basis order, and
        # their addition table: Y-point ysum[i][k] is Y-point i + Y-point k
        ix = field.indices
        self.ypoints = tuple(points(ix, m))
        self.yindex = {pt: i for i, pt in enumerate(self.ypoints)}
        self.ysum = tuple(tuple(self.yindex[ix.add(u, v)]
                                for v in self.ypoints)
                          for u in self.ypoints)
        n = len(self.ypoints)
        w = self.slot_bits = (n * field.q ** (3 * m)).bit_length() + 1
        c = self.stride = (2 * self.p - 1) * w
        self._shifts = tuple(c * j for j in range(n))
        # _slot[d], -p < d < p (read at d + 2p when d < 0): zeta_p^{d/2}
        # as a packed entry; Tr(c x/2) = Tr(c x)/2
        half = (self.p + 1) // 2        # 1/2 in F_p
        self._slot = tuple(1 << (w * (d * half % self.p))
                           for d in range(2 * self.p))
        self._entry_mask = (1 << c) - 1
        self._ones = sum(1 << (w * e) for e in range(self.p))

        def each_entry(x):      # x at every entry of a row
            return sum(x << s for s in self._shifts)
        self._lo = each_entry((1 << (w * self.p)) - 1)
        self._hi = each_entry((1 << (w * (self.p - 1))) - 1)
        self._slot0 = each_entry((1 << w) - 1)
        # 2^{W-1} in each slot of one entry, and of every entry of a row
        self._entry_offset = self._ones << (w - 1)
        self._offset = each_entry(self._entry_offset)
        self._dot_exps = self._mults = self._last = None
        self.cache = {}
        self._restricted = {}

    def pack(self, entries):
        """One packed row of n packed entries (or column: restrict)."""
        row = 0
        for x, s in zip(entries, self._shifts):
            if x:
                row |= x << s
        return row

    def unpack(self, row):
        """The packed entries of a packed row."""
        mask = self._entry_mask
        return [(row >> s) & mask for s in self._shifts]

    def _unequal(self, row):
        """The column of the first entry whose slots are not all equal, in
        a packed row that has one: the lowest bit where the row differs
        from each entry's slot 0 copied to all its slots."""
        d = row ^ (row & self._slot0) * self._ones
        return ((d & -d).bit_length() - 1) // self.stride

    def entry(self, g, checked=False):
        """((j, x(g) class), N) for g in Sp(space), from the cache when it
        holds g; a build checks g (x_data) unless it is `checked` already.

        sigma(g) f (y0) = mu sum_a psi(<a, y0>/2 - <w_X, w_Y>/2) f(w_Y) with
        w = g^-1 (a + y0), a over a complement of gX cap X in X: the F_q-span
        of e_i for i in x_data's N (`lead`, Bruhat's p1's first j columns).
        psi's exponent table is additive, so the phase exponent is exp[a .
        y0] - exp[w_X . w_Y] = E[a][y0] - E[w_X][w_Y] mod p on Y-point
        indices (an X-vector indexed as the Y-point with its coordinates).
        With va = g^-1 a and vy = g^-1 y0, w = va + vy, so w_X =
        ysum[va_X][vy_X] and w_Y = ysum[va_Y][vy_Y].  The five linear maps
        the sum needs are each tabulated once per build on point indices
        (_image): co in F_q^j to a, to va_X and to va_Y (through lead and
        the X and Y parts of g^-1 lead), and y0 to vy_X and to vy_Y (through
        g^-1's Y -> X and Y -> Y blocks).  g^-1 = [[D^T, -B^T], [-C^T, A^T]]
        for g = [[A, B], [C, D]]: its columns e_i and f_i are (D_i, -C_i)
        and (-B_i, A_i), X_i row i of X.  A term of N is then table reads
        only, added into its packed row (_slot).  The field arithmetic
        left in a build is x_data's and the negations -C_i and -B_i.  No
        Bruhat decomposition is made."""
        cache = self.cache
        entry = cache.get(g)
        if entry is not None:
            return entry
        space, m, ysum = self.space, self.m, self.ysum
        ix, neg = space.field, space.field.neg
        n_idx, d = (_x_parts if checked else x_data)(space, g)
        key = (len(n_idx), ix.is_square(d))
        if self._dot_exps is None:
            self._dot_exps, self._mults = self._point_tables()
        dots, slot, shifts = self._dot_exps, self._slot, self._shifts
        reps = tuple(zip(
            self._image([space.basis_e(i)[:m] for i in n_idx]),
            self._image([g[m + i][m:] for i in n_idx]),
            self._image([neg(g[m + i][:m]) for i in n_idx])))
        rows = []
        for ey, yx, yy in zip(dots, self._image([neg(r[m:]) for r in g[:m]]),
                              self._image([r[:m] for r in g[:m]])):
            sx, sy = ysum[yx], ysum[yy]
            row = 0
            for a, ax, ay in reps:
                wy = sy[ay]
                row += slot[ey[a] - dots[sx[ax]][wy]] << shifts[wy]
            rows.append(row)
        entry = (key, tuple(rows))
        if len(cache) >= SIGMA_CACHE_SIZE:
            self._restricted.pop(next(iter(cache)), None)
            del cache[next(iter(cache))]
        cache[g] = entry
        return entry

    def _point_tables(self):
        """E[u][v] = exp[u . v] over pairs of Y-point indices, and for each
        Y-point u the indices of its multiples c u, c in F_q in index
        order."""
        ix, exp, pts, yindex = self.space.field, self.exp, self.ypoints, \
            self.yindex
        dots = tuple(tuple(exp[ix.dot(u, v)] for v in pts) for u in pts)
        mults = tuple(tuple(yindex[tuple(ix.scale(u, c))]
                            for c in ix.elements()) for u in pts)
        return dots, mults

    def _image(self, cols):
        """The Y-point index of sum_i co_i cols[i] for each co in F_q^k, k =
        len(cols), in points' order (the last coordinate fastest): the
        multiples of each column folded through ysum, q^k table reads."""
        ysum, mults, yindex = self.ysum, self._mults, self.yindex
        table = [0]             # Y-point 0 is the zero vector
        for col in cols:
            table = [ysum[t][u] for t in table for u in mults[yindex[col]]]
        return table

    def check(self, n1, n2, n12, g1, g2):
        """Checks P = c N in Z[zeta_p] on every entry, for P = N1 N2, N =
        N12 (packed rows) and some scalar c, and returns the pairs (P[e],
        N[e]) from e0 on, in row-major order, each read off the packed rows
        only when the caller reaches it.

        e0 is the first entry whose slots are not all equal, that is with
        N[e0] nonzero in Z[zeta_p].  For prime p the kernel of Z[x]/(x^p -
        1) -> Z[zeta_p] is Z (1 + x + ... + x^{p-1}), so P[e] N[e0] = P[e0]
        N[e] in Z[zeta_p] exactly when fold(P[e] N[e0]) - fold(P[e0] N[e])
        has equal slots; with Z[zeta_p] a domain, that on every e is P = c N.
        Row i of P is sum_k N1[i][k] R_k over the nonzero N1[i][k], with R_k
        row k of N2: n^2 products of an entry and a row.  Each row is then
        one comparison: t = fold(P_i N[e0]) - fold(N_i P[e0]) + offset must
        carry each entry's slot 0 in all its slots.  A failing row raises
        RuntimeError naming g1, g2 and the (row, col) of its first failing
        entry.

        Contexts that share the model check the same (N1, N2, N12) for a
        pair, so the last successful check is kept, matched by identity on
        the cached row tuples it holds; an entry put in the cache since is
        a new tuple and is checked afresh."""
        last = self._last
        if last is not None and last[0] is n1 and last[1] is n2 and \
                last[2] is n12:
            _, _, _, prods, i0, j0 = last
            return self._entries_from(prods, n12, i0, j0)
        pw = self.slot_bits * self.p
        lo, hi, slot0, ones = self._lo, self._hi, self._slot0, self._ones
        prods = self._products(n1, n2)
        i0 = next((i for i, r in enumerate(n12) if r != (r & slot0) * ones),
                  None)
        if i0 is None:
            raise RuntimeError("cocycle operator is not scalar: g1 = %s, "
                               "g2 = %s, sigma(g1 g2) is zero" % (g1, g2))
        j0 = self._unequal(n12[i0])
        p0, c0 = next(self._entries_from(prods, n12, i0, j0))
        offset = self._offset
        for i, (pr, r12) in enumerate(zip(prods, n12)):
            a = pr * c0
            b = r12 * p0
            t = (a & lo) + ((a >> pw) & hi) - (b & lo) - ((b >> pw) & hi) + \
                offset
            if t != (t & slot0) * ones:
                raise RuntimeError(
                    "cocycle operator is not scalar: g1 = %s, g2 = %s, "
                    "entry (%d, %d)" % (g1, g2, i, self._unequal(t)))
        self._last = (n1, n2, n12, prods, i0, j0)
        return self._entries_from(prods, n12, i0, j0)

    def restrict(self, g, signed):
        """(key, the matrix of N on the span of the vectors b_k = e_{P_k} -
        e_{M_k} over Z[zeta_p], as its columns, or None when N does not
        keep that span) for (key, N) = entry(g).  The (P_k, M_k) in
        `signed` are disjoint lists of Y-point indices, and y_k = P_k[0].
        Column k holds the entries A_k[y_k'] over k' of A_k = N b_k, each
        with 2^{W-1} added to every slot.

        The columns of N are packed over the rows as a row is over the
        columns, so A_k is a sum and difference of packed columns, with
        2^{W-1} added to every slot of every entry.  A_k lies in the span
        exactly when A_k - sum_k' A_k[y_k'] b_k' is zero, that is when each
        of its entries has equal slots: the test `check` makes.  A slot of
        A_k is at most q^m in size and a slot of the difference at most
        2 q^m, below 2^{W-1} (see the class), so no slot borrows."""
        key, rows = self.entry(g)
        held = self._restricted.get(g)
        if held is None or held[0] is not rows:
            cols = [self.pack(col) for col in zip(*map(self.unpack, rows))]
            held = self._restricted[g] = (rows, cols, {})
        split = tuple((tuple(plus), tuple(minus)) for plus, minus in signed)
        if split not in held[2]:
            held[2][split] = self._restrict(held[1], split)
        return key, held[2][split]

    def _restrict(self, cols, signed):
        """restrict's output from N's packed columns."""
        c, mask = self.stride, self._entry_mask
        heads = [plus[0] for plus, _ in signed]
        # b_k packed as a column: 1 at each z of P_k, -1 at each z of M_k
        vecs = [sum(1 << (c * z) for z in plus) -
                sum(1 << (c * z) for z in minus) for plus, minus in signed]
        offset, entry_offset = self._offset, self._entry_offset
        slot0, ones = self._slot0, self._ones
        out = []
        for plus, minus in signed:
            a = offset + sum(cols[x] for x in plus) - \
                sum(cols[x] for x in minus)
            col = tuple((a >> (c * y)) & mask for y in heads)
            t = a - sum((e - entry_offset) * v for e, v in zip(col, vecs))
            if t != (t & slot0) * ones:
                return None
            out.append(col)
        return tuple(out)

    def _products(self, n1, n2):
        """The packed rows of N1 N2, folded mod x^p - 1."""
        c, pw = self.stride, self.slot_bits * self.p
        lo, hi, mask = self._lo, self._hi, self._entry_mask
        prods = []
        for r1 in n1:
            acc = 0
            for r2 in n2:
                if not r1:      # the rest of the row is zero
                    break
                x = r1 & mask
                if x:
                    acc += x * r2
                r1 >>= c
            prods.append((acc & lo) + ((acc >> pw) & hi))
        return prods

    def _entries_from(self, prods, n12, i0, j0):
        """(P[e], N[e]) from e0 = (i0, j0) on, one entry at a time."""
        mask = self._entry_mask
        for i in range(i0, len(n12)):
            for s in self._shifts[j0 if i == i0 else 0:]:
                yield (prods[i] >> s) & mask, (n12[i] >> s) & mask


class WeilContext:
    """Finite base field, coefficient ring via psi, the CountModel of the
    space's field and m and psi's exponent table, which every context with
    those three inputs shares for the process (it holds the Y-points, the
    slot width W and the sigma(g) count forms and their restrictions), and
    the ring's tables: phi's values by packed entry, mu by (j, x(g) class),
    at most 2(m + 1) scalars, the cocycle's scalars by their three mu and
    the entry pair they are read from (_scalars, see cocycle_operator),
    and sigma's dense entries mu phi(c) by (j, x(g) class) and packed
    entry c (_dense, a dict of entries per key): at most 2(m + 1) keys
    times phi's entries, one product per distinct pair."""

    def __init__(self, space, psi):
        if space.field.flavor != "finite":
            raise ValueError("matrix models exist for finite F only")
        self.space = space
        self.psi = psi
        key = (space.field, space.m, psi._exp)
        counts = _COUNT_MODELS.get(key)
        if counts is None:
            counts = _COUNT_MODELS[key] = CountModel(*key)
        self.counts = counts
        # the shared dict itself: perfbench/layers.py reads `g in
        # ctx._sigma_cache` to tell a sigma build from a hit, but the keys
        # are raw-index matrices, so an FFElt g there reads as a build
        self._sigma_cache = counts.cache
        # mu_{w_j} normalizer: Omega(psi o Q_j) with Q_j(x) = x^2/2 per
        # coordinate (the sign that makes sigma multiplicative over finite F)
        self._gauss_half_inv = gauss_sum(space.field,
                                         space.field.one() / 2,
                                         psi).inv()
        self._mu = {}
        # {(mu1, mu2, mu12, P[e], N12[e]): the cocycle's scalar}
        self._scalars = {}
        # phi: packed counts -> R, zeta_p to psi's image psi._powers[1]
        self._phi = psi.coeff_ring.count_map(psi._powers, counts.slot_bits)
        # {c: phi(c)} over N's at most C(q^m + p, p) entries and their sums
        self._phis = {}
        # {(j, x(g) class): {c: mu phi(c)}}, sigma's dense entries
        self._dense = {}

    def one(self):
        return self.psi.coeff_ring.one()

    def zero(self):
        return self.psi.coeff_ring.zero()

    def mu(self, key):
        """mu_g Omega_{1/2}^{-j} for g of key (j, x(g) class), mu_g_scalar."""
        if key not in self._mu:
            field = self.space.field
            rep = field.one() if key[1] else field.nonresidue()
            self._mu[key] = omega_ratio(field, self.psi, field.one(), rep) \
                * self._gauss_half_inv ** key[0]
        return self._mu[key]

    def phi(self, c):
        if c not in self._phis:
            self._phis[c] = self._phi(c)
        return self._phis[c]


def sigma_counts(ctx, g):
    """(mu, N) with sigma(g) = mu phi(N) for g on raw field indices: mu by
    g's key (WeilContext.mu), N the packed counts (CountModel.entry)."""
    key, counts = ctx.counts.entry(g)
    return ctx.mu(key), counts


def sigma(ctx, g):
    """sigma(g) = I_{gX,X,mu_g,0} o I_g as a dense matrix on the Y-point
    basis; the measure normalization makes it multiplicative over finite F.
    Each entry mu phi(c) comes from ctx's table by g's key and c, so it is
    built once per context."""
    key, counts = ctx.counts.entry(ctx.space.field.indices.lower(g))
    table = ctx._dense.get(key)
    if table is None:       # a zero count is the ring's zero
        table = ctx._dense[key] = {0: ctx.zero()}
    rows = [ctx.counts.unpack(row) for row in counts]
    mu, phi = ctx.mu(key), ctx.phi
    for c in {c for row in rows for c in row}.difference(table):
        table[c] = mu * phi(c)
    return tuple(tuple(map(table.__getitem__, row)) for row in rows)


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
    with phi(N1 N2) = c phi(N12).  CountModel.check proves N1 N2 = c' N12
    in Z[zeta_p] on every entry, and phi, a ring homomorphism, carries
    that to R; so only c = phi(P[e]) / phi(N12[e]) is mapped, at the first
    entry e with phi(N12[e]) nonzero in R.  Over Z[zeta_{p^k}] phi is
    injective and this is the entrywise check in R; over F_{l^d} it is
    stronger, since it also refuses counts proportional only mod l.

    The scalar mu1 mu2 mu12^-1 phi(P[e]) phi(N12[e])^-1 depends only on
    the three mu sigma_counts returns and on (P[e], N12[e]), so ctx keeps
    it by those five (_scalars), read only once check has passed the
    pair: a hit is table reads, with no product in R.  The table stays
    small: 24 entries over all 112,896 pairs of Sp2(F_7) over Z[zeta_7]
    (one per mu triple; 24 over Sp2(F_3) and Sp2(F_5) too), 4 over F_8
    and 80 over 10^4 random Sp4(F_3) pairs over Z[zeta_3].  It holds at
    most SIGMA_CACHE_SIZE entries, read at each insertion, the oldest
    going first.  g1, g2 and g1 g2 go to sigma_counts on raw field
    indices; the errors name g1 and g2 as given.  Builds of g1 and g2 check
    them (x_data); g1 g2 is then built with no second check, as it is
    symplectic exactly: (a b)^T J (a b) = b^T (a^T J a) b = b^T J b = J."""
    ix = ctx.space.field.indices
    a, b = ix.lower(g1), ix.lower(g2)
    try:
        (mu1, n1), (mu2, n2) = [sigma_counts(ctx, x) for x in (a, b)]
    except RuntimeError as err:     # g1 failed unless it is cached
        bad = ("g2", g2) if a in ctx.counts.cache else ("g1", g1)
        raise RuntimeError("%s = %s: %s" % (bad + (err,))) from None
    ab = linalg.mat_mul(a, b, ix)
    ctx.counts.entry(ab, checked=True)
    mu12, n12 = sigma_counts(ctx, ab)
    for pe, ce in ctx.counts.check(n1, n2, n12, g1, g2):
        y = ctx.phi(ce)
        if y:
            scalars = ctx._scalars
            key = (mu1, mu2, mu12, pe, ce)
            scalar = scalars.get(key)
            if scalar is None:
                scalar = mu1 * mu2 * mu12.inv() * (ctx._phi(pe) * y.inv())
                if len(scalars) >= SIGMA_CACHE_SIZE:
                    del scalars[next(iter(scalars))]
                scalars[key] = scalar
            return scalar
    raise RuntimeError("cocycle operator is not scalar: g1 = %s, g2 = %s, "
                       "sigma(g1 g2) is zero in R" % (g1, g2))


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
    model = SchrodingerModel(space, ctx.psi)
    half = space.half()
    n = model.dim
    zero = ctx.zero()
    rows = [[zero] * n for _ in range(n)]
    for w in coset_reps(ker, space.identity(), field):
        phase = ctx.psi(half * space.pairing(w, linalg.mat_vec(g, w, field)))
        mono = model.rho(delta(space, linalg.mat_vec(one_minus, w, field)))
        for j in range(n):
            rows[mono.perm[j]][j] = rows[mono.perm[j]][j] + \
                phase * mono.phases[j]
    return linalg.mat(rows)


# ---------------------------------------------------------------------------
# Leray decomposition
# ---------------------------------------------------------------------------

def leray_decompose(space, g1, g2):
    """Leray's S, S1, S2 and rho for g1 = p1 w_{S u S1} u_rho p^{-1}, g2 =
    p w_{S u S2} p2, read deterministically off the triple (X, g1^{-1}X,
    g2 X), on raw indices over F_q (rho comes back as an FFElt matrix).  A
    g1 or g2 that is not symplectic fails a check (RuntimeError naming
    both): a caller with outside input tests them first, as the CLI does."""
    sp, gs = _lowered(space, g1, g2)
    ld = _leray(sp, *gs)
    return ld if sp is space else ld._replace(rho=sp.field.lift(ld.rho))


def _leray(space, g1, g2):
    """LerayData in the scalars of space.field, every product, sum and
    negation taken from the field, read off the e' basis of p and the one
    dual-basis solve that gives rho (README)."""
    field = space.field
    m = space.m
    if not (space.is_symplectic(g1) and space.is_symplectic(g2)):
        raise RuntimeError("Leray: g1 = %s or g2 = %s is not symplectic"
                           % (g1, g2))
    zero, one = field.zero(), field.one()
    # L1 = g1^-1 X is spanned by the columns (D1^T; -C1^T), L2 = g2 X by
    # (A2; C2), and <g1^-1 e_i, g2 e_j> is entry ij of C12, the C block of
    # g1 g2; every subspace below is read off these blocks
    l1 = [r[m:] + field.neg(r[:m]) for r in g1[m:]]
    g2x = tuple(row[:m] for row in g2)
    l2 = list(linalg.transpose(g2x))
    c12 = linalg.mat_mul(g1[m:], g2x, field)
    # L1 cap L2 = -g2 (ker C12; 0), and its part in X is A2 ker [C12; C2]:
    # A2 K k for the k in ker C2 K, K the basis of ker C12 (none if it is 0)
    ker12 = linalg.nullspace(c12, field)
    inter12 = [field.neg(linalg.mat_vec(g2x, k, field)) for k in ker12]
    kernel = ()
    if ker12:
        c2k = linalg.transpose([linalg.mat_vec(g2x[m:], k, field)
                                for k in ker12])
        kernel = [linalg.mat_vec(linalg.transpose(ker12), k, field)
                  for k in linalg.nullspace(c2k, field)]
    echelon = _echelon_kernel_image(g2x[:m], kernel, field)
    a_basis = [field.neg(echelon[f]) + (zero,) * m for f in sorted(echelon)]
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
    # index layout: S, S1 cap S2, S1 only, S2 only, then the rest
    s_idx = list(range(ns))
    p12_idx = list(range(ns, ns + l_ov))
    p1_idx = list(range(ns + l_ov, ns + n1))
    p2_idx = list(range(ns + n1, ns + n1 + (n2 - l_ov)))
    c_idx = list(range(ns + n1 + n2 - l_ov, m))
    # e' vectors: one greedy pass over the groups in this order, each
    # vector kept when it is not in the span of those before it
    groups = ((c_idx, a_basis), (p2_idx, x_l1), (p1_idx, x_l2),
              (s_idx, z_basis), (p12_idx, space.identity()[:m]))
    vecs = [v for _, vs in groups for v in vs]
    piv = linalg.rref(linalg.transpose([v[:m] for v in vecs]), field)[1]
    e = [None] * m
    start = 0
    for idx, vs in groups:
        kept = [vecs[c] for c in piv if start <= c < start + len(vs)]
        if len(kept) != len(idx):
            raise RuntimeError("Leray: e-basis construction failed")
        for i, v in zip(idx, kept):
            e[i] = v
        start += len(vs)
    bs = []
    if s_idx:
        # e_i = a_i + b_i with a_i in L1 and b_i in L2, for i in S
        sols = linalg.solve_columns(linalg.transpose(linalg.mat(l1 + l2)),
                                    [e[i] for i in s_idx], field)
        if sols is None:
            raise RuntimeError("Leray: Z-decomposition failed")
        bs = [linalg.mat_vec(g2x, sol[len(l1):], field) for sol in sols]
    # f_i for i in S u P12 lies in span(b) + L1 cap L2 with <e_k, f_i> =
    # delta_ki, the solution zero off the pivots: L1 cap L2 pairs to zero
    # with every e' outside P12, so rho is read off the b-coordinates of
    # the S solutions
    coords = []
    if s_idx or p12_idx:
        span = bs + inter12
        coords = linalg.solve_columns(
            linalg.mat([space.pairing(u, b) for b in span] for u in e),
            [[one if k == i else zero for k in range(m)]
             for i in s_idx + p12_idx], field)
        if coords is None:
            raise RuntimeError("Leray: S and P12 solve failed")
    c_rho = linalg.transpose([c[:ns] for c in coords[:ns]])
    # symmetry of rho is forced; verify
    if c_rho != linalg.transpose(c_rho):
        raise RuntimeError("Leray: rho not symmetric")
    return LerayData(tuple(s_idx), tuple(p12_idx + p1_idx),
                     tuple(p12_idx + p2_idx), c_rho)


# ---------------------------------------------------------------------------
# closed-form cocycle
# ---------------------------------------------------------------------------

def cocycle_formula(space, g1, g2, rao=False):
    """Rao's closed form of the cocycle (Pacific J. Math. 157 (1993);
    Perrin, LNM 880 (1981)) from invariants of g1, g2 and g1 g2, with no
    decomposition (README).  g1 and g2 are lowered once (_scaled): over
    Q_p to integer matrices G = s g, over F_q to raw indices.  Each is
    checked once, as G^T J G = s^2 J (RuntimeError naming both), and no
    Fraction or FFElt is made after that.  Over F_q every Hilbert symbol
    is 1: the value is 1 once the three x_data d are nonzero."""
    sp, hs = _scaled(*_lowered(space, g1, g2))
    if not all(SympSpace(sp.field, sp.m, s * s).is_symplectic(g)
               for g, s in hs):
        raise RuntimeError("cocycle: g1 = %s or g2 = %s is not symplectic"
                           % (g1, g2))
    return _cocycle(space.field, sp, *hs, rao)[0]


def _scaled(space, gs):
    """(the space the closed form reads, ((G, s) for g in gs)) with g =
    G / s, for space and gs as _lowered gives them: a Q_p g becomes the
    integer matrix G = s g (QpField.lower) on the integers
    (basefield.Integers), and raw indices over F_q stand as they are,
    with s = 1."""
    if not isinstance(space.field, QpField):
        return space, tuple((g, 1) for g in gs)
    return SympSpace(INTEGERS, space.m), tuple(map(space.field.lower, gs))


def _x_scaled(space, h):
    """_x_parts' (N, d) for g = G / s from h = (G, s), with d of det M's
    class: N and the rank read the same off G, and det M = det M_G / s^m,
    so d = det M_G s^(m mod 2)."""
    n_idx, d = _x_parts(space, h[0])
    return n_idx, space.field.mul(d, h[1] ** (space.m % 2))


def _cocycle(field, space, h1, h2, rao, invariants=False):
    """(cocycle_formula's value, d1, d2, (l, q's diagonal)) for g1 and g2
    given as h = (G, s) on `space` (_scaled): (x1, x2) (x1 x2, -x12)
    (-1, -1)^(l(l+1)/2) (-1, det rho)^l (-2, det rho) h(rho), times
    (2, x1 x2 x12) when rao, each x the class of its d and rho's det class
    and Hasse invariant read off q's diagonal (_leray_invariants,
    quadratic.diagonal).  g1 g2 is (G1 G2, s1 s2).  Over F_q the value is
    1 once the three d are nonzero, and (l, q's diagonal) is None unless
    `invariants` asks for it."""
    fld = space.field
    h12 = (linalg.mat_mul(h1[0], h2[0], fld), h1[1] * h2[1])
    (_, d1), (_, d2), (n12, d12) = (_x_scaled(space, h)
                                    for h in (h1, h2, h12))
    inv = None
    if invariants or field.flavor != "finite":
        l, gram, scale = _leray_invariants(space, h1, h2, h12[0], len(n12))
        inv = l, diagonal(fld, gram, scale)[1]
    if field.flavor == "finite":        # every Hilbert symbol is 1
        return 1, d1, d2, inv
    l, vals = inv
    det = reduce(fld.mul, vals, fld.one())
    h = partial(hilbert, field)
    val = h(d1, d2) * h(d1 * d2, -d12) * h(-1, -1) ** ((l * (l + 1)) // 2) * \
        h(-1, det) ** l * h(-2, det) * hasse_invariant(field, vals) * \
        (h(2, d1 * d2 * d12) if rao else 1)
    return val, d1, d2, inv


def _leray_invariants(space, h1, h2, g12, j12):
    """(l, G, lam) for g1 and g2 given as h = (G, s) on `space` (_scaled),
    g12 = G1 G2 and j12 = rank C12: l = |S1 cap S2| = rank [C12; C2] -
    j12, and q = lam x^T G x, whose nondegenerate part is isometric to
    rho (README).  No step divides.

    q(k; y) = -(A2 k - D1^T y) . (C1^T y) on C2 k + C1^T y = 0, in the
    blocks of g1 and g2.  In those of G1 and G2 (A2 = A2_G / s2, and so
    on) the equation reads s1 C2_G k + s2 C1_G^T y = 0, and q = -a . b /
    (s1^2 s2) with a = s1 A2_G k - s2 D1_G^T y and b = C1_G^T y.  So
    G = -(a_i . b_j + a_j . b_i) over the kernel's basis is 2 s1^2 s2
    times q's Gram matrix, and lam = 2 s2 has the class of 1 / (2 s1^2
    s2).  Ranks and kernels do not see the scalings, and another kernel
    basis changes q by a congruence only."""
    fld, m = space.field, space.m
    (g1, s1), (g2, s2) = h1, h2
    _, _, c1, d1 = space.blocks(g1)
    a2, _, c2, _ = space.blocks(g2)
    l = len(linalg.rref(space.blocks(g12)[2] + c2, fld)[1]) - j12
    c1t = linalg.transpose(c1)
    kernel = linalg.nullspace([fld.scale(r, s1) + fld.scale(t, s2)
                               for r, t in zip(c2, c1t)], fld)
    left = [tuple(fld.scale(r, s1)) + fld.neg(fld.scale(t, s2))
            for r, t in zip(a2, linalg.transpose(d1))]
    ab = [(linalg.mat_vec(left, z, fld),
           fld.neg(linalg.mat_vec(c1t, z[m:], fld))) for z in kernel]
    # G_ij = a_i . (-b_j) + a_j . (-b_i)
    return l, [[fld.dot(a + aj, nbj + nb) for aj, nbj in ab]
               for a, nb in ab], fld.mul(2, s2)


def formula_report(space, g1, g2, rao=False):
    """(Leray's S, S1, S2 and rho, cocycle_formula's value, x(g1), x(g2))
    for the CLI, from one lowering of g1 and g2, which _leray checks.  The
    block is checked against the l and q the value is read off: |S1 cap
    S2| = l, |S| = rank q, and rho has q's det class and Hasse invariant
    (RuntimeError naming g1 and g2).  The check compares classes only:
    one branch for both fields, where q's diagonal and rho's come from
    quadratic.diagonal on the integers (Q_p) or the raw indices (F_q),
    so over F_q no FFElt is made but the printed rho's."""
    field = space.field
    sp, gs = _lowered(space, g1, g2)
    ld = _leray(sp, *gs)
    view, (h1, h2) = _scaled(sp, gs)
    val, d1, d2, (l, vals) = _cocycle(field, view, h1, h2, rao, True)
    fld = view.field
    (rho, s), = _scaled(sp, (ld.rho,))[1]
    if (len(set(ld.s1) & set(ld.s2)), len(ld.s)) + \
            det_hasse(field, fld, diagonal(fld, rho, s)[1]) != \
            (l, len(vals)) + det_hasse(field, fld, vals):
        raise RuntimeError("formula: the Leray block of g1 = %s, g2 = %s "
                           "disagrees with l and q" % (g1, g2))
    if sp is not space:
        ld = ld._replace(rho=sp.field.lift(ld.rho))
    return (ld, val) + tuple(square_class(field, d) for d in (d1, d2))


# ---------------------------------------------------------------------------
# splitting reports (finite F / char-2 coefficients)
# ---------------------------------------------------------------------------

def first_nontrivial_pair(space, cocycle, one, pairs=None):
    """(n, witness) for the pairs in order, by default every pair of Sp_2
    with g1 running slowest: n counts the pairs whose cocycle(g1, g2) is
    `one` before the first that is not, and witness is that pair's (g1,
    g2, value), or None when there is none."""
    if pairs is None:
        group = enumerate_sp2(space)
        pairs = ((g1, g2) for g1 in group for g2 in group)
    n = 0
    for g1, g2 in pairs:
        value = cocycle(g1, g2)
        if value != one:
            return n, (g1, g2, value)
        n += 1
    return n, None


def split_checks(ctx, pairs=None):
    """Multiplicativity of sigma on the given pairs (default: exhaustive over
    Sp_2 when m = 1): each pair's cocycle_operator must be 1.  Returns a
    report dict; a cocycle that is not scalar raises RuntimeError."""
    n, witness = first_nontrivial_pair(
        ctx.space, partial(cocycle_operator, ctx), ctx.one(), pairs)
    return {"multiplicative": witness is None, "pairs": n}


def enumerate_sp2(space):
    """All of Sp_2(F_q) = SL_2(F_q) as matrices in the (e_1; f_1) basis,
    in the arithmetic of space.field: FFElts, or raw indices over a field's
    index view.  [[a, b], [c, d]] is kept when its columns pair to 1."""
    field = space.field
    if space.m != 1:
        raise ValueError("enumerate_sp2 needs m = 1")
    one, pairing = field.one(), field.pairing
    return [((a, b), (c, d)) for a, b, c, d in points(field, 4)
            if pairing((a, c), (b, d), 1) == one]


def random_symplectic(space, rng, length=6, scale=3):
    """Seeded random element of Sp(W): a word in torus, unipotent and w_S
    generators with small parameters, each step a column update of g.  The
    finished word is checked once (RuntimeError naming the word)."""
    field = space.field
    m = space.m
    g = space.identity()
    word = []
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            while True:
                a = [[field.element(rng.randrange(-scale, scale + 1))
                      for _ in range(m)] for _ in range(m)]
                if linalg.det(a, field):
                    break
            g = space.mul_torus(g, a)
            word.append(("torus", a))
        elif kind == 1:
            s = [[field.zero()] * m for _ in range(m)]
            for i in range(m):
                for jj in range(i, m):
                    v = field.element(rng.randrange(-scale, scale + 1))
                    s[i][jj] = v
                    s[jj][i] = v
            g = space.mul_unipotent(g, s)
            word.append(("unipotent", s))
        else:
            subset = {i for i in range(m) if rng.randrange(2)}
            g = space.mul_w(g, subset)
            word.append(("w", subset))
    if not space.is_symplectic(g):
        raise RuntimeError("random_symplectic: the word %s gave %s, which "
                           "is not symplectic" % (word, g))
    return g
