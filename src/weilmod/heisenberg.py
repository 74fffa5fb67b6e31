"""The Heisenberg group H = W x F over a finite base field, its Schrödinger
and general self-dual-subgroup models as explicit monomial matrices over the
coefficient ring, commutant computations and change-of-model intertwiners.
"""

from __future__ import annotations

from . import linalg
from .basefield import points
from .coeff import RingMismatchError


class SympSpace:
    """W = X + Y with bases e_1..e_m of X, f_1..f_m of Y, <e_i, f_j> = d_ij.
    Vectors are coordinate tuples (x-part then y-part).  The arithmetic
    comes from `field`: a base field with FFElt or Fraction scalars, an
    F_q field's index view (coeff.FieldIndices), whose scalars are raw
    field indices, or the integers (basefield.Integers), where a Q_p
    matrix g is read as G = D g.  `unit` is the multiplier is_symplectic
    asks of g, field.one() by default: G is checked with unit D^2."""

    def __init__(self, field, m, unit=None):
        self.field = field
        self.m = m
        self.dim = 2 * m
        self.unit = unit

    def zero_vec(self):
        z = self.field.zero()
        return (z,) * self.dim

    def basis_e(self, i):
        v = [self.field.zero()] * self.dim
        v[i] = self.field.one()
        return tuple(v)

    def basis_f(self, i):
        v = [self.field.zero()] * self.dim
        v[self.m + i] = self.field.one()
        return tuple(v)

    def pairing(self, u, v):
        """<u, v> = sum_i u_i v_{m+i} - u_{m+i} v_i."""
        return self.field.pairing(u, v, self.m)

    def is_symplectic(self, g):
        """g^T J g = unit J."""
        m = self.m
        zero = self.field.zero()
        one = self.field.one() if self.unit is None else self.unit
        cols = linalg.transpose(g)
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                want = one if j == i + m and i < m else zero
                if self.pairing(cols[i], cols[j]) != want:
                    return False
        return True

    def inv(self, g):
        """g^-1 = J^-1 g^T J = [[D^T, -B^T], [-C^T, A^T]] for
        g = [[A, B], [C, D]].  Only right for symplectic g: the caller
        must know g is symplectic (a general matrix needs linalg.mat_inv)."""
        m, neg = self.m, self.field.neg
        cols = linalg.transpose(g)
        return tuple([cols[m + i][m:] + neg(cols[m + i][:m])
                      for i in range(m)] +
                     [neg(cols[i][m:]) + cols[i][:m] for i in range(m)])

    def identity(self):
        return linalg.identity(self.field, self.dim)

    def w_subset(self, subset):
        """w_S: e_i -> f_i, f_i -> -e_i for i in S; identity elsewhere."""
        return self.mul_w(self.identity(), subset)

    # w_S is a signed permutation, so products by it only move entries:
    # w_S e_i = f_i, w_S f_i = -e_i and w_S^-1 = w_S^T for i in S

    def mul_w(self, g, subset):
        """g w_S: columns i and m+i become g f_i and -g e_i for i in S."""
        m, neg = self.m, self.field.neg
        cols = list(zip(*g))
        for k in subset:
            cols[k], cols[m + k] = cols[m + k], neg(cols[k])
        return tuple(zip(*cols))

    def w_inv_mul(self, subset, g):
        """w_S^-1 g: rows i and m+i become row m+i and minus row i of g
        for i in S."""
        m = self.m
        top = [g[m + k] if k in subset else g[k] for k in range(m)]
        bottom = [self.field.neg(g[k]) if k in subset else g[m + k]
                  for k in range(m)]
        return tuple(top + bottom)

    # the generators of the Siegel parabolic P(X) act on columns too: the
    # torus diag(a, a^-T) mixes the X and the Y columns among themselves,
    # and the unipotent [[I, s], [0, I]] adds X columns to Y columns

    def mul_torus(self, g, a):
        """g diag(a, a^-T): the X columns become g_X a and the Y columns
        g_Y a^-T.  A singular a raises ZeroDivisionError (linalg.mat_inv)."""
        m, dot = self.m, self.field.dot
        ainv = linalg.mat_inv(a, self.field)
        acols = tuple(zip(*a))
        return tuple(tuple(dot(r[:m], c) for c in acols) +
                     tuple(dot(r[m:], c) for c in ainv) for r in g)

    def mul_unipotent(self, g, s):
        """g [[I, s], [0, I]] for symmetric s: column m+j gains g_X s_j,
        one dot product per entry; a zero column of s leaves its column
        alone.  A non-symmetric s raises ValueError, as the product would
        not be symplectic."""
        s = linalg.mat(s)
        if s != linalg.transpose(s):
            raise ValueError("unipotent parameter s is not symmetric")
        m, dot = self.m, self.field.dot
        one = (self.field.one(),)
        cols = [(j, one + c) for j, c in enumerate(s) if any(c)]  # s = s^T
        if not cols:
            return g
        out = []
        for r in g:
            row = list(r)
            xs = r[:m]
            for j, c in cols:
                row[m + j] = dot((r[m + j],) + xs, c)
            out.append(tuple(row))
        return tuple(out)

    def blocks(self, g):
        m = self.m
        top, bottom = g[:m], g[m:]
        return (tuple(tuple(r[:m]) for r in top),
                tuple(tuple(r[m:]) for r in top),
                tuple(tuple(r[:m]) for r in bottom),
                tuple(tuple(r[m:]) for r in bottom))

    def in_parabolic(self, g):
        """The C block of g is zero."""
        return not any(x for row in g[self.m:] for x in row[:self.m])

    def det_x(self, p):
        return linalg.det([r[:self.m] for r in p[:self.m]], self.field)

    def half(self):
        return self.field.one() / 2


class HeisenbergElement:
    """(w, t) with the half-pairing twisted group law."""

    __slots__ = ("space", "w", "t")

    def __init__(self, space, w, t):
        self.space = space
        self.w = tuple(space.field.element(x) for x in w)
        self.t = space.field.element(t)

    def __mul__(self, other):
        if self.space is not other.space:
            raise RingMismatchError("elements of different Heisenberg groups")
        sp = self.space
        w = tuple(a + b for a, b in zip(self.w, other.w))
        t = self.t + other.t + sp.half() * sp.pairing(self.w, other.w)
        return HeisenbergElement(sp, w, t)

    def inv(self):
        return HeisenbergElement(self.space, tuple(-x for x in self.w),
                                 -self.t)

    def __eq__(self, other):
        return (isinstance(other, HeisenbergElement)
                and self.space is other.space and self.w == other.w
                and self.t == other.t)

    def __hash__(self):
        return hash((self.w, self.t))

    def __repr__(self):
        return "h(%r; %r)" % (self.w, self.t)


def delta(space, w):
    return HeisenbergElement(space, w, 0)


def central(space, t):
    return HeisenbergElement(space, space.zero_vec(), t)


class Monomial:
    """Operator with one nonzero entry per column: M[perm[j], j] = phase[j]."""

    __slots__ = ("perm", "phases")

    def __init__(self, perm, phases):
        self.perm = tuple(perm)
        self.phases = tuple(phases)

    @property
    def dim(self):
        return len(self.perm)

    def __mul__(self, other):
        p1, f1 = self.perm, self.phases
        p2, f2 = other.perm, other.phases
        return Monomial(tuple(p1[p2[j]] for j in range(len(p2))),
                        tuple(f1[p2[j]] * f2[j] for j in range(len(p2))))

    def scaled(self, c):
        return Monomial(self.perm, tuple(c * x for x in self.phases))

    def transpose(self):
        n = self.dim
        perm = [0] * n
        phases = [None] * n
        for j in range(n):
            perm[self.perm[j]] = j
            phases[self.perm[j]] = self.phases[j]
        return Monomial(perm, phases)

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.perm == other.perm and self.phases == other.phases

    def __hash__(self):
        return hash((self.perm, self.phases))

    def to_dense(self, zero):
        n = self.dim
        rows = [[zero] * n for _ in range(n)]
        for j in range(n):
            rows[self.perm[j]][j] = self.phases[j]
        return linalg.mat(rows)

    def kron(self, other):
        n2 = other.dim
        perm, phases = [], []
        for j1 in range(self.dim):
            for j2 in range(n2):
                perm.append(self.perm[j1] * n2 + other.perm[j2])
                phases.append(self.phases[j1] * other.phases[j2])
        return Monomial(perm, phases)


class LagrangianModel:
    """S_A = ind_{A_H}^H psi_A for a Lagrangian A with psi_A trivial on A,
    realized on a linear transversal B: basis indexed by points of B."""

    def __init__(self, space, psi, a_basis):
        self.space = space
        self.psi = psi
        self.field = space.field
        if self.field.flavor != "finite":
            raise ValueError("matrix models exist for finite F only")
        m = space.m
        self.a_basis = linalg.mat(a_basis)
        if len(self.a_basis) != m:
            raise ValueError("self-dual subgroups here are Lagrangians")
        for u in self.a_basis:
            for v in self.a_basis:
                if space.pairing(u, v) != self.field.zero():
                    raise ValueError("subspace is not isotropic")
        # transversal: standard vectors completing a_basis
        comp = linalg.column_space_basis(list(self.a_basis) +
                                         list(space.identity()),
                                         self.field)[m:]
        self.b_basis = linalg.mat(comp)
        # the bases as columns: coordinates to ambient vectors by mat_vec
        self._a_cols = linalg.transpose(self.a_basis)
        self._b_cols = linalg.transpose(self.b_basis)
        self.dim = self.field.q ** m
        self._full = linalg.mat(list(self.a_basis) + list(self.b_basis))
        self._full_inv = linalg.mat_inv(linalg.transpose(self._full),
                                        self.field)
        self._points = points(self.field, m)
        self._index = {pt: i for i, pt in enumerate(self._points)}

    def point(self, i):
        """The i-th B-coset representative as an ambient vector."""
        return linalg.mat_vec(self._b_cols, self._points[i], self.field)

    def decompose(self, w):
        """w = a + b along A + B; returns (a, b, b-coords)."""
        coords = linalg.mat_vec(self._full_inv, w, self.field)
        m = self.space.m
        a = linalg.mat_vec(self._a_cols, coords[:m], self.field)
        b = linalg.mat_vec(self._b_cols, coords[m:], self.field)
        return a, b, tuple(coords[m:])

    def eval_basis(self, h):
        """Value at h of any f in the model: (coefficient, basis index)
        with f(h) = coeff * f~(index)."""
        a, b, co = self.decompose(h.w)
        t = h.t - self.space.half() * self.space.pairing(a, b)
        return self.psi(t), self._index[co]

    def rho(self, h):
        """Right-translation action; monomial in the B-point basis.

        With h = (w, t) and w = a_w + b_w along A + B, the B-point b (coords
        c) goes to b + b_w (coords c + co_w), since b + w = a_w + (b + b_w),
        with phase psi(t - <a_w, b_w>/2 + <b, w + a_w>/2): one decomposition
        per operator, linear in c through lam_k = <b_k, w + a_w>/2."""
        sp = self.space
        half = sp.half()
        a_w, b_w, co_w = self.decompose(h.w)
        t0 = h.t - half * sp.pairing(a_w, b_w)
        w_a = tuple(x + y for x, y in zip(h.w, a_w))
        lam = [half * sp.pairing(b, w_a) for b in self.b_basis]
        n = self.dim
        perm = [0] * n
        phases = [None] * n
        for i, c in enumerate(self._points):
            j = self._index[tuple(x + y for x, y in zip(c, co_w))]
            # (rho(h) f)~(b) = psi(t0 + c.lam) f~(b + b_w): column j feeds
            # row i
            perm[j] = i
            phases[j] = self.psi(t0 + sp.field.dot(c, lam))
        return Monomial(perm, phases)


class SchrodingerModel(LagrangianModel):
    """The X-model: functions on Y with the standard action formula."""

    def __init__(self, space, psi):
        super().__init__(space, psi,
                         [space.basis_e(i) for i in range(space.m)])


class TensorModel:
    """Model of H(W1 + W2) on S1 x S2: (w1+w2, t) acts by
    psi(t) rho1(w1, 0) x rho2(w2, 0)."""

    def __init__(self, model1, model2):
        self.model1 = model1
        self.model2 = model2
        self.psi = model1.psi
        self.field = model1.field
        self.dim = model1.dim * model2.dim
        m1, m2 = model1.space.m, model2.space.m
        self.space = SympSpace(self.field, m1 + m2)
        self._m1, self._m2 = m1, m2

    def _split(self, w):
        m1, m2 = self._m1, self._m2
        w1 = w[:m1] + w[m1 + m2:2 * m1 + m2]
        w2 = w[m1:m1 + m2] + w[2 * m1 + m2:]
        return w1, w2

    def rho(self, h):
        w1, w2 = self._split(h.w)
        r1 = self.model1.rho(delta(self.model1.space, w1))
        r2 = self.model2.rho(delta(self.model2.space, w2))
        return r1.kron(r2).scaled(self.psi(h.t))


class DualModel:
    """Contragredient: rho_v(h) = rho(h^{-1})^T in the dual basis."""

    def __init__(self, base):
        self.base = base
        self.space = base.space
        self.field = base.field
        self.psi = base.psi
        self.dim = base.dim

    def rho(self, h):
        return self.base.rho(h.inv()).transpose()


def model_generators(space):
    """delta(b e_i), delta(b f_i) for b in an F_p-basis of F_q, plus the
    central (0, 1): these generate H(W) also when q is a proper power."""
    field = space.field
    basis_scalars = [field.from_coeffs([1 if t == s else 0
                                        for t in range(field.f)])
                     for s in range(field.f)]
    gens = []
    for b in basis_scalars:
        for i in range(space.m):
            gens.append(delta(space,
                              tuple(b * x for x in space.basis_e(i))))
            gens.append(delta(space,
                              tuple(b * x for x in space.basis_f(i))))
    gens.append(central(space, 1))
    return gens


def commutant_dim(operators, dim, ring):
    """Dimension of {M : M r = r M for all r}, r monomial with phases in
    `ring`, via weighted union-find on the d^2 entry slots."""
    parent = list(range(dim * dim))
    one = ring.one()
    weight = [one] * (dim * dim)  # M[slot] = weight[slot] * M[root]
    dead = [False] * (dim * dim)

    def find(x):
        if parent[x] == x:
            return x, one
        root, w = find(parent[x])
        parent[x] = root
        weight[x] = weight[x] * w
        return root, weight[x]

    def union(a, b, c):
        # M[b] = c * M[a]
        ra, wa = find(a)
        rb, wb = find(b)
        if ra == rb:
            if c * wa != wb:
                dead[ra] = True
            return
        parent[rb] = ra
        weight[rb] = c * wa * wb.inv()
        if dead[rb]:
            dead[ra] = True

    for op in operators:
        perm, ph = op.perm, op.phases
        for i in range(dim):
            for j in range(dim):
                # M[perm[i], perm[j]] = (ph[i]/ph[j]) M[i, j]
                union(i * dim + j, perm[i] * dim + perm[j],
                      ph[i] * ph[j].inv())
    roots = set()
    for x in range(dim * dim):
        r, _ = find(x)
        roots.add(r)
    return sum(1 for r in roots if not dead[r])


def commutant_dim_model(model):
    ops = [model.rho(h) for h in model_generators(model.space)]
    return commutant_dim(ops, model.dim, model.psi.coeff_ring)


def intertwiner(model1, model2, omega_vec=None):
    """I_{A1,A2,mu,omega}: S_{A1} -> S_{A2} as a dense matrix, mu the
    counting measure; trivially extended characters, so psi must be trivial
    on <A1 cap A2, omega>, an F_q-subspace of F_q: omega must pair A1 cap A2
    to zero, since psi is trivial on no nonzero F_q-subspace."""
    sp = model1.space
    field = sp.field
    if omega_vec is None:
        omega_vec = sp.zero_vec()
    omega_vec = tuple(field.element(x) for x in omega_vec)
    a1, a2 = model1.a_basis, model2.a_basis
    inter = linalg.intersection(a1, a2, field)
    if any(sp.pairing(u, omega_vec) for u in inter):
        raise ValueError("omega incompatible on the intersection")
    reps = coset_reps(inter, a2, field)
    zero = model1.psi.coeff_ring.zero()
    rows = [[zero] * model1.dim for _ in range(model2.dim)]
    om = delta(sp, omega_vec)
    for i2 in range(model2.dim):
        h2 = delta(sp, model2.point(i2))
        for a in reps:
            h = om * delta(sp, a) * h2
            coeff, j1 = model1.eval_basis(h)
            rows[i2][j1] = rows[i2][j1] + coeff
    return linalg.mat(rows)


def coset_reps(subspace, ambient_basis, field):
    """Points of a complement of `subspace` inside span(ambient_basis); the
    one zero vector when the complement is {0}."""
    comp = linalg.column_space_basis(list(subspace) + list(ambient_basis),
                                     field)[len(subspace):]
    if not comp:
        return [(field.zero(),) *
                (len(ambient_basis[0]) if ambient_basis else 0)]
    cols = linalg.transpose(comp)
    return [linalg.mat_vec(cols, co, field)
            for co in points(field, len(comp))]


def hom_space(ops1, ops2, dim1, dim2, ring):
    """Basis of {T : T r1(g) = r2(g) T} for paired lists of dense matrices
    with entries in `ring`, a ring or a finite field's index view."""
    zero, one = ring.zero(), ring.one()
    nvar = dim2 * dim1
    rows = []
    for m1, m2 in zip(ops1, ops2):
        # T m1 - m2 T = 0, equation (i, j): m1[k][j] at T[i][k], -m2[i][k]
        # at T[k][j], and m1[j][j] - m2[i][i] at T[i][j], where both meet
        m1t = linalg.transpose(m1)
        for i in range(dim2):
            neg = ring.neg(m2[i])
            for j in range(dim1):
                row = [zero] * nvar
                row[i * dim1:(i + 1) * dim1] = m1t[j]
                row[j::dim1] = neg
                row[i * dim1 + j] = ring.eliminate(
                    [m1[j][j]], one, [m2[i][i]])[0]
                rows.append(row)
    return [tuple(v[i * dim1:(i + 1) * dim1] for i in range(dim2))
            for v in linalg.nullspace(linalg.mat(rows), ring)]
