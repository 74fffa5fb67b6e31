"""Small exact linear algebra over any scalars with field operator overloads
(Fraction, FFElt, Cyc).  Matrices are tuples of tuples; vectors are tuples.

A routine that has to create zeros or ones takes the field or ring itself as
`fld` (FqField, QpField, FiniteField, CyclotomicRing all expose zero() and
one()); everything else reads its scalars off the entries.

Zero contract: every scalar is falsy exactly when it is zero (int, Fraction,
FFElt, Cyc), so `not x` is the zero test.  Dot products skip zero terms after
the first, and a row operation leaves an entry alone where the pivot row is
zero; neither changes a value.
"""

from __future__ import annotations

from fractions import Fraction


def mat(rows):
    return tuple(tuple(r) for r in rows)


def identity(fld, n):
    z, o = fld.zero(), fld.one()
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def zeros(fld, n, m):
    z = fld.zero()
    return tuple(tuple(z for _ in range(m)) for _ in range(n))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    out = []
    for row in a:
        out.append(tuple(_dot(row, col) for col in bt))
    return tuple(out)


def _dot(u, v):
    it = iter(zip(u, v))
    x, y = next(it)
    acc = x * y
    for x, y in it:
        if x and y:
            acc = acc + x * y
    return acc


def mat_vec(a, v):
    return tuple(_dot(row, v) for row in a)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_scal(c, a):
    return tuple(tuple(c * x for x in r) for r in a)


def transpose(a):
    return tuple(zip(*a))


def _recip(x):
    """1/x, exact also for plain ints (which have no inv())."""
    return x.inv() if hasattr(x, "inv") else Fraction(1) / x


def _eliminate(row, f, pivot_row):
    """row - f pivot_row, leaving row alone where pivot_row is zero."""
    return [x - f * y if y else x for x, y in zip(row, pivot_row)]


def rref(a):
    """Reduced row echelon form; returns (rref rows as lists, pivot cols)."""
    rows = [list(r) for r in a]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = _recip(rows[r][c])
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = _eliminate(rows[i], rows[i][c], rows[r])
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def nullspace(a, fld):
    """Basis (tuple of vectors) of the right kernel of a."""
    if not a:
        return ()
    rows, pivots = rref(a)
    ncols = len(a[0])
    free = [c for c in range(ncols) if c not in pivots]
    z, o = fld.zero(), fld.one()
    basis = []
    for fc in free:
        v = [z] * ncols
        v[fc] = o
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return tuple(basis)


def solve(a, rhs, fld):
    """One solution x of a x = rhs, or None.  rhs is a vector."""
    sols = solve_columns(a, [rhs], fld)
    return None if sols is None else sols[0]


def solve_columns(a, rhs_columns, fld):
    """For each vector rhs in rhs_columns the solution x of a x = rhs that
    is zero off the pivots of a, all from one rref of [a | rhs ...]; None
    if any rhs has no solution."""
    ncols = len(a[0]) if a else 0
    rows, pivots = rref([list(r) + [rhs[i] for rhs in rhs_columns]
                         for i, r in enumerate(a)])
    if any(pc >= ncols for pc in pivots):
        return None
    z = fld.zero()
    out = []
    for t in range(len(rhs_columns)):
        x = [z] * ncols
        for row, pc in zip(rows, pivots):
            x[pc] = row[ncols + t]
        out.append(tuple(x))
    return out


def det(a):
    n = len(a)
    rows = [list(r) for r in a]
    sign_flip = False
    acc = None
    for c in range(n):
        piv = None
        for i in range(c, n):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            return rows[0][0] - rows[0][0]
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign_flip = not sign_flip
        pv = rows[c][c]
        acc = pv if acc is None else acc * pv
        inv = _recip(pv)
        for i in range(c + 1, n):
            if rows[i][c]:
                rows[i] = _eliminate(rows[i], rows[i][c] * inv, rows[c])
    return -acc if sign_flip else acc


def mat_inv(a, fld):
    n = len(a)
    aug = [list(r) + list(e) for r, e in zip(a, identity(fld, n))]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix not invertible")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def kron(a, b):
    out = []
    for ra in a:
        for rb in b:
            out.append(tuple(x * y for x in ra for y in rb))
    return tuple(out)


def trace(a):
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


def column_space_basis(vectors):
    """The greedy subset of the given vectors that is a basis of their span:
    the pivot columns of the matrix whose columns they are.  Listing an
    independent family first extends it to a basis."""
    vectors = [tuple(v) for v in vectors]
    return [vectors[c] for c in rref(transpose(vectors))[1]]


def combine(coords, basis, zero_vector):
    """sum_i coords[i] * basis[i], starting from zero_vector."""
    acc = list(zero_vector)
    for c, vec in zip(coords, basis):
        for t in range(len(acc)):
            acc[t] = acc[t] + c * vec[t]
    return tuple(acc)


def intersection(basis1, basis2, fld):
    """A basis of span(basis1) cap span(basis2)."""
    if not basis1 or not basis2:
        return ()
    rows = list(basis1) + list(basis2)
    ns = nullspace(transpose(mat(rows)), fld)
    zero = (fld.zero(),) * len(basis1[0])
    return tuple(column_space_basis(
        [combine(coefs[:len(basis1)], basis1, zero) for coefs in ns]))
