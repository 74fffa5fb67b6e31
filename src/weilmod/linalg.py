"""Small exact linear algebra.  Matrices are tuples of tuples; vectors are
tuples.

mat_mul, mat_vec, rref, nullspace, solve, det, mat_inv, column_space_basis
and intersection take their arithmetic from `fld`, the field or ring the
scalars live in: zero() and one() where they create zeros or ones, and the
dot product, whole-row operations and reciprocal of `Ops` (which also
holds the symplectic pairing that SympSpace reads).  There are two kinds
of arithmetic.  `Ops` reads it off the scalars' own operators: FFElt and
Cyc (FiniteField, FqField among them, and CyclotomicRing extend it with
zero() and one()) and Fraction (QpField, whose recip also takes an int).
The raw-int views that the hot paths lower to supply their own: a finite
field's index view (coeff.FiniteField.indices) on raw field indices, and
the integers (basefield.Integers) that a Q_p matrix is scaled to.  Every
call in the package names its field; mat_mul's default, OPS, exists only
for callers outside the package.

rref and det make each elimination step through `fld.pivot`.  Over a
field it scales the pivot row to 1 and clears the column with it.  The
integers (basefield.Integers, the view a Q_p matrix is lowered to)
eliminate fraction-free instead (E. Bareiss, Math. Comp. 22 (1968)), so
rref (and with it ranks), nullspace, det and column_space_basis run on
integer matrices too; solve_columns and mat_inv need a field.

Zero contract: every scalar is falsy exactly when it is zero (int, Fraction,
FFElt, Cyc, a raw field index), so `not x` is the zero test.  Dot products
skip zero terms after the first, and a row operation leaves an entry alone
where the pivot row is zero; neither changes a value.
"""

from __future__ import annotations


class Ops:
    """The arithmetic of scalars with field operator overloads.  Row
    operations return lists (rref's working rows), neg a tuple."""

    @staticmethod
    def dot(u, v):
        it = iter(zip(u, v))
        x, y = next(it)
        acc = x * y
        for x, y in it:
            if x and y:
                acc = acc + x * y
        return acc

    @staticmethod
    def mul(x, y):
        return x * y

    @staticmethod
    def recip(x):
        return x.inv()

    @staticmethod
    def eliminate(row, f, pivot_row):
        """row - f pivot_row, leaving row alone where pivot_row is zero."""
        return [x - f * y if y else x for x, y in zip(row, pivot_row)]

    @staticmethod
    def scale(row, c):
        return [v * c for v in row]

    @staticmethod
    def neg(row):
        return tuple(-x for x in row)

    def pivot(self, rows, r, c, lead, lo=0):
        """One elimination step of rref (lo = 0) and of det (lo = r + 1)
        over a field, on its scalars' operators or its raw indices: the
        pivot x = rows[r][c] != 0 clears column c of every row of rows[lo:]
        but row r, in place.  Row r is scaled to 1 at c by one reciprocal,
        and row i loses rows[i][c] times it.  Returns the pivot block's
        determinant: lead x, or x itself at the first pivot (lead None)."""
        x = rows[r][c]
        if lo < len(rows):      # det's last step clears nothing
            piv = rows[r] = self.scale(rows[r], self.recip(x))
            eliminate = self.eliminate
            for i in range(lo, len(rows)):
                row = rows[i]
                if i != r and row[c]:
                    rows[i] = eliminate(row, row[c], piv)
        return x if lead is None else self.mul(lead, x)

    def pairing(self, u, v, m):
        """The symplectic pairing sum_i u_i v_{m+i} - u_{m+i} v_i of two
        2m-vectors, skipping the terms with a zero factor (a field's
        zero() starts the sum)."""
        acc = self.zero()
        for i in range(m):
            a, b = u[i], u[m + i]
            if a:
                y = v[m + i]
                if y:
                    acc = acc + a * y
            if b:
                x = v[i]
                if x:
                    acc = acc - b * x
        return acc


OPS = Ops()


def mat(rows):
    return tuple(tuple(r) for r in rows)


def identity(fld, n):
    z, o = fld.zero(), fld.one()
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def mat_mul(a, b, fld=OPS):
    """a b.  The package always passes `fld`; the default serves callers
    outside it, such as a benchmark timing mat_mul(a, b) on dense sigmas."""
    dot = fld.dot
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_vec(a, v, fld):
    dot = fld.dot
    return tuple(dot(row, v) for row in a)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def transpose(a):
    return tuple(zip(*a))


def rref(a, fld):
    """Reduced row echelon form; returns (rref rows as lists, pivot cols).
    Every pivot ends at one value: 1 over a field, and over the integers
    (basefield.Integers) the last pivot block's determinant d, the rows
    being d times the rational rref."""
    rows = [list(r) for r in a]
    if not rows:
        return rows, []
    pivot = fld.pivot
    ncols = len(rows[0])
    pivots = []
    lead = None
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
        lead = pivot(rows, r, c, lead)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def nullspace(a, fld):
    """Basis (tuple of vectors) of the right kernel of a: for each free
    column f, the vector with rref's common pivot value at f and minus
    column f of each pivot row at its pivot column."""
    if not a:
        return ()
    rows, pivots = rref(a, fld)
    ncols = len(a[0])
    free = [c for c in range(ncols) if c not in pivots]
    z = fld.zero()
    o = rows[0][pivots[0]] if pivots else fld.one()
    basis = []
    for fc in free:
        v = [z] * ncols
        v[fc] = o
        for pc, x in zip(pivots, fld.neg([row[fc] for row in rows])):
            v[pc] = x
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
                         for i, r in enumerate(a)], fld)
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


def det(a, fld):
    """The determinant: the pivot block's determinant after the last step
    of a forward elimination (Ops.pivot), each row swap flipping its
    sign; a singular a gives a zero entry squared."""
    n = len(a)
    rows = [list(r) for r in a]
    flip = False
    acc = None
    for c in range(n):
        piv = None
        for i in range(c, n):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            return fld.mul(rows[c][c], rows[c][c])
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            flip = not flip
        acc = fld.pivot(rows, c, c, acc, c + 1)
    return fld.neg((acc,))[0] if flip else acc


def mat_inv(a, fld):
    n = len(a)
    aug = [list(r) + list(e) for r, e in zip(a, identity(fld, n))]
    rows, pivots = rref(aug, fld)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix not invertible")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def column_space_basis(vectors, fld):
    """The greedy subset of the given vectors that is a basis of their span:
    the pivot columns of the matrix whose columns they are.  Listing an
    independent family first extends it to a basis."""
    vectors = [tuple(v) for v in vectors]
    return [vectors[c] for c in rref(transpose(vectors), fld)[1]]


def intersection(basis1, basis2, fld):
    """A basis of span(basis1) cap span(basis2)."""
    if not basis1 or not basis2:
        return ()
    rows = list(basis1) + list(basis2)
    ns = nullspace(transpose(mat(rows)), fld)
    cols = transpose(basis1)
    return tuple(column_space_basis(
        [mat_vec(cols, coefs[:len(basis1)], fld) for coefs in ns], fld))
