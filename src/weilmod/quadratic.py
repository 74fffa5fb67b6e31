"""Quadratic forms over the base field: radicals, diagonalization, square
classes, Hilbert symbols and Hasse invariants.

A form is Q(x) = x^T G x for a symmetric Gram matrix G; the associated
bilinear form is B(x, y) = Q(x+y) - Q(x) - Q(y) = 2 x^T G y.

A form costs one elimination, its radical's: the radical's free columns
fix a complement of standard vectors, and each Gram-Schmidt step knows
the vector it drops, so no row reduction selects an independent subset.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import linalg
from .basefield import QpField


class SquareClass:
    """Canonical square class: finite {1, nu}; Q_p {1, u0, p, u0*p}, its
    rep made when read."""

    __slots__ = ("field", "tag")

    def __init__(self, field, tag):
        self.field = field
        self.tag = tag

    def __eq__(self, other):
        return (isinstance(other, SquareClass) and self.field is other.field
                and self.tag == other.tag)

    def __hash__(self):
        return hash((id(self.field), self.tag))

    def __repr__(self):
        return self.tag

    def __mul__(self, other):
        return square_class(self.field, self.rep * other.rep)

    @property
    def rep(self):
        field, tag = self.field, self.tag
        if tag == "1":
            return field.one()
        if tag == "nu":
            return field.nonresidue()
        u0 = field.nonresidue() if tag.startswith("u0") else 1
        return Fraction(u0 * (field.p if tag.endswith("p") else 1))


def square_class(field, a):
    """Canonical representative of a mod squares.  An int is read as a raw
    index over F_q, and as itself over Q_p, with no field element made."""
    if field.flavor == "finite":
        i = field.index(a)
        if not i:
            raise ZeroDivisionError("square class of zero")
        return SquareClass(field, "1" if field.is_square(i) else "nu")
    v = field.val(a) % 2
    res = field.legendre(field.unit_residue(a))
    return SquareClass(field, {(0, 1): "1", (0, -1): "u0", (1, 1): "p",
                               (1, -1): "u0p"}[v, res])


def hilbert(field, a, b):
    """The quadratic Hilbert symbol (a,b)_F in {+1, -1}: residues enter
    only at odd valuations, so it is 1 over F_q (trivially valued)."""
    al, be = field.val(a) % 2, field.val(b) % 2
    s = 1
    if be:
        s *= field.legendre(field.unit_residue(a))
    if al:
        s *= field.legendre(field.unit_residue(b))
    if al and be:
        s *= field.legendre(-1)
    return s


def hasse_invariant(field, vals):
    """h(<a_1, .., a_r>) = prod over i < j of (a_i, a_j)_F."""
    s = 1
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            s *= hilbert(field, vals[i], vals[j])
    return s


def diagonal(fld, gram, scale):
    """scale a_i for the nonzero a_1 .. a_r of a diagonal form congruent
    to the symmetric `gram`, in fld's arithmetic: the integers
    (basefield.Integers) or an F_q field's index view.  Division-free
    Gram-Schmidt from the standard basis: the pivot v has a = B(v, v) !=
    0, or is u + w for B(u, w) != 0 (char != 2), and every other w becomes
    a w - B(v, w) v, orthogonal to v.  That only scales vectors, so the
    isometry class is kept.  The image that is a multiple of another (the
    pivot's own, or w's beside u + w) is dropped, and the loop stops when
    what remains is radical."""
    remaining = list(linalg.identity(fld, len(gram)))
    vals = []

    def bval(u, v):
        return fld.dot(u, linalg.mat_vec(gram, v, fld))

    while remaining:
        pivots = itertools.chain(
            ((k, v) for k, v in enumerate(remaining) if bval(v, v)),
            ((j, fld.add(u, v))
             for (_, u), (j, v) in itertools.combinations(
                 enumerate(remaining), 2) if bval(u, v)))
        drop, piv = next(pivots, (None, None))
        if piv is None:
            break
        a = bval(piv, piv)
        vals.append(fld.mul(scale, a))
        remaining = [tuple(fld.eliminate(fld.scale(v, a), bval(piv, v), piv))
                     for k, v in enumerate(remaining) if k != drop]
    return vals


def hilbert_oracle(field, a, b):
    """Ground-truth symbol: does z^2 = a x^2 + b y^2 have a nontrivial
    Q_p-solution?  Decided by valuation descent on the diagonal ternary form
    (a, b, -1); quadratic-residue facts come from enumerated square sets."""
    if not isinstance(field, QpField):
        return 1
    return 1 if _ternary_isotropic(field, [Fraction(a), Fraction(b),
                                           Fraction(-1)]) else -1


def _squares_mod_p(p):
    return {(k * k) % p for k in range(1, p)}


def _ternary_isotropic(field, coeffs):
    p = field.p
    # strip square factors so every valuation is 0 or 1
    cs = []
    for c in coeffs:
        v = field.val(c)
        cs.append(field.unit_part(c) * (p if v % 2 else 1))
    sq = _squares_mod_p(p)
    units = [i for i, c in enumerate(cs) if field.val(c) == 0]
    prms = [i for i, c in enumerate(cs) if field.val(c) == 1]
    if len(units) == 0:
        # divide everything by p: all become units
        return _ternary_isotropic(field, [c / p for c in cs])
    if len(units) == 3:
        # a nondegenerate ternary form over F_p is isotropic, and some
        # nonsingular zero exists since p is odd
        return True
    if len(units) == 2:
        i, j = units
        r = (-field.unit_residue(cs[i]) * field.unit_residue(cs[j])) % p
        if r in sq:
            return True
        # otherwise x_i = x_j = 0 mod p forces the remaining variable to
        # vanish too: no primitive solution
        return False
    # one unit, two entries of valuation 1: the unit variable is 0 mod p;
    # substitute and divide by p, swapping the roles
    k = units[0]
    i, j = prms
    return _ternary_isotropic(field, [cs[i] / p, cs[j] / p, cs[k] * p])


class QuadraticForm:
    """Symmetric Gram matrix over F with cached invariants."""

    def __init__(self, field, gram):
        self.field = field
        g = linalg.mat([[field.element(x) for x in row] for row in gram])
        n = len(g)
        for row in g:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        self.gram = g
        self.m = n
        self._radical = None
        self._diag = None

    def __repr__(self):
        return "QuadraticForm(%r, dim %d)" % (self.field, self.m)

    def radical(self):
        """Basis of rad(Q) = ker(G)."""
        if self._radical is None:
            self._radical = linalg.nullspace(self.gram, self.field)
        return self._radical

    def is_nondegenerate(self):
        return len(self.radical()) == 0

    def nondegenerate_part(self):
        """(complement basis C, induced Gram C^T G C) on X/rad(Q).  C is the
        e_k for the k that are no free column f of the radical's nullspace:
        each of its vectors ends (last nonzero entry) at its own f, so mod
        rad(Q) e_f is a combination of earlier e_k while the other e_k stay
        independent, and C^T G C is G on their rows and columns."""
        free = {max(k for k, x in enumerate(v) if x) for v in self.radical()}
        idx = [k for k in range(self.m) if k not in free]
        std = linalg.identity(self.field, self.m)
        g = self.gram
        return (tuple(std[k] for k in idx),
                tuple(tuple(g[i][j] for j in idx) for i in idx))

    def diagonalize(self):
        """(basis vectors b_1..b_r, entries a_i = Q(b_i)) of the
        nondegenerate part, by Gram-Schmidt in the complement's
        coordinates."""
        if self._diag is not None:
            return self._diag
        fld = self.field
        comp, gc = self.nondegenerate_part()
        remaining = list(linalg.identity(fld, len(gc)))
        out_vecs, out_vals = [], []

        def bval(u, v):
            return fld.dot(u, linalg.mat_vec(gc, v, fld))

        while remaining:
            # the pivot: some v with Q(v) != 0, which the projection sends
            # to 0; else (all Q(v) = 0, char != 2) v_i + v_j for a nonzero
            # cross term, which sends v_j to minus v_i's image.  Dropping
            # that v leaves the other images independent.
            pivots = itertools.chain(
                ((k, v) for k, v in enumerate(remaining) if bval(v, v)),
                ((j, tuple(x + y for x, y in zip(u, v)))
                 for (_, u), (j, v) in itertools.combinations(
                     enumerate(remaining), 2) if bval(u, v)))
            drop, piv = next(pivots, (None, None))
            if piv is None:
                raise RuntimeError("degenerate block in diagonalization")
            a = bval(piv, piv)
            out_vecs.append(piv)
            out_vals.append(a)
            inv_a = fld.recip(a)
            # v - (piv^T G v / piv^T G piv) piv
            remaining = [tuple(fld.eliminate(v, fld.mul(bval(piv, v), inv_a),
                                             piv))
                         for k, v in enumerate(remaining) if k != drop]
        # pull the quotient vectors back to the ambient space
        cols = linalg.transpose(comp)
        amb = tuple(linalg.mat_vec(cols, v, fld) for v in out_vecs)
        self._diag = (amb, tuple(out_vals))
        return self._diag

    def det_square_class(self):
        _, vals = self.diagonalize()
        prod = self.field.one()
        for a in vals:
            prod = prod * a
        return square_class(self.field, prod)

    def hasse(self):
        return hasse_invariant(self.field, self.diagonalize()[1])

