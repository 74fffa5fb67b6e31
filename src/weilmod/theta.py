"""Finite type-I dual pairs with the Weil representation restricted to
them, isotypic theta lifts, central idempotents from formal degrees, and
reduction-mod-l congruence checks at desk scale.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial

from . import linalg
from .basefield import AdditiveCharacter, InputError, points
from .coeff import CyclotomicRing, FiniteField, ReductionMap
from .heisenberg import SympSpace, hom_space
from .metaplectic import WeilContext, enumerate_sp2

GROUP_ORDER_CAP = 10 ** 4
_DUAL_PAIRS = {}    # {(field, Gram matrix, m'): DualPair}, for the process
_ZERO_SIDES = {}    # {the same key: zero_side's table}, for the process


def enumerate_orthogonal(q_form):
    """All h in GL(V) with h^T G h = G, as matrices of raw field indices
    (FiniteField.indices); brute force, dim V <= 2."""
    ix = q_form.field.indices
    n = q_form.m
    if n > 2:
        raise InputError("orthogonal enumeration capped at dim 2")
    mul = partial(linalg.mat_mul, fld=ix)
    gram = ix.lower(q_form.gram)
    out = []
    # candidate columns with the first coordinate running fastest: this
    # order fixes the order of h1_list and so the char<k> labels
    vecs = [v[::-1] for v in points(ix, n)]
    for colset in itertools.product(vecs, repeat=n):
        h = linalg.transpose(colset)
        if mul(mul(colset, gram), h) == gram:
            out.append(h)
    return out


class DualPair:
    """(O(V), Sp(W')) inside Sp(V x W') with X = V x X'.

    H1, H2 and their images in Sp(W) are matrices of raw field indices
    (FiniteField.indices), and so are the keys of h1_perms, h2_images,
    h2_inverses and the character dicts; `space` is the symplectic space
    over the field itself, the one a WeilContext takes.  On the
    Schrödinger model, H1 = O(V) acts through the Levi morphism
    k -> (k, I_k), the permutation f(y) -> f(a^T y) of the Y-points, whatever
    the coefficient ring: omega(h) e_j = e_{h1_perms[h][j]}, in the
    Schrödinger basis order (-Id_V is parity).  H2 = Sp(W') acts through
    the split section sigma of its images h2_images.  `characters` holds
    H1's +-1 characters as (label, chi) pairs in table order
    (labelled_characters), `h2_inverses` H2's inverse table and
    `h2_generators` a generating set of H2 (_generators)."""

    def __init__(self, v_form, mprime):
        field = v_form.field
        if not v_form.is_nondegenerate():
            raise ValueError("the quadratic space must be nondegenerate")
        n0 = v_form.m
        if n0 * 2 * mprime > 4:
            raise InputError("full-operator scale capped at dim V * 2m' <= 4")
        if mprime != 1:
            raise InputError("only m' = 1 symplectic partners at this scale")
        # a lower bound, checked before either group is listed: |Sp2(F_q)| =
        # q(q^2 - 1), |O(V)| = 2 at dim V = 1 and 2(q -+ 1) >= 2(q - 1) at
        # dim V = 2.  It admits q^dim V <= 49 only, so the model needs no cap.
        q = field.q
        if (2 if n0 == 1 else 2 * (q - 1)) * q * (q * q - 1) > GROUP_ORDER_CAP:
            raise InputError("group order cap exceeded")
        self.field = field
        self.n0 = n0
        self.m = n0 * mprime
        ix = field.indices
        vecs, vals = v_form.diagonalize()
        self.diag_vals = ix.lower([vals])[0]    # a_i = Q(v_i)
        self.space = SympSpace(field, self.m)
        self._ix_space = SympSpace(ix, self.m)
        self._b = linalg.transpose(ix.lower(vecs))
        self._binv = linalg.mat_inv(self._b, ix)
        self.h1_list = enumerate_orthogonal(v_form)
        self.h2_list = enumerate_sp2(SympSpace(ix, 1))
        if len(self.h1_list) * len(self.h2_list) > GROUP_ORDER_CAP:
            raise InputError("group order cap exceeded")
        self.h2_images = {h: self.embed_h2(h) for h in self.h2_list}
        mul = partial(linalg.mat_mul, fld=ix)
        self.h2_generators = _generators(self.h2_list, mul)[1]
        pts = points(ix, self.m)
        index = {pt: i for i, pt in enumerate(pts)}
        self.h1_perms = {}
        for h1 in self.h1_list:
            e1 = self.embed_h1(h1)
            # commuting with a generating set of H2 is commuting with H2
            for h2 in self.h2_generators:
                e2 = self.h2_images[h2]
                if mul(e1, e2) != mul(e2, e1):
                    raise RuntimeError("dual pair images fail to commute")
            at = linalg.transpose(self._ix_space.blocks(e1)[0])
            perm = [0] * len(pts)
            for i, co in enumerate(pts):
                perm[index[linalg.mat_vec(at, co, ix)]] = i
            self.h1_perms[h1] = tuple(perm)
        self.characters = labelled_characters(
            linear_pm_characters(self.h1_list, mul))
        self.h2_inverses = group_inverses(self.h2_list, ix)

    def embed_h1(self, h):
        """O(V) acting as h x Id_W': block-diagonal in the rescaled basis."""
        ix = self.field.indices
        hb = linalg.mat_mul(linalg.mat_mul(self._binv, h, ix), self._b, ix)
        hbt = linalg.transpose(linalg.mat_inv(hb, ix))
        pad = (0,) * self.n0   # m' = 1: diag(hb, hb^-T)
        g = tuple(r + pad for r in hb) + tuple(pad + r for r in hbt)
        if not self._ix_space.is_symplectic(g):
            raise RuntimeError("orthogonal embedding not symplectic")
        return g

    def embed_h2(self, h):
        """Sp(W') acting as Id_V x h, twisted by the a_i weights."""
        ix = self.field.indices
        m, n0 = self.m, self.n0
        (al, be), (ga, de) = h
        rows = []
        for i in range(n0):
            row = [0] * (2 * m)
            row[i] = al
            row[m + i] = ix.mul(be, ix.recip(self.diag_vals[i]))
            rows.append(tuple(row))
        for i in range(n0):
            row = [0] * (2 * m)
            row[i] = ix.mul(ga, self.diag_vals[i])
            row[m + i] = de
            rows.append(tuple(row))
        g = tuple(rows)
        if not self._ix_space.is_symplectic(g):
            raise RuntimeError("symplectic embedding not symplectic")
        return g


def dual_pair(v_form, mprime):
    """DualPair(v_form, mprime), built once per (field, Gram matrix, m')."""
    key = (v_form.field, v_form.gram, mprime)
    if key not in _DUAL_PAIRS:
        _DUAL_PAIRS[key] = DualPair(v_form, mprime)
    return _DUAL_PAIRS[key]


def zero_side(v_form, mprime):
    """(ctx0, rows), dual_pair(v_form, mprime)'s side over Z[zeta_p] with
    the standard psi, kept per pair: per entry of pair.characters, the row
    (its ThetaLift, which keeps its count forms, ch0, <ch0, ch0> = 1)."""
    key = (v_form.field, v_form.gram, mprime)
    if key not in _ZERO_SIDES:
        pair = dual_pair(v_form, mprime)
        ctx0 = WeilContext(pair.space, AdditiveCharacter(
            pair.field, CyclotomicRing(pair.field.p)))
        lifts = [ThetaLift(pair, ctx0, chi) for _, chi in pair.characters]
        chars = [lift.character() for lift in lifts]
        _ZERO_SIDES[key] = ctx0, [(lift, ch, char_inner(
            pair.h2_list, ch, ch, pair.h2_inverses) == ctx0.one())
            for lift, ch in zip(lifts, chars)]
    return _ZERO_SIDES[key]


def _generators(group, mul):
    """(identity, generators) of a small group: each element, in list order,
    that the closure of the generators so far misses."""
    ident = None
    for g in group:
        if all(mul(g, h) == h for h in group[:3]):
            ident = g
            break
    closure = {ident}
    gens = []
    for g in group:
        if g not in closure:
            gens.append(g)
            new = set(closure)
            while True:
                added = False
                for a in list(new):
                    for s in gens:
                        t = mul(a, s)
                        if t not in new:
                            new.add(t)
                            added = True
                if not added:
                    break
            closure = new
            if len(closure) == len(group):
                break
    return ident, gens


def linear_pm_characters(group, mul):
    """All homomorphisms group -> {1, -1} of a small group."""
    ident, gens = _generators(group, mul)
    chars = []
    for signs in itertools.product((1, -1), repeat=len(gens)):
        val = {ident: 1}
        ok = True
        frontier = [ident]
        # propagate by right multiplication with generators
        while frontier and ok:
            nxt = []
            for a in frontier:
                for s, sg in zip(gens, signs):
                    t = mul(a, s)
                    v = val[a] * sg
                    if t in val:
                        if val[t] != v:
                            ok = False
                            break
                    else:
                        val[t] = v
                        nxt.append(t)
                if not ok:
                    break
            frontier = nxt
        if ok and len(val) == len(group):
            if all(val[mul(a, b)] == val[a] * val[b]
                   for a in group for b in group):
                chars.append(val)
    return chars


def labelled_characters(chars):
    """(label, chi) pairs in table order: the trivial character first as
    "trivial", every other one as char<k> after its position k."""
    out = []
    for k, chi in enumerate(sorted(chars, key=lambda c: sorted(
            str(v) for v in c.values()), reverse=True)):
        label = "trivial" if all(v == 1 for v in chi.values()) else \
            "char%d" % k
        out.append((label, chi))
    return out


class ThetaLift:
    """Theta(pi_1) on Hom_{H1}(pi_1, omega) with its H2-action.

    H1 permutes the Y-points, so the basis is the signed orbit sums
    b_O = sum_h chi(h) e_{h y_O} (each point of O once), one per H1-orbit O
    whose stabiliser has chi(s) 1_R = 1_R in the coefficient ring R: over
    characteristic 2 every orbit.  b_O is 1 at y_O, the first point of O,
    and is kept as restrict's split (P, M), the points of O where it is 1
    and -1 (P is all O in characteristic 2).  R is the coefficient ring of
    ctx, a WeilContext on pair.space; it may be any ring holding zeta_p, a
    non-banal F_{l^d} included (only congruence_check refuses those)."""

    def __init__(self, pair, ctx, chi1):
        if ctx.space is not pair.space:
            raise ValueError("ctx must be a WeilContext on pair.space")
        self.pair = pair
        self.ctx = ctx
        one = ctx.one()
        signed = [(perm, one * chi1[h] == one)
                  for h, perm in pair.h1_perms.items()]
        seen, split = set(), []
        for y in range(len(signed[0][0])):     # over the Y-points
            if y in seen:
                continue
            plus = {perm[y] for perm, pos in signed if pos}
            minus = {perm[y] for perm, pos in signed if not pos}
            seen |= plus | minus
            # y in minus: chi(s) 1_R != 1_R for some s fixing y
            if y not in minus:
                split.append((tuple(sorted(plus)), tuple(sorted(minus))))
        self._split = tuple(split)
        self.dim = len(split)
        self._forms = {}    # {h2: act_counts(h2)}

    def act(self, h2):
        """Matrix of omega(h2) on the b_O, for h2 in pair.h2_list (a
        raw-index matrix): mu(key) phi(A) for (key, A) = act_counts(h2), on
        which restrict decided H2-stability.  The columns are the
        coordinates of the images of the b_O: their entries at the y_O.
        phi, a ring map, carries the decision made in Z[zeta_p] to R, and
        maps the 2^{W-1} that restrict adds to each slot to 2^{W-1} (1 +
        zeta + ... + zeta^{p-1}) = 0."""
        if self.dim == 0:
            return ()
        key, cols = self.act_counts(h2)
        mu, phi = self.ctx.mu(key), self.ctx.phi
        return linalg.transpose([tuple(mu * phi(x) for x in col)
                                 for col in self._stable(h2, cols)])

    def act_counts(self, h2):
        """CountModel.restrict's (key, A) on self's span, kept per h2."""
        if h2 not in self._forms:
            self._forms[h2] = self.ctx.counts.restrict(
                self.pair.h2_images[h2], self._split)
        return self._forms[h2]

    @staticmethod
    def _stable(h2, cols):
        if cols is None:
            raise RuntimeError("theta subspace is not H2-stable under "
                               "h2 = %s" % (h2,))
        return cols

    def character(self):
        """{h: trace act(h)} over H2, read off the diagonal of the counts:
        mu(key) sum_k phi(A_k[y_k]) for (key, A) = act_counts(h), and act's
        H2-stability error where A is None."""
        ctx, out = self.ctx, {}
        for h in self.pair.h2_list:
            key, cols = self.act_counts(h)
            acc = ctx.zero()
            for k, col in enumerate(self._stable(h, cols)):
                acc = acc + ctx.phi(col[k])
            out[h] = ctx.mu(key) * acc
        return out


def char_inner(group, chi_a, chi_b, inv):
    """dim Hom = (1/|G|) sum chi_a(g) chi_b(g^{-1}); exact scalar."""
    acc = None
    for g in group:
        t = chi_a[g] * chi_b[inv[g]]
        acc = t if acc is None else acc + t
    return acc * Fraction(1, len(group))


def group_inverses(group, field):
    """{g: g^{-1}} for a list of invertible matrices over `field` (a
    field's index view for the groups of a DualPair)."""
    return {g: linalg.mat_inv(g, field) for g in group}


# ---------------------------------------------------------------------------
# central idempotents and congruences
# ---------------------------------------------------------------------------

class CentralIdempotent:
    """e_Pi = (dim Pi / |G|) sum_g chi(g^{-1}) g in R[G], for a group given
    as an element list with its inverse table `inv`, over the coefficient
    ring `ring` = R: `coeffs` maps each g to its coefficient.  Over a
    finite R of characteristic l the group order must be prime to l
    (banal); `dim` may be a Fraction, as for an H2 factor."""

    def __init__(self, group, inv, char, dim, ring):
        n = len(group)
        if isinstance(ring, FiniteField) and n % ring.p == 0:
            raise ValueError(
                "non-banal characteristic: l divides the group order")
        scale = ring.one() * Fraction(dim, n)
        self.coeffs = {g: scale * char[inv[g]] for g in group}


def congruence_check(v_form, mprime, ell):
    """Theta over characteristic 0 vs characteristic l; returns a report
    dict.  A non-banal l (one dividing |H1 x H2|) is refused with
    ValueError.

    For every lift and h in H2, red(act_0(h)) = act_l(h), which implies
    that the reduced traces agree.  act_R(h) = mu_R(key) phi_R(A)
    (ThetaLift.act_counts) and red is a ring map, so this holds when both
    sides' (key, A) agree, red(mu_0(key)) = mu_l(key) for each key met and
    red(phi_0(c)) = phi_l(c) for each distinct entry c of the A.  The two
    contexts share one CountModel, kept for the process like the pair
    (dual_pair), so each (key, A) is built once for both rings and every
    l, and each side's characters are traces read off them.  The side over
    Z[zeta_p] does not depend on l and is kept per pair (zero_side).
    Irreducibility in characteristic l is the commutant of the action of
    H2's generators, on F_{l^d}'s index view.  The idempotent e_Pi of Pi =
    1 x Theta(1) on H1 x H2 must reduce to its characteristic-l
    counterpart: e_Pi = e_{1,H1} x e_{Theta,H2}, so on the H2 factor."""
    field = v_form.field
    p = field.p
    pair = dual_pair(v_form, mprime)
    h1, h2 = pair.h1_list, pair.h2_list
    order = len(h1) * len(h2)
    if order % ell == 0:
        raise ValueError("non-banal l = %d divides |H1 x H2| = %d: refused"
                         % (ell, order))
    ctx0, zero_rows = zero_side(v_form, mprime)
    ring0 = ctx0.psi.coeff_ring
    # characteristic l side: F_{l^d} containing zeta_p, d the order of l
    d = next(d for d in itertools.count(1) if pow(ell, d, p) == 1)
    ffl = FiniteField(ell, d)
    red = ReductionMap(ring0, ffl)
    ctxl = WeilContext(pair.space, AdditiveCharacter(field, ffl))
    ix = ffl.indices
    report = {"lifts": []}
    checked = set()     # the mu keys and packed entries checked so far
    for (label, chi), (lift0, ch0, irr_one) in zip(pair.characters,
                                                   zero_rows):
        liftl = ThetaLift(pair, ctxl, chi)
        if lift0.dim != liftl.dim:
            raise RuntimeError("theta dimensions differ across reduction")
        chl = liftl.character()     # each side decides H2-stability
        for g in h2:
            key, cols = form = lift0.act_counts(g)
            new = {x for col in cols for x in col} - checked
            if form != liftl.act_counts(g) or (
                    key not in checked and red(ctx0.mu(key)) != ctxl.mu(key)) \
                    or any(red(ctx0.phi(x)) != ctxl.phi(x) for x in new):
                raise RuntimeError("integral lift does not reduce entrywise")
            checked |= new | {key}
        # char-l irreducibility: T commutes with every act(g) exactly when
        # it commutes with act(s) for each generator s
        irr_l = False
        if liftl.dim:
            ops = [ix.lower(liftl.act(g)) for g in pair.h2_generators]
            irr_l = len(hom_space(ops, ops, liftl.dim, liftl.dim, ix)) == 1
        if irr_one and not irr_l:
            raise RuntimeError("irreducibility not preserved by reduction")
        report["lifts"].append({
            "chi1": label,
            "dim": lift0.dim,
            "irreducible_char0": bool(irr_one),
            "irreducible_charl": bool(irr_l),
        })
        if label == "trivial":
            # e_Pi's H2 factor, (dim / |H1 x H2|) Theta(b^-1) at b (l does
            # not divide |H1 x H2|: the non-banal case was refused above)
            scale = Fraction(lift0.dim, len(h1))
            e0 = CentralIdempotent(h2, pair.h2_inverses, ch0, scale, ring0)
            el = CentralIdempotent(h2, pair.h2_inverses, chl, scale, ffl)
            if any(red(e0.coeffs[b]) != el.coeffs[b] for b in h2):
                raise RuntimeError("idempotent reduction mismatch")
    report["idempotent_reduction"] = True
    return report
