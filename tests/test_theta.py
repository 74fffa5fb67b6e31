import ast
import hashlib
import json
import pathlib
import random
import re
from fractions import Fraction
from functools import partial

import pytest

from weilmod import cli, linalg, metaplectic, theta
from weilmod.basefield import AdditiveCharacter, FqField, InputError
from weilmod.coeff import (CyclotomicRing, FieldIndices, FiniteField,
                           ReductionMap)
from weilmod.heisenberg import (LagrangianModel, Monomial, SchrodingerModel,
                                SympSpace, hom_space)
from weilmod.metaplectic import WeilContext
from weilmod.quadratic import QuadraticForm
from weilmod.theta import (CentralIdempotent, DualPair, ThetaLift,
                           _generators, char_inner, congruence_check,
                           enumerate_orthogonal, group_inverses,
                           labelled_characters, linear_pm_characters)

from conftest import mat_add, mat_scal, trace


def h1_op(pair, ctx, h):
    """Dense omega(h) for h in H1: the permutation of the Y-points."""
    n = len(ctx.counts.ypoints)
    return Monomial(pair.h1_perms[h], (ctx.one(),) * n).to_dense(ctx.zero())


def h2_op(pair, ctx, h):
    """Dense omega(h) for h in H2: sigma of its image in Sp(W)."""
    return metaplectic.sigma(ctx, pair.field.indices.lift(pair.embed_h2(h)))


def pair_op(pair, ctx, h1, h2):
    return linalg.mat_mul(h1_op(pair, ctx, h1), h2_op(pair, ctx, h2))


def index_mul(pair):
    """The product of H1 and H2, whose elements are raw-index matrices."""
    return partial(linalg.mat_mul, fld=pair.field.indices)


def product_group(pair):
    """(H1 x H2 element list, inverses): the group whose idempotent
    congruence_check reduced element by element before it checked the H2
    factor alone."""
    group = [(h1, h2) for h1 in pair.h1_list for h2 in pair.h2_list]
    inv1 = group_inverses(pair.h1_list, pair.field.indices)
    inv = {(a, b): (inv1[a], pair.h2_inverses[b]) for (a, b) in group}
    return group, inv


def convolve(a, b, mul):
    """The product in R[G] of two elements given as {g: coefficient}."""
    out = {}
    for g1, c1 in a.items():
        for g2, c2 in b.items():
            g = mul(g1, g2)
            t = c1 * c2
            out[g] = t if g not in out else out[g] + t
    return out


def test_enumerate_orthogonal_o1():
    f3 = FqField(3)
    v = QuadraticForm(f3, [[1]])
    o1 = enumerate_orthogonal(v)
    assert len(o1) == 2


def test_enumerate_orthogonal_hyperbolic_plane():
    f3 = FqField(3)
    v = QuadraticForm(f3, [[0, 1], [1, 0]])
    o2 = enumerate_orthogonal(v)
    assert len(o2) == 4  # split O_2(F_3) is dihedral of order 2(q-1) = 4


def test_dual_pair_commutes_and_caps():
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[1]]), 1)
    mul = index_mul(pair)
    for h1 in pair.h1_list:
        e1 = pair.embed_h1(h1)
        for h2 in pair.h2_list:
            e2 = pair.embed_h2(h2)
            assert mul(e1, e2) == mul(e2, e1)
    with pytest.raises(ValueError):
        DualPair(QuadraticForm(f3, [[1, 0], [0, 0]]), 1)
    with pytest.raises(InputError):
        DualPair(QuadraticForm(f3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 1)


def test_dual_pair_hyperbolic_in_sp4():
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[0, 1], [1, 0]]), 1)
    assert pair.m == 2
    mul = index_mul(pair)
    for h1 in pair.h1_list:
        e1 = pair.embed_h1(h1)
        assert SympSpace(f3.indices, pair.m).is_symplectic(e1)
        for h2 in pair.h2_list[:8]:
            e2 = pair.embed_h2(h2)
            assert mul(e1, e2) == mul(e2, e1)


def test_restricted_weil_is_homomorphism():
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[1]]), 1)
    ctx = WeilContext(pair.space, AdditiveCharacter(f3))
    rng = random.Random(3)
    for _ in range(30):
        h1a = pair.h1_list[rng.randrange(2)]
        h1b = pair.h1_list[rng.randrange(2)]
        h2a = pair.h2_list[rng.randrange(24)]
        h2b = pair.h2_list[rng.randrange(24)]
        lhs = linalg.mat_mul(pair_op(pair, ctx, h1a, h2a),
                             pair_op(pair, ctx, h1b, h2b))
        mul = index_mul(pair)
        rhs = pair_op(pair, ctx, mul(h1a, h1b), mul(h2a, h2b))
        assert lhs == rhs
    ident = pair_op(pair, ctx, _ident_of(pair.h1_list, f3.indices),
                    _ident_of(pair.h2_list, f3.indices))
    n = len(ctx.counts.ypoints)
    for i in range(n):
        for j in range(n):
            assert ident[i][j] == (ctx.one() if i == j else ctx.zero())


def _ident_of(group, fld):
    for g in group:
        if all(linalg.mat_mul(g, h, fld) == h for h in group[:3]):
            return g
    raise AssertionError("no identity found")


def test_minus_one_acts_as_parity():
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[1]]), 1)
    ctx = WeilContext(pair.space, AdditiveCharacter(f3))
    minus = [h for h in pair.h1_list
             if h != _ident_of(pair.h1_list, f3.indices)][0]
    op = h1_op(pair, ctx, minus)
    model = SchrodingerModel(ctx.space, ctx.psi)
    # op f(y) = f(-y): permutation matrix swapping 1 <-> 2 over F_3
    for i, co in enumerate(model._points):
        for j, co2 in enumerate(model._points):
            expect = ctx.one() if tuple(-x for x in co) == co2 \
                else ctx.zero()
            assert op[i][j] == expect


def test_theta_lift_refuses_context_on_another_space():
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[1]]), 1)
    chi = {h: 1 for h in pair.h1_list}
    # same field and dimension: the lift would read the wrong sigma images
    for space in (SympSpace(f3, pair.m), SympSpace(f3, pair.m + 1)):
        with pytest.raises(ValueError, match="pair.space"):
            ThetaLift(pair, WeilContext(space, AdditiveCharacter(f3)), chi)


def test_h1_perms_follow_the_schrodinger_point_order():
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[1, 0], [0, 1]]), 1)
    model = SchrodingerModel(pair.space, AdditiveCharacter(f3))
    for h, perm in pair.h1_perms.items():
        at = linalg.transpose(pair.space.blocks(
            f3.indices.lift(pair.embed_h1(h)))[0])
        for i, co in enumerate(model._points):
            assert perm[model._index[linalg.mat_vec(at, co, f3)]] == i


def test_theta_dims_and_irreducibility():
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[1]]), 1)
    ctx = WeilContext(pair.space, AdditiveCharacter(f3))
    chars = linear_pm_characters(pair.h1_list, index_mul(pair))
    assert len(chars) == 2
    inv2 = group_inverses(pair.h2_list, pair.field.indices)
    by_name = {}
    for chi in chars:
        lift = ThetaLift(pair, ctx, chi)
        name = "trivial" if all(v == 1 for v in chi.values()) else "sign"
        by_name[name] = lift
        ch = lift.character()
        assert char_inner(pair.h2_list, ch, ch, inv2) == \
            CyclotomicRing(3).one()
    assert by_name["trivial"].dim == 2
    assert by_name["sign"].dim == 1


DIFF_SPACES = {"diag:1": [[1]], "diag:1,2": [[1, 0], [0, 2]],
               "diag:1,1": [[1, 0], [0, 1]], "gram:0,1,1,0": [[0, 1], [1, 0]]}
DIFF_RINGS = {"Z[zeta_3]": lambda: CyclotomicRing(3),
              "F_4": lambda: FiniteField(2, 2), "F_7": lambda: FiniteField(7),
              "F_25": lambda: FiniteField(5, 2),
              "F_13": lambda: FiniteField(13)}


@pytest.mark.parametrize("ring", list(DIFF_RINGS))
@pytest.mark.parametrize("space", list(DIFF_SPACES))
def test_orbit_basis_matches_stacked_nullspace(space, ring):
    # reference: the kernel of the stacked (omega(h) - chi(h)), h in H1, and
    # the H2 traces through linalg.solve on its basis
    f3 = FqField(3)
    coeff = DIFF_RINGS[ring]()
    pair = DualPair(QuadraticForm(f3, DIFF_SPACES[space]), 1)
    ctx = WeilContext(pair.space, AdditiveCharacter(f3, coeff))
    ident = linalg.identity(coeff, len(ctx.counts.ypoints))
    for chi in linear_pm_characters(pair.h1_list, index_mul(pair)):
        stacked = []
        for h in pair.h1_list:
            stacked.extend(linalg.mat_sub(
                h1_op(pair, ctx, h), mat_scal(ctx.one() * chi[h], ident)))
        ns = linalg.nullspace(linalg.mat(stacked), coeff)
        lift = ThetaLift(pair, ctx, chi)
        assert lift.dim == len(ns)
        for v in lift_basis(lift)[0]:
            assert all(x == ctx.zero()
                       for x in linalg.mat_vec(stacked, v, coeff))
        got = lift.character()
        for h2 in pair.h2_list:
            m = h2_op(pair, ctx, h2)
            trace = ctx.zero()
            for i, v in enumerate(ns):
                sol = linalg.solve(linalg.transpose(ns), linalg.mat_vec(m, v, coeff),
                                   coeff)
                assert sol is not None
                trace = trace + sol[i]
            assert got[h2] == trace


def lift_basis(lift):
    """(basis, orbits) of a lift, from its split: per kept H1-orbit O, the
    dense signed orbit sum b_O over R, 1 on P and -1 on M, and the points
    of O in order."""
    one, zero = lift.ctx.one(), lift.ctx.zero()
    basis, orbits = [], []
    for plus, minus in lift._split:
        vec = [zero] * len(lift.ctx.counts.ypoints)
        for z in plus:
            vec[z] = one
        for z in minus:
            vec[z] = -one
        basis.append(tuple(vec))
        orbits.append(sorted(plus + minus))
    return tuple(basis), orbits


def act_reference(lift, h2):
    """Matrix of omega(h2) on the lift's basis (lift_basis) as ThetaLift.act
    built it before it read sigma's count form: the dense sigma(h2), each
    basis vector's image as a combination of its columns, and the span
    check on the recombined image."""
    ctx = lift.ctx
    if lift.dim == 0:
        return ()
    ring = ctx.psi.coeff_ring
    cols_of_m = linalg.transpose(h2_op(lift.pair, ctx, h2))
    basis, orbits = lift_basis(lift)
    basis_cols = linalg.transpose(basis)
    cols = []
    for v, orbit in zip(basis, orbits):
        img = linalg.mat_vec(linalg.transpose([cols_of_m[z] for z in orbit]),
                             [v[z] for z in orbit], ring)
        coords = tuple(img[o[0]] for o in orbits)
        assert linalg.mat_vec(basis_cols, coords, ring) == img
        cols.append(coords)
    return linalg.transpose(cols)


def _diff_lifts(space, ring):
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, DIFF_SPACES[space]), 1)
    ctx = WeilContext(pair.space, AdditiveCharacter(f3, DIFF_RINGS[ring]()))
    return pair, [ThetaLift(pair, ctx, chi) for chi in
                  linear_pm_characters(pair.h1_list, index_mul(pair))]


# sha256 prefixes of repr([(label, orbits, [[str(x) for x in b] for b in
# basis]) per pair.characters entry]), as ThetaLift kept its dense basis
# and orbits before it kept only the split
LIFT_BASIS_DIGESTS = {
    ("diag:1", "Z[zeta_3]"): "684a56d2c41aac89",
    ("diag:1", "F_7"): "2b101395db886042",
    ("diag:1", "F_4"): "0f1440e34dd39233",
    ("diag:1,2", "Z[zeta_3]"): "c1f3468e21861734",
    ("diag:1,2", "F_7"): "b99e402a6668e9da",
    ("diag:1,2", "F_4"): "e286f0508abe8199",
    ("diag:1,1", "Z[zeta_3]"): "afe18119dbd2c53a",
    ("diag:1,1", "F_7"): "b232304cb94922d1",
    ("diag:1,1", "F_4"): "6c4263843dec633e",
}


@pytest.mark.parametrize("space,ring", list(LIFT_BASIS_DIGESTS))
def test_lift_basis_from_the_split_is_the_dense_one(space, ring):
    # the basis and orbits rebuilt from the split are those ThetaLift
    # built densely; over F_4 (l = 2) every lift keeps every orbit
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, DIFF_SPACES[space]), 1)
    ctx = WeilContext(pair.space, AdditiveCharacter(f3, DIFF_RINGS[ring]()))
    out = []
    for label, chi in pair.characters:
        lift = ThetaLift(pair, ctx, chi)
        assert not hasattr(lift, "basis") and not hasattr(lift, "orbits")
        basis, orbits = lift_basis(lift)
        assert len(basis) == lift.dim
        if ring == "F_4":
            assert sorted(z for o in orbits for z in o) == \
                list(range(len(ctx.counts.ypoints)))
        out.append((label, orbits, [[str(x) for x in b] for b in basis]))
    digest = hashlib.sha256(repr(out).encode()).hexdigest()[:16]
    assert digest == LIFT_BASIS_DIGESTS[space, ring]


@pytest.mark.parametrize("ring", list(DIFF_RINGS))
@pytest.mark.parametrize("space", list(DIFF_SPACES))
def test_act_matches_reference(space, ring):
    # F_4 is characteristic 2, where every orbit sum is unsigned
    pair, lifts = _diff_lifts(space, ring)
    for lift in lifts:
        for h2 in pair.h2_list:
            assert lift.act(h2) == act_reference(lift, h2)


@pytest.mark.parametrize("ring", list(DIFF_RINGS))
@pytest.mark.parametrize("space", list(DIFF_SPACES))
def test_commutant_on_generators(space, ring):
    # T commutes with omega(H2) exactly when it commutes with omega of each
    # generator, so both commutants have the same dimension
    pair, lifts = _diff_lifts(space, ring)
    gens = _generators(pair.h2_list, index_mul(pair))[1]
    assert len(gens) == 2
    coeff = lifts[0].ctx.psi.coeff_ring
    for lift in (x for x in lifts if x.dim):
        full = [lift.act(g) for g in pair.h2_list]
        on_gens = [lift.act(g) for g in gens]
        assert len(hom_space(on_gens, on_gens, lift.dim, lift.dim, coeff)) \
            == len(hom_space(full, full, lift.dim, lift.dim, coeff))


@pytest.mark.parametrize("ring", list(DIFF_RINGS))
@pytest.mark.parametrize("space", list(DIFF_SPACES))
def test_character_is_the_trace_of_act(space, ring):
    # the character read off the diagonal of the counts is the trace of
    # the dense action, for every lift, those of dimension 0 included
    # (diag:1,1 has one over each ring but F_4)
    pair, lifts = _diff_lifts(space, ring)
    zero = lifts[0].ctx.zero()
    for lift in lifts:
        assert lift.character() == {
            h: trace(lift.act(h)) if lift.dim else zero
            for h in pair.h2_list}


@pytest.mark.parametrize("ell,d", [(5, 2), (11, 2), (7, 1), (13, 1)])
@pytest.mark.parametrize("space", list(DIFF_SPACES))
def test_commutant_on_the_index_view(space, ell, d):
    # hom_space on F_{l^d}'s index view, with the generators' operators
    # lowered, gives the basis it gives on FFElts, lowered
    f3, ffl = FqField(3), FiniteField(ell, d)
    pair = DualPair(QuadraticForm(f3, DIFF_SPACES[space]), 1)
    ctx = WeilContext(pair.space, AdditiveCharacter(f3, ffl))
    ix = ffl.indices
    for _, chi in pair.characters:
        lift = ThetaLift(pair, ctx, chi)
        ops = [lift.act(g) for g in pair.h2_generators]
        low = [ix.lower(a) for a in ops]
        on_ix = hom_space(low, low, lift.dim, lift.dim, ix)
        on_ff = hom_space(ops, ops, lift.dim, lift.dim, ffl)
        assert len(on_ix) == len(on_ff) >= (1 if lift.dim else 0)
        assert [ix.lift(t) for t in on_ix] == list(on_ff)


def test_dual_pair_generators_generate_h2():
    # the generators DualPair keeps are _generators' and close up to H2
    for gram in DIFF_SPACES.values():
        pair = DualPair(QuadraticForm(FqField(3), gram), 1)
        mul = index_mul(pair)
        gens = pair.h2_generators
        assert gens == _generators(pair.h2_list, mul)[1]
        closure = {_ident_of(pair.h2_list, pair.field.indices)}
        while True:
            new = closure | {mul(a, s) for a in closure for s in gens}
            if new == closure:
                break
            closure = new
        assert closure == set(pair.h2_list)


@pytest.mark.parametrize("which", [0, -1])
def test_dual_pair_refuses_a_generator_that_fails_to_commute(monkeypatch,
                                                            which):
    # one generator's image composed with the symplectic Levi element
    # diag(A, A^-T), A = [[1, 1], [0, 1]], which no longer commutes with
    # the image of the swap in O(x^2 + y^2): the check over the generators
    # refuses the pair
    f3 = FqField(3)
    form = QuadraticForm(f3, [[1, 0], [0, 1]])
    ix = f3.indices
    gens = DualPair(form, 1).h2_generators
    target = gens[which]
    levi = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 2, 1))
    real = DualPair.embed_h2

    def broken(pair, h):
        g = real(pair, h)
        return linalg.mat_mul(g, levi, ix) if h == target else g
    monkeypatch.setattr(DualPair, "embed_h2", broken)
    with pytest.raises(RuntimeError, match="fail to commute"):
        DualPair(form, 1)


def test_congruence_check_makes_no_dense_sigma(monkeypatch):
    # the lifts act through sigma's count form, and the char-l commutant
    # sees one operator per generator of H2
    def refuse(*_args, **_kw):
        raise AssertionError("congruence_check built a dense sigma")
    seen = []
    real = theta.hom_space

    def counted(ops1, ops2, dim1, dim2, ring):
        seen.append(len(ops1))
        return real(ops1, ops2, dim1, dim2, ring)
    monkeypatch.setattr(metaplectic, "sigma", refuse)
    monkeypatch.setattr(theta, "hom_space", counted)
    f3 = FqField(3)
    for diag in ([[1]], [[1, 0], [0, 1]]):
        seen.clear()
        rep = congruence_check(QuadraticForm(f3, diag), 1, 7)
        pair = DualPair(QuadraticForm(f3, diag), 1)
        gens = _generators(pair.h2_list, index_mul(pair))[1]
        assert seen == [len(gens)] * sum(1 for r in rep["lifts"] if r["dim"])


def test_congruence_check_builds_counts_once_for_both_rings(monkeypatch):
    # both WeilContexts sit on pair.space with psi's standard exponent
    # table, so they share one count model: one x_data call (one count
    # build) per H2 image, not one per image and ring
    seen = []
    real = metaplectic.x_data

    def counted(space, g):  # the count build's key, on raw indices
        seen.append(g)
        return real(space, g)
    monkeypatch.setattr(metaplectic, "x_data", counted)
    f3 = FqField(3)
    for diag in ([[1]], [[1, 0], [0, 1]]):
        seen.clear()
        congruence_check(QuadraticForm(f3, diag), 1, 7)
        pair = DualPair(QuadraticForm(f3, diag), 1)
        assert len(seen) == len(set(seen)) == len(pair.h2_list)
        assert set(seen) == set(pair.h2_images.values())


def test_congruence_check_reuses_counts_across_calls(monkeypatch):
    # the count model is keyed by (field, m, twist), so a second check of
    # the same form with another l builds no sigma counts; the first one
    # builds through the counted x_data
    seen = []
    real = metaplectic.x_data

    def counted(space, g):
        seen.append(g)
        return real(space, g)
    monkeypatch.setattr(metaplectic, "x_data", counted)
    f3 = FqField(3)
    form = QuadraticForm(f3, [[1, 0], [0, 2]])
    first = congruence_check(form, 1, 5)
    assert len(seen) == len(DualPair(form, 1).h2_list) > 0
    seen.clear()
    again = congruence_check(QuadraticForm(f3, [[1, 0], [0, 2]]), 1, 13)
    assert seen == []
    assert [lift["dim"] for lift in again["lifts"]] == \
        [lift["dim"] for lift in first["lifts"]]


def test_twelve_reports_build_counts_once(monkeypatch):
    # the 12 reports of diag:1, diag:1,2 and diag:1,1 over F_3 at l = 5,
    # 7, 11 and 13 make 70 count builds (one x_data call each) in their
    # first round and none in the second
    seen = []
    real = metaplectic.x_data

    def counted(space, g):
        seen.append(g)
        return real(space, g)
    monkeypatch.setattr(metaplectic, "x_data", counted)
    f3 = FqField(3)
    builds = []
    for _ in range(2):
        seen.clear()
        for diag in ((1,), (1, 2), (1, 1)):
            gram = [[diag[i] if i == j else 0 for j in range(len(diag))]
                    for i in range(len(diag))]
            for ell in (5, 7, 11, 13):
                congruence_check(QuadraticForm(f3, gram), 1, ell)
        builds.append(len(seen))
    assert builds == [70, 0]


def test_zero_side_is_built_once_per_form(monkeypatch):
    # over the four l of one form, the WeilContext over Z[zeta_3] and its
    # lifts are built once, while each l builds its own context and lifts
    contexts, lifts = [], []
    real_ctx, real_lift = WeilContext.__init__, ThetaLift.__init__

    def ctx_init(ctx, space, psi):
        contexts.append(isinstance(psi.coeff_ring, CyclotomicRing))
        real_ctx(ctx, space, psi)

    def lift_init(lift, pair, ctx, chi1):
        lifts.append(isinstance(ctx.psi.coeff_ring, CyclotomicRing))
        real_lift(lift, pair, ctx, chi1)
    monkeypatch.setattr(WeilContext, "__init__", ctx_init)
    monkeypatch.setattr(ThetaLift, "__init__", lift_init)
    form = QuadraticForm(FqField(3), [[1, 0], [0, 2]])
    for ell in (5, 7, 11, 13):
        congruence_check(form, 1, ell)
    chars = len(theta.dual_pair(form, 1).characters)
    assert sorted(contexts) == [False] * 4 + [True]
    assert sorted(lifts) == [False] * (4 * chars) + [True] * chars


@pytest.mark.parametrize("name", ["mu", "phi"])
@pytest.mark.parametrize("diag,ell,again", [([1], 5, 7), ([1, 2], 13, 5),
                                            ([1, 1], 7, 13)])
def test_kept_zero_side_hides_no_l_side_corruption(monkeypatch, name, diag,
                                                   ell, again):
    # a clean check keeps the form's characteristic-zero side; at another
    # l, one mu_l value or one phi_l image off by one is still caught,
    # since each check compares its own l-side values with the reductions
    assert congruence_check(diag_form(diag), 1, ell)["idempotent_reduction"]
    h2 = theta.dual_pair(diag_form(diag), 1).h2_list[3]
    trivial_lift = theta.zero_side(diag_form(diag), 1)[1][0][0]
    key, cols = trivial_lift.act_counts(h2)
    target = key if name == "mu" else cols[0][0]
    _corrupt_l_side(monkeypatch, name,
                    lambda a, y: y + y.field.one() if a == target else y)
    with pytest.raises(RuntimeError, match="does not reduce entrywise"):
        congruence_check(diag_form(diag), 1, again)


@pytest.mark.parametrize("diag,ell", [([1], 7), ([1], 11), ([1, 2], 5),
                                      ([1, 2], 13), ([1, 1], 7),
                                      ([1, 1], 13)])
def test_congruence_check_catches_wrong_root(monkeypatch, diag, ell):
    # a mutant whose characteristic-l psi is twisted by 2 (zeta_p -> its
    # inverse) has the same theta dimensions, but its lifts are not the
    # reductions of the characteristic-zero ones
    real = theta.AdditiveCharacter

    def mutant(field, ring):
        return real(field, ring, 2 if isinstance(ring, FiniteField) else 1)
    monkeypatch.setattr(theta, "AdditiveCharacter", mutant)
    n = len(diag)
    gram = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    with pytest.raises(RuntimeError, match="does not reduce entrywise"):
        congruence_check(QuadraticForm(FqField(3), gram), 1, ell)


# the twelve reports of the theta-congruence benchmark: three forms over
# F_3, each with four banal l
REPORTS = [(diag, ell) for diag in ([1], [1, 2], [1, 1])
           for ell in (5, 7, 11, 13)]


def diag_form(diag):
    n = len(diag)
    return QuadraticForm(FqField(3), [[diag[i] if i == j else 0
                                       for j in range(n)] for i in range(n)])


def test_congruence_check_restricts_once_per_lift_and_h2(monkeypatch):
    # each check asks restrict once per (lift, h) over F_{l^d}, and the
    # first check of a form once more per (lift, h) over Z[zeta_3]: the
    # characters, the reduction loop and the l-commutant's operators all
    # read what each lift kept.  The twelve reports make 1,200 calls in
    # their first round and 960 in each round after
    calls = []
    real = metaplectic.CountModel.restrict

    def counted(model, g, signed):
        calls.append(g)
        return real(model, g, signed)
    monkeypatch.setattr(metaplectic.CountModel, "restrict", counted)
    rounds = []
    for rnd in range(2):
        total = 0
        for diag, ell in REPORTS:
            calls.clear()
            congruence_check(diag_form(diag), 1, ell)
            pair = theta.dual_pair(diag_form(diag), 1)
            per_side = len(pair.characters) * len(pair.h2_list)
            first = rnd == 0 and ell == 5
            assert len(calls) == per_side * (2 if first else 1)
            total += len(calls)
        rounds.append(total)
    assert rounds == [1200, 960]


def test_twelve_reports_build_no_schrodinger_model(monkeypatch):
    # sigma's contexts take the Y-points from the count model and the
    # theta lifts from the pair's permutations: a cold round of the twelve
    # reports builds no LagrangianModel (15 when each context built one)
    built = []
    real = LagrangianModel.__init__

    def counted(model, *args):
        built.append(type(model).__name__)
        real(model, *args)
    monkeypatch.setattr(LagrangianModel, "__init__", counted)
    for diag, ell in REPORTS:
        congruence_check(diag_form(diag), 1, ell)
    assert built == []


def reduces_entrywise(v_form, ell, twist=1):
    """The check congruence_check made before it read sigma's counts:
    red(act_0(h)) = act_l(h) entry by entry, for every lift and h in H2,
    with the characteristic-l psi twisted by `twist`."""
    f3 = v_form.field
    pair = DualPair(v_form, 1)
    ring0 = CyclotomicRing(3)
    d = 1
    while (ell ** d - 1) % 3:
        d += 1
    ffl = FiniteField(ell, d)
    red = ReductionMap(ring0, ffl)
    ctx0 = WeilContext(pair.space, AdditiveCharacter(f3, ring0))
    ctxl = WeilContext(pair.space, AdditiveCharacter(f3, ffl, twist))
    for _, chi in pair.characters:
        lift0, liftl = ThetaLift(pair, ctx0, chi), ThetaLift(pair, ctxl, chi)
        for g in pair.h2_list:
            if any(red(x) != y for r0, rl in zip(lift0.act(g), liftl.act(g))
                   for x, y in zip(r0, rl)):
                return False
    return True


@pytest.mark.parametrize("diag,ell", REPORTS)
def test_count_check_agrees_with_entrywise_reference(monkeypatch, diag, ell):
    # the check on keys and distinct entries passes exactly where the
    # entry-by-entry reference does: on the report itself, and not on the
    # wrong-root mutant, whose l-side psi is twisted by 2
    assert reduces_entrywise(diag_form(diag), ell)
    assert congruence_check(diag_form(diag), 1, ell)["idempotent_reduction"]
    assert not reduces_entrywise(diag_form(diag), ell, twist=2)
    real = theta.AdditiveCharacter

    def mutant(field, ring):
        return real(field, ring, 2 if isinstance(ring, FiniteField) else 1)
    monkeypatch.setattr(theta, "AdditiveCharacter", mutant)
    with pytest.raises(RuntimeError, match="does not reduce entrywise"):
        congruence_check(diag_form(diag), 1, ell)


def _corrupt_l_side(monkeypatch, name, bad):
    """WeilContext.<name> on characteristic-l contexts made to answer
    bad(arg, value) for the argument it is given."""
    real = getattr(WeilContext, name)

    def corrupted(ctx, arg):
        y = real(ctx, arg)
        if isinstance(ctx.psi.coeff_ring, FiniteField):
            return bad(arg, y)
        return y
    monkeypatch.setattr(WeilContext, name, corrupted)


@pytest.mark.parametrize("diag,ell", [([1], 7), ([1, 2], 5), ([1, 1], 13)])
def test_count_check_catches_one_wrong_mu(monkeypatch, diag, ell):
    # one mu_l value off by one: every act_l(h) of that key is wrong, and
    # only red(mu_0(key)) = mu_l(key) sees it
    pair = theta.dual_pair(diag_form(diag), 1)
    ctx = WeilContext(pair.space, AdditiveCharacter(FqField(3)))
    key = ctx.counts.entry(pair.h2_images[pair.h2_list[1]])[0]
    assert reduces_entrywise(diag_form(diag), ell)
    _corrupt_l_side(monkeypatch, "mu",
                    lambda k, y: y + y.field.one() if k == key else y)
    assert not reduces_entrywise(diag_form(diag), ell)
    with pytest.raises(RuntimeError, match="does not reduce entrywise"):
        congruence_check(diag_form(diag), 1, ell)


@pytest.mark.parametrize("diag,ell", [([1], 7), ([1, 2], 5), ([1, 1], 13)])
def test_count_check_catches_one_wrong_phi(monkeypatch, diag, ell):
    # one packed entry of the trivial lift's counts with its phi_l image
    # off by one: only red(phi_0(c)) = phi_l(c) sees it
    pair = theta.dual_pair(diag_form(diag), 1)
    ctx = WeilContext(pair.space, AdditiveCharacter(FqField(3)))
    lift = ThetaLift(pair, ctx, pair.characters[0][1])
    target = lift.act_counts(pair.h2_list[3])[1][0][0]
    assert reduces_entrywise(diag_form(diag), ell)
    _corrupt_l_side(monkeypatch, "phi",
                    lambda c, y: y + y.field.one() if c == target else y)
    assert not reduces_entrywise(diag_form(diag), ell)
    with pytest.raises(RuntimeError, match="does not reduce entrywise"):
        congruence_check(diag_form(diag), 1, ell)


def test_count_check_reduces_each_key_and_entry_once(monkeypatch):
    # red runs once per (j, x class) key and once per distinct packed
    # entry of the lifts' counts, besides once per element of H2 for the
    # idempotent's H2 factor: never once per matrix entry, nor once per
    # element of H1 x H2.  One round of the twelve reports makes 584 calls
    calls = []
    total = 0
    real = ReductionMap.__call__

    def counted(red, x):
        calls.append(x)
        return real(red, x)
    monkeypatch.setattr(ReductionMap, "__call__", counted)
    for diag, ell in REPORTS:
        calls.clear()
        congruence_check(diag_form(diag), 1, ell)
        total += len(calls)
        pair = theta.dual_pair(diag_form(diag), 1)
        ctx = WeilContext(pair.space, AdditiveCharacter(FqField(3)))
        forms = [ThetaLift(pair, ctx, chi).act_counts(g)
                 for _, chi in pair.characters for g in pair.h2_list]
        keys = {key for key, _ in forms}
        entries = {x for _, cols in forms for col in cols for x in col}
        assert len(calls) == len(keys) + len(entries) + len(pair.h2_list)
        matrix_entries = sum(len(cols) ** 2 for _, cols in forms)
        assert len(keys) + len(entries) < matrix_entries
    assert total == 584


def idempotent_reduces_fully(v_form, ell):
    """The idempotent check congruence_check made before it checked the H2
    factor alone: red(e_Pi) = e_pi coefficient by coefficient over every
    element of H1 x H2 (product_group), Pi = chi x Theta(chi) for the
    trivial chi, with both sides' characters from ThetaLift.character."""
    pair = DualPair(v_form, 1)
    ring0 = CyclotomicRing(3)
    d = 1
    while (ell ** d - 1) % 3:
        d += 1
    ffl = FiniteField(ell, d)
    red = ReductionMap(ring0, ffl)
    (label, chi), = [c for c in pair.characters if c[0] == "trivial"]
    group, inv = product_group(pair)
    es = []
    for ring in (ring0, ffl):
        ctx = WeilContext(pair.space, AdditiveCharacter(v_form.field, ring))
        lift = ThetaLift(pair, ctx, chi)
        ch = lift.character()
        es.append(CentralIdempotent(
            group, inv, {(a, b): ch[b] * chi[a] for a, b in group},
            lift.dim, ring).coeffs)
    return all(red(es[0][g]) == es[1][g] for g in group)


@pytest.mark.parametrize("diag,ell", REPORTS)
def test_factored_idempotent_agrees_with_the_product_group(monkeypatch, diag,
                                                          ell):
    # the check on e_Pi's H2 factor passes exactly where the reduction over
    # all of H1 x H2 does: on the report, and not once the
    # characteristic-l character of one element b of H2 is off by one
    assert idempotent_reduces_fully(diag_form(diag), ell)
    assert congruence_check(diag_form(diag), 1, ell)["idempotent_reduction"]
    real = ThetaLift.character
    b = theta.dual_pair(diag_form(diag), 1).h2_list[5]

    def corrupted(lift):
        ch = real(lift)
        if isinstance(lift.ctx.psi.coeff_ring, FiniteField):
            ch[b] = ch[b] + lift.ctx.one()
        return ch
    monkeypatch.setattr(ThetaLift, "character", corrupted)
    assert not idempotent_reduces_fully(diag_form(diag), ell)
    with pytest.raises(RuntimeError, match="idempotent reduction mismatch"):
        congruence_check(diag_form(diag), 1, ell)


def test_restrict_transposes_each_image_once(monkeypatch):
    # restrict unpacks N's rows into columns once per cached entry: once
    # per H2 image in the first round of the twelve reports, for both
    # rings and every l, and never in the second
    unpacked = []
    real = metaplectic.CountModel.unpack

    def counted(model, row):
        unpacked.append(row)
        return real(model, row)
    monkeypatch.setattr(metaplectic.CountModel, "unpack", counted)
    images = set()
    for diag, ell in REPORTS:
        congruence_check(diag_form(diag), 1, ell)
        pair = theta.dual_pair(diag_form(diag), 1)
        images |= {(pair.m, g) for g in pair.h2_images.values()}
    rows = sum(3 ** m for m, _ in images)
    assert len(unpacked) == rows
    unpacked.clear()
    for diag, ell in REPORTS:
        congruence_check(diag_form(diag), 1, ell)
    assert unpacked == []


def test_restricted_counts_stay_within_the_cache(monkeypatch):
    # with room for 5 count entries per model, the columns and outputs
    # that restrict keeps go with the entries, each entry holds at most
    # one output per orbit split of the pairs met, and the twelve reports
    # are the same as with the default room
    want = [json.dumps(congruence_check(diag_form(diag), 1, ell),
                       sort_keys=True) for diag, ell in REPORTS]
    monkeypatch.setattr(metaplectic, "_COUNT_MODELS", {})
    monkeypatch.setattr(theta, "_DUAL_PAIRS", {})
    monkeypatch.setattr(theta, "_ZERO_SIDES", {})
    monkeypatch.setattr(metaplectic, "SIGMA_CACHE_SIZE", 5)
    got = []
    for diag, ell in REPORTS:
        got.append(json.dumps(congruence_check(diag_form(diag), 1, ell),
                              sort_keys=True))
        splits = sum(len(pair.characters)
                     for pair in theta._DUAL_PAIRS.values())
        for model in metaplectic._COUNT_MODELS.values():
            assert len(model.cache) <= 5
            assert set(model._restricted) <= set(model.cache)
            for g, (rows, cols, outs) in model._restricted.items():
                assert rows is model.cache[g][1]
                assert len(cols) == len(rows)
                assert len(outs) <= splits
    assert got == want


def test_one_dual_pair_per_form(monkeypatch):
    # two checks of one form enumerate O(V) once, and a check and a CLI
    # query on a second form once more
    built = []
    real = theta.enumerate_orthogonal

    def counted(q_form):
        built.append(q_form.gram)
        return real(q_form)
    monkeypatch.setattr(theta, "enumerate_orthogonal", counted)
    congruence_check(diag_form([1, 2]), 1, 5)
    congruence_check(diag_form([1, 2]), 1, 7)
    assert len(built) == 1
    congruence_check(diag_form([1]), 1, 7)
    assert cli.main(["theta", "--field", "fq:3:1", "--V", "diag:1",
                     "--mprime", "1", "--coeff", "fl:7:1"]) == 0
    assert len(built) == 2


def test_only_dual_pair_builds_a_pair():
    # congruence_check, the theta command and selfcheck all take their
    # pair from theta.dual_pair: no other place in the package builds one
    found = []
    for path in sorted(pathlib.Path(theta.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(n) for f in ast.walk(tree)
                   if isinstance(f, ast.FunctionDef) and f.name == "dual_pair"
                   for n in ast.walk(f)}
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed
                  and getattr(node.func, "id",
                              getattr(node.func, "attr", None)) == "DualPair"]
    assert found == []


def test_h2_stability_failure_names_h2():
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[1]]), 1)
    ctx = WeilContext(pair.space, AdditiveCharacter(f3))
    lift = ThetaLift(pair, ctx, {h: 1 for h in pair.h1_list})
    # keep only the orbit {0}: sigma(w) spreads e_0 over every point; H2's
    # elements are raw-index matrices, so w = [[0, 1], [-1, 0]] is
    # ((0, 1), (2, 0))
    lift._split, lift.dim = lift._split[:1], 1
    w = ((0, 1), (2, 0))
    with pytest.raises(RuntimeError, match=r"not H2-stable under "
                       r"h2 = \(\(0, 1\), \(2, 0\)\)"):
        lift.act(w)
    # character() raises the same error, at the first h2 in list order
    # whose counts leave the span
    first = next(h for h in pair.h2_list if lift.act_counts(h)[1] is None)
    with pytest.raises(RuntimeError, match=r"not H2-stable under h2 = " +
                       re.escape(str(first))):
        lift.character()


def test_h2_stability_is_checked_on_the_counts():
    # one slot of one cached count row corrupted: N[2][0] gains 1 at slot
    # 0, so sigma(g) e_0 no longer agrees at the points 1 and 2 of the
    # trivial lift's orbit {1, 2}.  The contexts over Z[zeta_3] and F_7
    # share the counts, and each refuses the span before any phi
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[1]]), 1)
    h2 = pair.h2_list[5]
    g = pair.h2_images[h2]

    def refuse(c):
        raise AssertionError("phi ran before the stability check")
    lifts = []
    for ring in (CyclotomicRing(3), FiniteField(7)):
        ctx = WeilContext(pair.space, AdditiveCharacter(f3, ring))
        ctx._phi = refuse
        lifts.append(ThetaLift(pair, ctx, {h: 1 for h in pair.h1_list}))
    model = lifts[0].ctx.counts
    assert lifts[1].ctx.counts is model
    assert lift_basis(lifts[0])[1] == [[0], [1, 2]]
    key, rows = model.entry(g)
    model.cache[g] = (key, rows[:2] + (rows[2] + 1,) + rows[3:])
    for lift in lifts:
        with pytest.raises(RuntimeError, match=r"not H2-stable under h2 = " +
                           re.escape(str(h2))):
            lift.act(h2)


def test_restrict_rereads_a_replaced_entry():
    # restrict's kept columns belong to the cached rows they came from: the
    # same corruption as above, made after a lift has acted once, is still
    # refused to the next lift that asks restrict for that split (a lift
    # keeps the answer it was given, one per h2)
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[1]]), 1)
    h2 = pair.h2_list[5]
    g = pair.h2_images[h2]
    ctx = WeilContext(pair.space, AdditiveCharacter(f3))
    trivial = {h: 1 for h in pair.h1_list}
    lift = ThetaLift(pair, ctx, trivial)
    kept = lift.act_counts(h2)
    assert kept[1] is not None
    lift.act(h2)
    key, rows = ctx.counts.entry(g)
    ctx.counts.cache[g] = (key, rows[:2] + (rows[2] + 1,) + rows[3:])
    assert lift.act_counts(h2) is kept
    again = ThetaLift(pair, ctx, trivial)
    assert again.act_counts(h2) == (key, None)
    with pytest.raises(RuntimeError, match="not H2-stable"):
        again.act(h2)


def test_congruence_check_lowers_nothing(monkeypatch):
    # H1, H2 and the images of H2 are raw-index matrices from the start:
    # no base-field matrix is converted between FFElts and raw indices but
    # the form's own data (its diagonal values, basis and Gram matrix), once
    # per pair.  Over F_{l^d}, only the operators of H2's generators are
    # lowered, once per lift of positive dimension, for the commutant
    lowered, lowered_l = [], []
    real = FieldIndices.lower

    def recorded(self, a):
        (lowered if self.field is f3 else lowered_l).append(a)
        return real(self, a)

    def refuse(self, a):
        raise AssertionError("congruence_check converted %s" % (a,))
    monkeypatch.setattr(FieldIndices, "lower", recorded)
    monkeypatch.setattr(FieldIndices, "lift", refuse)
    f3 = FqField(3)
    for diag in ([[1]], [[1, 0], [0, 1]], [[1, 0], [0, 2]]):
        form = QuadraticForm(f3, diag)
        lowered.clear()
        lowered_l.clear()
        rep = congruence_check(form, 1, 7)
        assert rep["idempotent_reduction"] is True
        vecs, vals = form.diagonalize()
        assert lowered == [[vals], vecs, form.gram]
        gens = theta.dual_pair(form, 1).h2_generators
        assert len(lowered_l) == len(gens) * sum(
            1 for r in rep["lifts"] if r["dim"])


def test_theta_action_is_representation():
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[1]]), 1)
    ctx = WeilContext(pair.space, AdditiveCharacter(f3))
    chi = linear_pm_characters(pair.h1_list, index_mul(pair))[0]
    lift = ThetaLift(pair, ctx, chi)
    rng = random.Random(7)
    for _ in range(25):
        a = pair.h2_list[rng.randrange(24)]
        b = pair.h2_list[rng.randrange(24)]
        assert linalg.mat_mul(lift.act(a), lift.act(b)) == \
            lift.act(index_mul(pair)(a, b))


def test_dimension_bookkeeping():
    # dim omega = sum over irreducibles of H1 of dim pi1 * dim Theta(pi1)
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[1]]), 1)
    ctx = WeilContext(pair.space, AdditiveCharacter(f3))
    total = 0
    for chi in linear_pm_characters(pair.h1_list, index_mul(pair)):
        total += 1 * ThetaLift(pair, ctx, chi).dim
    assert total == len(ctx.counts.ypoints) == 3


def test_isotypic_characters_factor():
    # character of e_{pi1} omega equals chi_{pi1} x chi_{Theta(pi1)}
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[1]]), 1)
    ctx = WeilContext(pair.space, AdditiveCharacter(f3))
    chars = linear_pm_characters(pair.h1_list, index_mul(pair))
    for chi in chars:
        lift = ThetaLift(pair, ctx, chi)
        ch2 = lift.character()
        # isotypic projector P = (1/|H1|) sum chi(h)^{-1} h
        for h2 in pair.h2_list[:6]:
            for h1 in pair.h1_list:
                m = pair_op(pair, ctx, h1, h2)
                acc = None
                for h in pair.h1_list:
                    t = mat_scal(
                        ctx.one() * Fraction(chi[h], len(pair.h1_list)),
                        linalg.mat_mul(h1_op(pair, ctx, h), m))
                    acc = t if acc is None else mat_add(acc, t)
                got = trace(acc)
                assert got == ch2[h2] * chi[h1]


def test_central_idempotent_properties():
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[1]]), 1)
    mul = index_mul(pair)
    group = pair.h1_list
    ring = CyclotomicRing(3)
    chars = linear_pm_characters(group, mul)
    inv = group_inverses(group, pair.field.indices)
    es = [CentralIdempotent(group, inv, chi, 1, ring) for chi in chars]
    for e in es:
        # idempotent and central
        assert convolve(e.coeffs, e.coeffs, mul) == e.coeffs
        assert all(e.coeffs[mul(mul(h, g), inv[h])] == e.coeffs[g]
                   for g in group for h in group)
    # orthogonality and completeness
    zero_sum = convolve(es[0].coeffs, es[1].coeffs, mul)
    assert all(v.is_zero() for v in zero_sum.values())
    total = {g: es[0].coeffs[g] + es[1].coeffs[g] for g in group}
    ident = _ident_of(group, pair.field.indices)
    for g, v in total.items():
        assert v == (ring.one() if g == ident else ring.zero())


def test_trivial_idempotent_formula():
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[1]]), 1)
    group = pair.h1_list
    ring = CyclotomicRing(3)
    chi = {g: 1 for g in group}
    inv = group_inverses(group, pair.field.indices)
    e = CentralIdempotent(group, inv, chi, 1, ring)
    for g in group:
        assert e.coeffs[g] == ring.from_fraction(Fraction(1, len(group)))


@pytest.mark.parametrize("diag", [[1, 1], [1, 2]])
def test_group_inverse_tables(diag):
    f3 = FqField(3)
    n = len(diag)
    gram = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    pair = DualPair(QuadraticForm(f3, gram), 1)
    ix = pair.field.indices
    for lst in (pair.h1_list, pair.h2_list):
        inv = group_inverses(lst, ix)
        ident = linalg.identity(ix, len(lst[0]))
        assert all(linalg.mat_mul(g, inv[g], ix) == ident for g in lst)
    group, inv = product_group(pair)
    ident = (linalg.identity(ix, n), linalg.identity(ix, 2))
    assert len(inv) == len(group)
    mul = index_mul(pair)
    assert all((mul(a, inv[(a, b)][0]), mul(b, inv[(a, b)][1])) == ident
               for a, b in group)


@pytest.mark.parametrize("diag", [[1], [1, 1], [1, 2]])
def test_pair_character_table_follows_the_reference(diag):
    # the pair's labelled characters and H2 inverse table equal the
    # expressions the CLI, congruence_check and selfcheck each spelled out
    f3 = FqField(3)
    n = len(diag)
    gram = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    pair = DualPair(QuadraticForm(f3, gram), 1)
    ref = labelled_characters(linear_pm_characters(pair.h1_list,
                                                   index_mul(pair)))
    assert pair.characters == ref
    assert [label for label, _ in ref][0] == "trivial"
    assert pair.h2_inverses == group_inverses(pair.h2_list,
                                              pair.field.indices)


def test_non_banal_refused():
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[1]]), 1)
    group = pair.h1_list
    ffl2 = FiniteField(2, 2)
    chi = {g: 1 for g in group}
    with pytest.raises(ValueError):
        CentralIdempotent(group, group_inverses(group, pair.field.indices),
                          chi, 1, ffl2)
    with pytest.raises(ValueError, match=r"l = 2 divides \|H1 x H2\| = 48"):
        congruence_check(QuadraticForm(f3, [[1]]), 1, 2)
    with pytest.raises(ValueError, match=r"l = 3 divides \|H1 x H2\| = 48"):
        congruence_check(QuadraticForm(f3, [[1]]), 1, 3)


def test_congruence_check_l7():
    f3 = FqField(3)
    rep = congruence_check(QuadraticForm(f3, [[1]]), 1, 7)
    assert rep["idempotent_reduction"] is True
    dims = sorted(r["dim"] for r in rep["lifts"])
    assert dims == [1, 2]
    for r in rep["lifts"]:
        assert r["irreducible_char0"] and r["irreducible_charl"]


def test_congruence_check_labels_each_character():
    # O(x^2 + y^2) over F_3 is dihedral of order 8: four +-1 characters
    f3 = FqField(3)
    rep = congruence_check(QuadraticForm(f3, [[1, 0], [0, 1]]), 1, 7)
    labels = [r["chi1"] for r in rep["lifts"]]
    assert len(labels) == 4 and len(set(labels)) == 4
    assert labels.count("trivial") == 1


def test_congruence_check_l13():
    # another banal prime for the same pair
    f3 = FqField(3)
    rep = congruence_check(QuadraticForm(f3, [[1]]), 1, 13)
    assert rep["idempotent_reduction"] is True


def test_charl_theta_matches_reduction_entrywise():
    # r_l of the characteristic-zero theta character equals the char-l trace
    f3 = FqField(3)
    pair = DualPair(QuadraticForm(f3, [[1]]), 1)
    ring = CyclotomicRing(3)
    ffl = FiniteField(7)
    from weilmod.coeff import ReductionMap
    red = ReductionMap(ring, ffl)
    ctx0 = WeilContext(pair.space, AdditiveCharacter(f3, ring))
    ctxl = WeilContext(pair.space, AdditiveCharacter(f3, ffl))
    for chi in linear_pm_characters(pair.h1_list, index_mul(pair)):
        l0 = ThetaLift(pair, ctx0, chi)
        ll = ThetaLift(pair, ctxl, chi)
        ch0, chl = l0.character(), ll.character()
        for g in pair.h2_list:
            assert red(ch0[g]) == chl[g]


def test_sigma_entries_reduce_entrywise():
    # the characteristic-l Weil operators are the entrywise r_l-image of the
    # cyclotomic ones (the sigma entries live in Z[zeta_p][1/p], l != p)
    from weilmod.heisenberg import SympSpace
    from weilmod.metaplectic import enumerate_sp2, sigma
    from weilmod.coeff import ReductionMap
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    ring = CyclotomicRing(3)
    for ell, d in ((7, 1), (2, 2)):
        ffl = FiniteField(ell, d)
        red = ReductionMap(ring, ffl)
        ctx0 = WeilContext(sp, AdditiveCharacter(f3, ring))
        ctxl = WeilContext(sp, AdditiveCharacter(f3, ffl))
        for g in enumerate_sp2(sp)[::3]:
            m0 = sigma(ctx0, g)
            ml = sigma(ctxl, g)
            for r0, rl in zip(m0, ml):
                for x0, xl in zip(r0, rl):
                    assert red(x0) == xl
