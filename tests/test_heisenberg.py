import random
from fractions import Fraction

import pytest

from weilmod import linalg
from weilmod.basefield import AdditiveCharacter, FqField, QpField
from weilmod.coeff import CyclotomicRing, FiniteField, ReductionMap
from weilmod.heisenberg import (DualModel, HeisenbergElement,
                                LagrangianModel, Monomial, SchrodingerModel,
                                SympSpace, TensorModel, central,
                                commutant_dim_model, delta, hom_space,
                                intertwiner, model_generators)
from weilmod.metaplectic import bruhat_decompose, random_symplectic


def all_h(space):
    field = space.field
    elts = field.elements()
    vecs = [()]
    for _ in range(space.dim):
        vecs = [v + (x,) for v in vecs for x in elts]
    return [HeisenbergElement(space, v, t) for v in vecs for t in elts]


def test_group_law_examples():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    h = delta(sp, (1, 2))
    e = HeisenbergElement(sp, (0, 0), 0)
    assert e * h == h and h * e == h
    de, df = delta(sp, (1, 0)), delta(sp, (0, 1))
    prod = de * df
    assert prod.w == (f3.element(1), f3.element(1))
    assert prod.t == f3.element(1) / 2
    # commutator [delta(w), delta(w')] = (0, <w, w'>)
    w1, w2 = delta(sp, (1, 1)), delta(sp, (2, 1))
    comm = w1 * w2 * w1.inv() * w2.inv()
    assert comm.w == sp.zero_vec()
    assert comm.t == sp.pairing(w1.w, w2.w)


def test_group_law_associative_exhaustive_q3():
    sp = SympSpace(FqField(3), 1)
    hs = all_h(sp)
    idx = random.Random(0)
    sample = [(idx.choice(hs), idx.choice(hs), idx.choice(hs))
              for _ in range(400)]
    for a, b, c in sample:
        assert (a * b) * c == a * (b * c)


def test_rho_homomorphism_exhaustive_q3():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    model = SchrodingerModel(sp, AdditiveCharacter(f3))
    hs = all_h(sp)
    for h1 in hs:
        for h2 in hs:
            assert model.rho(h1) * model.rho(h2) == model.rho(h1 * h2)


def test_rho_homomorphism_random_bigger():
    rng = random.Random(4)
    for (p, f, m) in ((5, 1, 2), (7, 1, 2), (3, 2, 2)):
        fq = FqField(p, f)
        sp = SympSpace(fq, m)
        model = SchrodingerModel(sp, AdditiveCharacter(fq))
        for _ in range(334):
            w1 = tuple(fq.element(rng.randrange(fq.q))
                       for _ in range(sp.dim))
            w2 = tuple(fq.element(rng.randrange(fq.q))
                       for _ in range(sp.dim))
            h1 = HeisenbergElement(sp, w1, rng.randrange(fq.q))
            h2 = HeisenbergElement(sp, w2, rng.randrange(fq.q))
            assert model.rho(h1) * model.rho(h2) == model.rho(h1 * h2)


def rho_reference(model, h):
    """rho(h) point by point (the build the one-decomposition rho replaced):
    each B-point b is decomposed again as b + w = a1 + b1."""
    sp = model.space
    half = sp.half()
    perm = [0] * model.dim
    phases = [None] * model.dim
    for i in range(model.dim):
        b = model.point(i)
        w2 = tuple(x + y for x, y in zip(b, h.w))
        a1, b1, co1 = model.decompose(w2)
        t = h.t + half * sp.pairing(b, h.w) - half * sp.pairing(a1, b1)
        j = model._index[co1]
        perm[j] = i
        phases[j] = model.psi(t)
    return Monomial(perm, phases)


class TwoCopies:
    """The direct sum of two copies of a model: a reducible model whose
    commutant is 2 x 2 matrices over the base model's commutant."""

    def __init__(self, base):
        self.base, self.space, self.psi = base, base.space, base.psi
        self.dim = 2 * base.dim

    def rho(self, h):
        r = self.base.rho(h)
        return Monomial(r.perm + tuple(p + r.dim for p in r.perm),
                        r.phases * 2)


def _lagrangian_cases():
    # X, Y and mixed Lagrangians (e_1 + 2 f_1 at m = 1, e_1 + f_2 and
    # e_2 + f_1 at m = 2) over F_3, F_5, F_7 and F_9
    def lagrangians(m):
        x = [tuple(int(k == i) for k in range(2 * m)) for i in range(m)]
        y = [tuple(int(k == m + i) for k in range(2 * m)) for i in range(m)]
        mixed = [(1, 2)] if m == 1 else [(1, 0, 0, 1), (0, 1, 1, 0)]
        return {"X": x, "Y": y, "mixed": mixed}
    for p, f, m, kind in ((3, 1, 1, "X"), (3, 1, 1, "Y"), (3, 1, 1, "mixed"),
                          (5, 1, 1, "mixed"), (7, 1, 1, "mixed"),
                          (3, 2, 1, "mixed"), (3, 1, 2, "X"), (3, 1, 2, "Y"),
                          (3, 1, 2, "mixed"), (5, 1, 2, "mixed"),
                          (3, 2, 2, "mixed")):
        fq = FqField(p, f)
        sp = SympSpace(fq, m)
        a_basis = [tuple(fq.element(x) for x in v)
                   for v in lagrangians(m)[kind]]
        yield LagrangianModel(sp, AdditiveCharacter(fq), a_basis)


def test_rho_matches_reference():
    # 11 models, 150 seeded h each: 1,650 operators
    rng = random.Random(13)
    for model in _lagrangian_cases():
        fq, sp = model.field, model.space
        for _ in range(150):
            w = tuple(fq.element(rng.randrange(fq.q)) for _ in range(sp.dim))
            h = HeisenbergElement(sp, w, rng.randrange(fq.q))
            assert model.rho(h) == rho_reference(model, h)


def test_rho_decomposes_once(monkeypatch):
    # one decomposition per operator, not one per basis point
    calls = []
    real = LagrangianModel.decompose

    def counted(self, w):
        calls.append(w)
        return real(self, w)

    def refuse(self, i):
        raise AssertionError("rho built a B-point vector")
    monkeypatch.setattr(LagrangianModel, "decompose", counted)
    monkeypatch.setattr(LagrangianModel, "point", refuse)
    rng = random.Random(6)
    for model in _lagrangian_cases():
        fq, sp = model.field, model.space
        for _ in range(5):
            w = tuple(fq.element(rng.randrange(fq.q)) for _ in range(sp.dim))
            calls.clear()
            model.rho(HeisenbergElement(sp, w, rng.randrange(fq.q)))
            assert calls == [w]


def test_central_character():
    f9 = FqField(3, 2)
    sp = SympSpace(f9, 1)
    psi = AdditiveCharacter(f9)
    model = SchrodingerModel(sp, psi)
    for t in f9.elements():
        mono = model.rho(central(sp, t))
        assert all(j == pj for j, pj in enumerate(mono.perm))
        assert all(ph == psi(t) for ph in mono.phases)


def test_rho_is_psi_t_times_rho_at_t_zero():
    # (w, t) = (w, 0)(0, t) and the center acts by psi: rho((w, t)) =
    # psi(t) rho((w, 0)) on all of H(W), which lets the heisenberg dump
    # make one rho per w.  Schrödinger models over F_3, F_5 and F_9 at
    # m = 1 and over F_3 at m = 2, and a twisted model on the Lagrangian
    # spanned by e_1 + 2 f_1 over F_5
    models = []
    for p, f, m in ((3, 1, 1), (5, 1, 1), (3, 2, 1), (3, 1, 2)):
        fq = FqField(p, f)
        models.append(SchrodingerModel(SympSpace(fq, m),
                                       AdditiveCharacter(fq)))
    f5 = FqField(5)
    models.append(LagrangianModel(SympSpace(f5, 1),
                                  AdditiveCharacter(f5, twist=2),
                                  [(f5.element(1), f5.element(2))]))
    for model in models:
        sp, psi = model.space, model.psi
        at_zero = {}
        for h in all_h(sp):
            if h.w not in at_zero:
                at_zero[h.w] = model.rho(delta(sp, h.w))
            assert model.rho(h) == at_zero[h.w].scaled(psi(h.t)), h


def test_monomial_example_translation_and_phase():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    model = SchrodingerModel(sp, AdditiveCharacter(f3))
    # h = delta(f_1) translates f(y) -> f(y + 1); pure permutation
    mono = model.rho(delta(sp, (0, 1)))
    one = model.psi.coeff_ring.one()
    assert all(ph == one for ph in mono.phases)
    assert sorted(mono.perm) == [0, 1, 2]
    # h = delta(e_1) acts diagonally
    mono2 = model.rho(delta(sp, (1, 0)))
    assert all(j == pj for j, pj in enumerate(mono2.perm))
    assert any(ph != one for ph in mono2.phases)


def test_commutant_dims():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    model = SchrodingerModel(sp, AdditiveCharacter(f3))
    assert commutant_dim_model(model) == 1
    assert commutant_dim_model(TwoCopies(model)) == 4
    # modular instance: F_5 model over F_{7^4} coefficients
    f5 = FqField(5)
    ffl = FiniteField(7, 4)
    model_l = SchrodingerModel(SympSpace(f5, 1),
                               AdditiveCharacter(f5, ffl))
    assert commutant_dim_model(model_l) == 1
    # char-2 coefficients
    f4 = FiniteField(2, 2)
    model_2 = SchrodingerModel(sp, AdditiveCharacter(f3, f4))
    assert commutant_dim_model(model_2) == 1


def test_stone_von_neumann_grid():
    for (p, f, m) in ((3, 1, 1), (3, 1, 2), (5, 1, 1), (7, 1, 1), (3, 2, 1)):
        fq = FqField(p, f)
        sp = SympSpace(fq, m)
        model = SchrodingerModel(sp, AdditiveCharacter(fq))
        assert commutant_dim_model(model) == 1


def test_general_lagrangian_model_y():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    psi = AdditiveCharacter(f3)
    ymodel = LagrangianModel(sp, psi, [sp.basis_f(0)])
    hs = all_h(sp)
    for h1 in hs[:9]:
        for h2 in hs:
            assert ymodel.rho(h1) * ymodel.rho(h2) == ymodel.rho(h1 * h2)
    assert commutant_dim_model(ymodel) == 1


def test_intertwiner_x_to_y():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    psi = AdditiveCharacter(f3)
    xmodel = SchrodingerModel(sp, psi)
    ymodel = LagrangianModel(sp, psi, [sp.basis_f(0)])
    im = intertwiner(xmodel, ymodel)
    zero = xmodel.psi.coeff_ring.zero()
    # intertwining relation on every group element
    for h in all_h(sp):
        lhs = linalg.mat_mul(im, xmodel.rho(h).to_dense(zero))
        rhs = linalg.mat_mul(ymodel.rho(h).to_dense(zero), im)
        assert lhs == rhs
    # invertible
    linalg.mat_inv(im, psi.coeff_ring)


def test_intertwiner_roundtrip_scalar():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    psi = AdditiveCharacter(f3)
    xmodel = SchrodingerModel(sp, psi)
    ymodel = LagrangianModel(sp, psi, [sp.basis_f(0)])
    ixy = intertwiner(xmodel, ymodel)
    iyx = intertwiner(ymodel, xmodel)
    prod = linalg.mat_mul(iyx, ixy)
    zero = xmodel.psi.coeff_ring.zero()
    n = xmodel.dim
    diag = prod[0][0]
    assert not diag.is_zero()
    for i in range(n):
        for j in range(n):
            assert prod[i][j] == (diag if i == j else zero)
    # scalar is q times the point-mass normalization
    assert diag == CyclotomicRing(3).from_int(3)


def test_intertwiner_same_model_is_scalar():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    psi = AdditiveCharacter(f3)
    xmodel = SchrodingerModel(sp, psi)
    im = intertwiner(xmodel, xmodel)
    zero = xmodel.psi.coeff_ring.zero()
    for i in range(xmodel.dim):
        for j in range(xmodel.dim):
            if i != j:
                assert im[i][j] == zero
    assert im[0][0] == im[1][1] == im[2][2]


def test_intertwiner_omega_compatibility():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    psi = AdditiveCharacter(f3)
    xmodel = SchrodingerModel(sp, psi)
    ymodel = LagrangianModel(sp, psi, [sp.basis_f(0)])
    # trivial intersection: any omega is allowed, and omega = e_1 shifts
    im = intertwiner(xmodel, ymodel, omega_vec=sp.basis_e(0))
    zero = xmodel.psi.coeff_ring.zero()
    for h in all_h(sp)[:12]:
        lhs = linalg.mat_mul(im, xmodel.rho(h).to_dense(zero))
        rhs = linalg.mat_mul(ymodel.rho(h).to_dense(zero), im)
        assert lhs == rhs


def test_intertwiner_refuses_omega_with_trace_zero_pairing():
    # over F_9 with A1 = A2 = X and omega = c f_1, Tr c = 0, c != 0:
    # psi(<e_1, omega>) = psi(c) = 1, but psi(<x e_1, omega>) = psi(x c) is
    # not 1 for every x.  A test of psi on the basis vector e_1 alone
    # accepts this omega, and the matrix then built fails to intertwine
    # one of the model generators
    f9 = FqField(3, 2)
    sp = SympSpace(f9, 1)
    psi = AdditiveCharacter(f9)
    c = next(x for x in f9.elements() if x and not f9.trace_i(x.i))
    assert psi(c) == psi.coeff_ring.one()
    xmodel = SchrodingerModel(sp, psi)
    with pytest.raises(ValueError, match="omega incompatible"):
        intertwiner(xmodel, xmodel, omega_vec=(f9.element(0), c))


def test_contragredient_is_psi_inverse_model():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    psi = AdditiveCharacter(f3)
    model = SchrodingerModel(sp, psi)
    dual = DualModel(model)
    inv_model = SchrodingerModel(sp, AdditiveCharacter(f3, psi.coeff_ring,
                                                       -psi.twist))
    hs = all_h(sp)
    gens = model_generators(sp)
    zero = model.psi.coeff_ring.zero()
    ops_dual = [dual.rho(h).to_dense(zero) for h in gens]
    ops_inv = [inv_model.rho(h).to_dense(zero) for h in gens]
    homs = hom_space(ops_dual, ops_inv, model.dim, model.dim,
                     psi.coeff_ring)
    assert len(homs) == 1
    t = homs[0]
    # a nonzero intertwiner between irreducibles is an isomorphism
    linalg.mat_inv(t, psi.coeff_ring)
    for h in hs:
        lhs = linalg.mat_mul(t, dual.rho(h).to_dense(zero))
        rhs = linalg.mat_mul(inv_model.rho(h).to_dense(zero), t)
        assert lhs == rhs


def test_tensor_model():
    f3 = FqField(3)
    sp1 = SympSpace(f3, 1)
    psi = AdditiveCharacter(f3)
    m1 = SchrodingerModel(sp1, psi)
    tm = TensorModel(m1, m1)
    assert tm.dim == 9
    sp2 = tm.space
    big = SchrodingerModel(sp2, psi)
    rng = random.Random(8)
    # same model up to basis conventions: homomorphism law + irreducible +
    # matching central character
    for _ in range(60):
        w1 = tuple(f3.element(rng.randrange(3)) for _ in range(4))
        w2 = tuple(f3.element(rng.randrange(3)) for _ in range(4))
        h1 = HeisenbergElement(sp2, w1, rng.randrange(3))
        h2 = HeisenbergElement(sp2, w2, rng.randrange(3))
        assert tm.rho(h1) * tm.rho(h2) == tm.rho(h1 * h2)
    assert commutant_dim_model(tm) == 1
    for t in range(3):
        mono = tm.rho(central(sp2, t))
        assert all(ph == psi(f3.element(t)) for ph in mono.phases)


def test_scalar_extension_entrywise():
    # the F_l(zeta_p) model is the entrywise reduction of the Z[zeta_p] model
    f5 = FqField(5)
    sp = SympSpace(f5, 1)
    ring = CyclotomicRing(5)
    ffl = FiniteField(7, 4)
    red = ReductionMap(ring, ffl)
    m0 = SchrodingerModel(sp, AdditiveCharacter(f5, ring))
    ml = SchrodingerModel(sp, AdditiveCharacter(f5, ffl))
    rng = random.Random(12)
    for _ in range(30):
        w = tuple(f5.element(rng.randrange(5)) for _ in range(2))
        h = HeisenbergElement(sp, w, rng.randrange(5))
        a, b = m0.rho(h), ml.rho(h)
        assert a.perm == b.perm
        assert tuple(red(x) for x in a.phases) == b.phases


def test_intertwiner_incompatible_omega_rejected():
    f3 = FqField(3)
    sp = SympSpace(f3, 1)
    psi = AdditiveCharacter(f3)
    xmodel = SchrodingerModel(sp, psi)
    with pytest.raises(ValueError):
        intertwiner(xmodel, xmodel, omega_vec=sp.basis_f(0))


def is_symplectic_reference(space, g):
    """The symplectic test as it was before the pairing skipped zeros:
    every pair of columns, every term of each pairing multiplied out."""
    m, field = space.m, space.field
    cols = linalg.transpose(g)
    for i in range(space.dim):
        for j in range(i + 1, space.dim):
            want = field.element(1 if j == i + m and i < m else 0)
            acc = field.element(0)
            for k in range(m):
                acc = acc + cols[i][k] * cols[j][m + k] \
                    - cols[i][m + k] * cols[j][k]
            if acc != want:
                return False
    return True


@pytest.mark.parametrize("field", [FqField(3), QpField(5)], ids=str)
def test_is_symplectic_matches_reference(field):
    # random Sp4 elements, their Bruhat p1 (mostly zeros) and matrices with
    # one entry perturbed: the same verdict from both tests on each
    sp = SympSpace(field, 2)
    rng = random.Random(30)
    gs = [random_symplectic(sp, rng) for _ in range(300)]
    p1s = [bruhat_decompose(sp, g).p1 for g in gs]
    bent = []
    for g in gs[:50]:
        rows = [list(r) for r in g]
        i, j = rng.randrange(4), rng.randrange(4)
        rows[i][j] = rows[i][j] + field.element(rng.randrange(1, 3))
        bent.append(linalg.mat(rows))
    cases = gs + p1s + bent
    verdicts = [sp.is_symplectic(g) for g in cases]
    assert verdicts == [is_symplectic_reference(sp, g) for g in cases]
    assert verdicts.count(False) >= 40
