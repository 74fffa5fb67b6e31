"""basefield.points is the one order of F_q^k: each enumeration that reads
it is compared with the expression it replaced, kept here as the
reference.  A guard over the package source keeps the order, the
internals of a WeilContext, the construction of coefficient scalars,
the reading of raw field indices, the refused-input exception and the products by the Siegel parabolic's
generators behind one owner each, and every linalg call in the package
names the field its scalars live in."""

import ast
import itertools
import json
import pathlib

import pytest

import weilmod
from weilmod import cli, linalg
from weilmod.basefield import AdditiveCharacter, parse_field, points
from weilmod.heisenberg import SchrodingerModel, SympSpace, coset_reps
from weilmod.metaplectic import WeilContext, enumerate_sp2
from weilmod.quadratic import QuadraticForm
from weilmod.theta import enumerate_orthogonal
from weilmod.weilfactor import convolution, fourier_matrix, \
    fourier_normalizer

FIELDS = ["fq:3:1", "fq:5:1", "fq:3:2"]


def product_reference(field, k):
    """F_q^k as heisenberg.point_order listed it."""
    return list(itertools.product(field.elements(), repeat=k))


@pytest.mark.parametrize("desc", FIELDS)
def test_points_and_the_models_follow_the_reference(desc):
    field = parse_field(desc)
    for k in (0, 1, 2, 3):
        assert points(field, k) == product_reference(field, k)
    for m in (1, 2):
        space = SympSpace(field, m)
        model = SchrodingerModel(space, AdditiveCharacter(field))
        ref = product_reference(field, m)
        assert model._points == ref
        assert model._index == {pt: i for i, pt in enumerate(ref)}
        # the count model keeps raw indices, in the range(q) order it
        # spelled out before
        counts = WeilContext(space, AdditiveCharacter(field)).counts
        assert counts.ypoints == tuple(
            itertools.product(range(field.q), repeat=m))


@pytest.mark.parametrize("desc", FIELDS)
def test_enumerate_sp2_follows_the_nested_loops(desc):
    field = parse_field(desc)
    elts = field.elements()
    ref = [linalg.mat([[a, b], [c, d]])
           for a in elts for b in elts for c in elts for d in elts
           if a * d - b * c == field.one()]
    assert enumerate_sp2(SympSpace(field, 1)) == ref
    # the index view lists the same matrices in the same order
    ix = field.indices
    assert enumerate_sp2(SympSpace(ix, 1)) == [ix.lower(g) for g in ref]


@pytest.mark.parametrize("desc", FIELDS)
def test_enumerate_orthogonal_follows_the_reversed_product(desc):
    field = parse_field(desc)
    for diag in ([1], [1, 1], [1, 2]):
        n = len(diag)
        gram = [[diag[i] if i == j else 0 for j in range(n)]
                for i in range(n)]
        form = QuadraticForm(field, gram)
        vecs = [v[::-1] for v in product_reference(field, n)]
        ref = []
        for colset in itertools.product(vecs, repeat=n):
            h = linalg.transpose(linalg.mat(colset))
            if linalg.mat_mul(linalg.mat_mul(linalg.transpose(h),
                                             form.gram), h) == form.gram:
                ref.append(h)
        # enumerate_orthogonal lists them on raw field indices
        ix = field.indices
        assert enumerate_orthogonal(ix, ix.lower(form.gram)) == [
            ix.lower(h) for h in ref]


@pytest.mark.parametrize("desc", FIELDS)
def test_coset_reps_follow_the_reference(desc):
    field = parse_field(desc)
    space = SympSpace(field, 2)
    ambient = [space.basis_e(0), space.basis_e(1), space.basis_f(0)]
    for sub in ([], [space.basis_e(0)],
                [tuple(x + y for x, y in zip(space.basis_e(1),
                                             space.basis_f(0)))]):
        comp = linalg.column_space_basis(sub + ambient, field)[len(sub):]
        ref = [linalg.mat_vec(linalg.transpose(comp), co, field) if comp
               else space.zero_vec()
               for co in product_reference(field, len(comp))]
        assert coset_reps(sub, ambient, field) == ref


@pytest.mark.parametrize("desc", FIELDS)
def test_fourier_matrix_and_convolution_follow_the_reference(desc):
    field = parse_field(desc)
    psi = AdditiveCharacter(field)
    for rho in ([[2]], [[2, 0], [0, 1]]):
        m = len(rho)
        pts = product_reference(field, m)
        gram = linalg.mat([[field.element(x) for x in row] for row in rho])
        om_inv = fourier_normalizer(field, psi, rho).inv()
        assert fourier_matrix(field, psi, rho) == tuple(
            tuple(om_inv * psi(field.dot(linalg.mat_vec(gram, x, field), u))
                  for u in pts) for x in pts)
    f = {x: psi(x[0]) for x in product_reference(field, 1)}
    g = {x: psi(x[0] * x[0]) for x in f}
    conv = convolution(field, psi, [[2]], f, g)
    om_inv = fourier_normalizer(field, psi, [[2]]).inv()
    assert list(conv) == list(f)
    for x in f:
        acc = None
        for u in f:
            t = f[u] * g[tuple(a - b for a, b in zip(x, u))]
            acc = t if acc is None else acc + t
        assert conv[x] == acc * om_inv


@pytest.mark.parametrize("desc", FIELDS)
def test_heisenberg_dump_follows_the_nested_loops(desc, capsys):
    field = parse_field(desc)
    assert cli.main(["heisenberg", "--field", desc, "--m", "1"]) == 0
    ops = json.loads(capsys.readouterr().out)["operators"]
    elts = field.elements()
    ref = [([str(x) for x in w], str(t))
           for w in itertools.product(elts, repeat=2) for t in elts]
    assert [(op["w"], op["t"]) for op in ops] == ref


# ---------------------------------------------------------------------------
# one module per format decision
# ---------------------------------------------------------------------------

PACKAGE = pathlib.Path(weilmod.__file__).parent

# a WeilContext's count model, ring map and mu tables: metaplectic's alone
CONTEXT_INTERNALS = {"_phi", "counts", "_mu", "_scalars", "_gauss_half_inv"}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def _calls_elements(node):
    return isinstance(node, ast.Call) and isinstance(
        node.func, ast.Attribute) and node.func.attr == "elements"


def _enumerates_a_field(call, element_names):
    """itertools.product over a field's elements: an argument that calls
    .elements(), names a variable assigned from such a call, or is
    range(<...>.q)."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "product"
            and isinstance(func.value, ast.Name)
            and func.value.id == "itertools"):
        return False
    for node in (n for a in call.args for n in ast.walk(a)):
        if _calls_elements(node) or (isinstance(node, ast.Name)
                                     and node.id in element_names):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "range" and any(
                    isinstance(a, ast.Attribute) and a.attr == "q"
                    for a in node.args):
            return True
    return False


def _field_enumerations(tree):
    """(line, innermost enclosing function) of each itertools.product over
    a field's elements in a module."""
    element_names = {t.id for node in ast.walk(tree)
                     if isinstance(node, ast.Assign)
                     and _calls_elements(node.value)
                     for t in node.targets if isinstance(t, ast.Name)}
    funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _enumerates_a_field(
                node, element_names):
            inner = min((f for f in funcs
                         if f.lineno <= node.lineno <= f.end_lineno),
                        key=lambda f: f.end_lineno - f.lineno, default=None)
            yield node.lineno, inner and inner.name


def test_one_function_enumerates_a_field():
    found = [(name, func) for name, tree in _modules()
             for _, func in _field_enumerations(tree)]
    assert found == [("basefield", "points")]


def test_only_metaplectic_reads_context_internals():
    # ctx.counts.restrict, the count model's restriction that ThetaLift
    # asks for, is the one read of a context's internals allowed elsewhere
    found = []
    for name, tree in _modules():
        if name == "metaplectic":
            continue
        restrict = {id(node.value) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr == "restrict"}
        found += [(name, node.attr, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in CONTEXT_INTERNALS
                  and not (node.attr == "counts" and id(node) in restrict)]
    assert found == []


def test_only_coeff_constructs_coefficient_scalars():
    # the layout of a Cyc or an FFElt is coeff's: elsewhere a scalar comes
    # from its ring (element, one, zero, count_map, ...)
    found = [(name, node.func.id, node.lineno)
             for name, tree in _modules() if name != "coeff"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("Cyc", "FFElt")]
    assert found == []


def test_only_the_field_modules_read_raw_indices():
    # an FFElt's raw index crosses into ints in coeff and basefield (the
    # index view's lower, the characters' tables) and in cli.scalar_json,
    # whose output is the index; elsewhere it goes through those owners
    found = []
    for name, tree in _modules():
        if name in ("coeff", "basefield"):
            continue
        allowed = {id(node) for f in ast.walk(tree)
                   if isinstance(f, ast.FunctionDef)
                   and (name, f.name) == ("cli", "scalar_json")
                   for node in ast.walk(f)}
        found += [(name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "i"
                  and isinstance(node.ctx, ast.Load)
                  and id(node) not in allowed]
    assert found == []


def test_one_refused_input_class():
    # basefield.InputError is the one ValueError subclass: every refusal
    # of an input raises it
    found = [(name, node.name)
             for name, tree in _modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) and node.name.endswith("Error")
             and any(isinstance(b, ast.Name) and b.id == "ValueError"
                     for b in node.bases)]
    assert found == [("basefield", "InputError")]


def _functions(module=None):
    for name, tree in _modules():
        if module in (None, name):
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    yield name, node


def test_random_symplectic_checks_the_finished_word_once():
    # each step is a column update by a generator, symplectic by
    # construction: the one check is on the word, after the loop
    func = next(f for _, f in _functions("metaplectic")
                if f.name == "random_symplectic")
    checks = [n for n in ast.walk(func) if isinstance(n, ast.Call)
              and isinstance(n.func, ast.Attribute)
              and n.func.attr == "is_symplectic"]
    in_loops = {id(n) for loop in ast.walk(func)
                if isinstance(loop, (ast.For, ast.While))
                for n in ast.walk(loop)}
    assert len(checks) == 1 and id(checks[0]) not in in_loops


def test_one_function_per_parabolic_generator():
    # heisenberg multiplies by the unipotents [[I, s], [0, I]] (u_rho among
    # them); dense builders of the generators live in the tests
    found = sorted("%s.%s" % (name, f.name) for name, f in _functions()
                   if any(w in f.name
                          for w in ("parabolic", "unipotent", "u_rho")))
    assert found == ["heisenberg.in_parabolic", "heisenberg.mul_unipotent",
                     "schwartz.act_parabolic"]


def test_one_gram_schmidt_in_quadratic():
    # quadratic.diagonal is the package's one Gram-Schmidt: no other
    # function of quadratic.py updates a row or divides
    found = sorted({f.name for _, f in _functions("quadratic")
                    for n in ast.walk(f) if isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr in ("eliminate", "scale", "recip",
                                        "divide")})
    assert found == ["diagonal"]


# each linalg routine that takes a field, by the number of its arguments
# with the field included
FIELD_ARITY = {"mat_mul": 3, "mat_vec": 3, "rref": 2, "det": 2,
               "column_space_basis": 2, "intersection": 3, "nullspace": 2,
               "solve": 3, "solve_columns": 3, "mat_inv": 2}


def _linalg_routine(module, node):
    """The linalg routine `node` names: `linalg.<name>`, or a bare name
    inside linalg itself."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "linalg":
        return node.attr
    if module == "linalg" and isinstance(node, ast.Name):
        return node.id
    return None


def _names_field(call, arity):
    return len(call.args) >= arity or any(k.arg == "fld"
                                          for k in call.keywords)


def test_every_linalg_call_names_its_field():
    # no call falls back to mat_mul's default operators, so Q_p data
    # always meets QpField's zero, one and int-taking recip
    found = [(name, fn, node.lineno)
             for name, tree in _modules()
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             for fn in [_linalg_routine(name, node.func)]
             if fn in FIELD_ARITY and not _names_field(node, FIELD_ARITY[fn])]
    assert found == []


def test_linalg_routines_pass_as_values_with_their_field():
    # a routine handed on as a value is partial(linalg.<name>, fld=...)
    found = []
    for name, tree in _modules():
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        allowed = {id(n.func) for n in calls} | {
            id(n.args[0]) for n in calls
            if isinstance(n.func, ast.Name) and n.func.id == "partial"
            and n.args and any(k.arg == "fld" for k in n.keywords)}
        found += [(name, node.lineno) for node in ast.walk(tree)
                  if _linalg_routine(name, node) in FIELD_ARITY
                  and isinstance(node.ctx, ast.Load)
                  and id(node) not in allowed]
    assert found == []


def test_no_combine():
    # a combination of basis vectors is mat_vec over the basis as columns
    found = [(name, node.lineno) for name, tree in _modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "combine"
             or isinstance(node, ast.Call) and "combine" in (
                 getattr(node.func, "attr", None),
                 getattr(node.func, "id", None))]
    assert found == []
