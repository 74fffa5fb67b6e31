"""Schema of the committed BENCH_*.json files: each holds, for every
workload and end-to-end metric that BENCHMARK.json declares, the medians of
the parent and of the change, with the host and both commits.  Also the
guards the benchmark relies on: every name its tracer wraps still exists,
and the package has no `assert` that `python -O` would strip."""

import ast
import glob
import importlib
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "weilmod")
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _DECL = json.load(_fh)
WORKLOADS = [w["name"] for w in _DECL["workloads"]]
METRICS = [m["name"] for m in _DECL["end_to_end"]]


def test_some_bench_file_exists():
    assert BENCH_FILES


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_schema(path):
    with open(path) as fh:
        bench = json.load(fh)
    for key in ("parent_sha", "change_sha"):
        sha = bench[key]
        assert len(sha) == 40 and int(sha, 16) >= 0
    assert bench["parent_sha"] != bench["change_sha"]
    assert _number(bench["host"]["nproc"]) and bench["host"]["python"]
    rows = bench["end_to_end"]
    for name in WORKLOADS:
        mine = [r for r in rows if r["workload"] == name]
        assert mine, "%s: no end-to-end row" % name
        for row in mine:
            assert row["pairs"] >= 1
            for metric in METRICS:
                cell = row["metrics"][metric]
                for side in ("parent", "change"):
                    stats = cell[side]
                    assert _number(stats["median"]), (name, metric, side)
                    assert stats["q1"] <= stats["median"] <= stats["q3"]


def _tracer_targets():
    """TIMED and COUNTED of perfbench/layers.py, read as data (the module
    is not imported)."""
    with open(os.path.join(ROOT, "perfbench", "layers.py")) as fh:
        tree = ast.parse(fh.read())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                getattr(node.targets[0], "id", None) in ("TIMED", "COUNTED"):
            out.update(ast.literal_eval(node.value))
    return out


def test_traced_names_resolve():
    targets = _tracer_targets()
    assert len(targets) > 20
    for span, (modname, path) in sorted(targets.items()):
        owner = importlib.import_module("weilmod." + modname)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        # the tracer swaps owner.__dict__[attr], so it must be defined there
        assert callable(vars(owner).get(attr)), (span, modname, path)


def test_package_has_no_assert():
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _module_tree(name):
    with open(os.path.join(PACKAGE, name + ".py")) as fh:
        return ast.parse(fh.read())


def _function(tree, path):
    node = tree
    for part in path.split("."):
        node = next(n for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name == part)
    return node


def test_base_field_routines_do_not_fork_on_flavor():
    # F_q is the trivially valued case of the Q_p formulas: these read the
    # valuation, never the field's flavor
    for module, path in (("basefield", "modulus"),
                         ("quadratic", "hilbert"),
                         ("metaplectic", "mu_g_scalar")):
        fn = _function(_module_tree(module), path)
        reads = [node.lineno for node in ast.walk(fn)
                 if (isinstance(node, ast.Attribute) and node.attr == "flavor")
                 or (isinstance(node, ast.Constant) and node.value == "flavor")]
        assert reads == [], (module, path, reads)


def test_schwartz_has_no_residue_or_gaussian_of_its_own():
    # residues mod p^n Z_p come from basefield.residue_rep and the p-adic
    # Gaussian from weilfactor.omega1_padic: schwartz has no module-level
    # helper and no modular inverse of its own
    tree = _module_tree("schwartz")
    helpers = [n.name for n in tree.body
               if isinstance(n, ast.FunctionDef) and n.name.startswith("_")]
    inverses = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "pow"
                and len(node.args) == 3]
    assert helpers == [] and inverses == []
