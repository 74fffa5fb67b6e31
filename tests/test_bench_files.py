"""Schema of the committed BENCH_*.json files: each holds, for every
workload and end-to-end metric that BENCHMARK.json declares, the medians of
the parent and of the change, with the host and both commits.  Also the
guards the benchmark relies on: every name its tracer wraps still exists,
every public name of the package has a reader, the package has no `assert`
that `python -O` would strip, and no float outside `Cyc.approx`."""

import ast
import glob
import importlib
import json
import os
import re

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


def _trees(pattern):
    """{module name: AST} for the files matching `pattern`."""
    out = {}
    for path in sorted(glob.glob(pattern)):
        with open(path) as fh:
            out[os.path.splitext(os.path.basename(path))[0]] = \
                ast.parse(fh.read())
    return out


def _public_defs(trees):
    """(module, qualified name, node) for every public module-level def or
    class and every public method or property of those classes."""
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_"):
                continue
            yield mod, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and \
                            not sub.name.startswith("_"):
                        yield mod, node.name + "." + sub.name, sub


def _unread_public_names():
    """The package's public names that nothing reads.  A name is read by
    another place in the package (a module-level def or class through its
    own name or module.name, a method or property through any attribute
    of its name, a cli.cmd_* through cli.main's lookup), by perfbench as
    an attribute of anything but its argparse namespace `args` or a part
    of a TIMED/COUNTED path, or by README.md in backticks."""
    package = _trees(os.path.join(PACKAGE, "*.py"))
    refs = []   # (node id, name, the Name an attribute is taken of or None)
    for tree in package.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((id(node), node.id, None))
            elif isinstance(node, ast.Attribute):
                refs.append((id(node), node.attr,
                             getattr(node.value, "id", "")))
    bench = set()
    for tree in _trees(os.path.join(ROOT, "perfbench", "*.py")).values():
        # args.<option> reads perfbench's own argparse namespace
        bench |= {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)
                  and getattr(n.value, "id", None) != "args"}
    for modname, path in _tracer_targets().values():
        parts = path.split(".")
        bench |= {(modname, ".".join(parts[:i + 1]))
                  for i in range(len(parts))}
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = {word for span in re.findall(r"`([^`]*)`", fh.read())
                  for word in re.findall(r"[A-Za-z_]\w*", span)}
    unread = []
    for mod, qual, node in _public_defs(package):
        name = qual.rsplit(".", 1)[-1]
        own = {id(n) for n in ast.walk(node)}
        if "." in qual:
            read = any(ref == name and owner is not None and nid not in own
                       for nid, ref, owner in refs)
        else:
            read = (mod == "cli" and name.startswith("cmd_")) or any(
                ref == name and owner in (None, mod) and nid not in own
                for nid, ref, owner in refs)
        if not (read or name in bench or (mod, qual) in bench
                or name in readme):
            unread.append(mod + "." + qual)
    return unread


def test_every_public_name_has_a_reader():
    # a public name that no module, CLI path, selfcheck suite, perfbench
    # file or README line reads moves into the tests or goes
    assert _unread_public_names() == []


def test_package_has_no_assert():
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_has_no_float_outside_approx():
    # exact arithmetic only: Cyc.approx, the labelled complex embedding
    # that --approx prints, is the one place a float or complex may arise
    found = []
    for mod, tree in _trees(os.path.join(PACKAGE, "*.py")).items():
        inside = {id(n) for n in ast.walk(_function(tree, "Cyc.approx"))} \
            if mod == "coeff" else set()
        found += ["%s:%d" % (mod, node.lineno)
                  for node in ast.walk(tree) if id(node) not in inside and (
                      (isinstance(node, ast.Constant)
                       and isinstance(node.value, (float, complex)))
                      or (isinstance(node, ast.Call)
                          and getattr(node.func, "id", None)
                          in ("float", "round")))]
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
