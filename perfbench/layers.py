"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions and methods listed in
TIMED with wrappers that record calls, duration and self time (duration
minus the time of wrapped children), and the hot scalar entry points in
COUNTED with wrappers that only count.  Every reference to a wrapped
function in the weilmod modules is swapped, so `from .x import f` bindings
are covered too.  `uninstall()` puts the originals back; the kernels are
then timed without wrappers on values taken from the run.
"""

import argparse
import importlib
import statistics
import sys
import time

MODULES = ("coeff", "basefield", "linalg", "quadratic", "weilfactor",
           "heisenberg", "schwartz", "metaplectic", "theta", "cli")

# span name -> (module, attribute path)
TIMED = {
    "metaplectic.sigma": ("metaplectic", "sigma"),
    "metaplectic.bruhat_decompose": ("metaplectic", "bruhat_decompose"),
    "metaplectic.mu_g_scalar": ("metaplectic", "mu_g_scalar"),
    "metaplectic.scalar_ratio": ("metaplectic", "scalar_ratio"),
    "metaplectic.leray_decompose": ("metaplectic", "leray_decompose"),
    "metaplectic.x_invariant": ("metaplectic", "x_invariant"),
    "metaplectic.cocycle_formula": ("metaplectic", "cocycle_formula"),
    "linalg.mat_mul": ("linalg", "mat_mul"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.mat_inv": ("linalg", "mat_inv"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "linalg.solve": ("linalg", "solve"),
    "quadratic.hilbert": ("quadratic", "hilbert"),
    "quadratic.hasse": ("quadratic", "QuadraticForm.hasse"),
    "schwartz.cocycle_operator_padic": ("schwartz", "cocycle_operator_padic"),
    "weilfactor.omega1_padic": ("weilfactor", "omega1_padic"),
    "weilfactor.omega": ("weilfactor", "omega"),
    "weilfactor.gauss_sum": ("weilfactor", "gauss_sum"),
    "theta.DualPair": ("theta", "DualPair.__init__"),
    "theta.ThetaLift": ("theta", "ThetaLift.__init__"),
    "theta.ThetaLift.act": ("theta", "ThetaLift.act"),
    "theta.group_inverses": ("theta", "group_inverses"),
    "theta.linear_pm_characters": ("theta", "linear_pm_characters"),
    "theta.CentralIdempotent": ("theta", "CentralIdempotent.__init__"),
    "heisenberg.hom_space": ("heisenberg", "hom_space"),
    "heisenberg.rho": ("heisenberg", "LagrangianModel.rho"),
    "cli.parse": ("cli", "build_parser"),
    "cli.emit": ("cli", "emit"),
}
# the top-level argument parse inside cli.main joins cli.parse
PARSE_ARGS = (argparse.ArgumentParser, "parse_args")

COUNTED = {
    "basefield.psi": ("basefield", "AdditiveCharacter.__call__"),
    "coeff.FFElt": ("coeff", "FFElt.__init__"),
    "coeff.Cyc": ("coeff", "Cyc.__init__"),
}
SAMPLE_STRIDE = 1021    # keep every 1021st new scalar for the kernels
SAMPLE_CAP = 256
KERNEL_REPS = 7

# (metric, unit) in BENCHMARK.json order; the README maps each one to the
# end-to-end metrics it should move
PER_LAYER = [
    ("metaplectic.sigma.calls", "count"),
    ("metaplectic.sigma.builds", "count"),
    ("metaplectic.sigma.hit_ratio", "ratio"),
    ("metaplectic.sigma.build_ms", "ms"),
    ("metaplectic.sigma.self_ms", "ms"),
    ("metaplectic.bruhat_decompose.calls", "count"),
    ("metaplectic.bruhat_decompose.self_ms", "ms"),
    ("metaplectic.mu_g_scalar.self_ms", "ms"),
    ("basefield.psi.calls", "count"),
    ("coeff.FFElt.created", "count"),
    ("coeff.Cyc.created", "count"),
    ("linalg.mat_mul.calls", "count"),
    ("linalg.mat_mul.self_ms", "ms"),
    ("linalg.mat_mul.sigma_us", "us"),
    ("metaplectic.scalar_ratio.self_ms", "ms"),
    ("coeff.Cyc.mul_ns", "ns"),
    ("coeff.Cyc.inv_us", "us"),
    ("coeff.FFElt.mul_ns", "ns"),
    ("coeff.FFElt.add_ns", "ns"),
    ("metaplectic.leray_decompose.calls", "count"),
    ("metaplectic.leray_decompose.self_ms", "ms"),
    ("metaplectic.x_invariant.self_ms", "ms"),
    ("metaplectic.cocycle_formula.self_ms", "ms"),
    ("quadratic.hilbert.calls", "count"),
    ("quadratic.hilbert.self_ms", "ms"),
    ("quadratic.hasse.self_ms", "ms"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_ms", "ms"),
    ("linalg.mat_inv.self_ms", "ms"),
    ("schwartz.cocycle_operator_padic.calls", "count"),
    ("schwartz.cocycle_operator_padic.self_ms", "ms"),
    ("weilfactor.omega1_padic.calls", "count"),
    ("weilfactor.omega1_padic.self_ms", "ms"),
    ("theta.DualPair.self_ms", "ms"),
    ("theta.ThetaLift.self_ms", "ms"),
    ("theta.ThetaLift.act.self_ms", "ms"),
    ("theta.group_inverses.calls", "count"),
    ("theta.group_inverses.self_ms", "ms"),
    ("theta.linear_pm_characters.self_ms", "ms"),
    ("theta.CentralIdempotent.self_ms", "ms"),
    ("heisenberg.hom_space.self_ms", "ms"),
    ("linalg.nullspace.self_ms", "ms"),
    ("linalg.solve.self_ms", "ms"),
    ("cli.parse.self_ms", "ms"),
    ("cli.command.self_ms", "ms"),
    ("cli.emit.self_ms", "ms"),
    ("cli.output_bytes", "bytes"),
    ("heisenberg.rho.calls", "count"),
    ("heisenberg.rho.self_ms", "ms"),
    ("weilfactor.omega.self_ms", "ms"),
    ("weilfactor.gauss_sum.self_ms", "ms"),
]


def _resolve(modname, path):
    owner = importlib.import_module("weilmod." + modname)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.spans = {}         # name -> [calls, total_s, self_s]
        self.counts = {}        # name -> [count]
        self.samples = {}       # counted class name -> sampled instances
        self.sigma = {"builds": 0, "build_s": 0.0, "pairs": {}}
        self._stack = [0.0]
        self._patched = []      # (owner, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn):
        st = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[0] += 1
                st[1] += dt
                st[2] += dt - stack.pop()
                stack[-1] += dt
        return wrapper

    def _sigma(self, fn):
        inner = self._timed("metaplectic.sigma", fn)
        sig = self.sigma
        clock = time.perf_counter

        def wrapper(ctx, g):
            hit = g in ctx._sigma_cache
            t0 = clock()
            out = inner(ctx, g)
            if not hit:
                sig["builds"] += 1
                sig["build_s"] += clock() - t0
            pair = sig["pairs"].setdefault(id(ctx), [])
            if len(pair) < 2:
                pair.append(out)
            return out
        return wrapper

    def _counted(self, name, fn, sample):
        cnt = self.counts.setdefault(name, [0])
        keep = self.samples.setdefault(name, [])
        if not sample:
            def wrapper(*args, **kwargs):
                cnt[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        def init(obj, *args):
            cnt[0] += 1
            fn(obj, *args)
            if not cnt[0] % SAMPLE_STRIDE and len(keep) < SAMPLE_CAP:
                keep.append(obj)
        return init

    # -- install / uninstall ---------------------------------------------

    def _swap(self, owner, attr, new):
        old = owner.__dict__[attr]
        self._patched.append((owner, attr, old))
        setattr(owner, attr, new)
        if not isinstance(owner, type):
            # rebind `from .mod import name` copies in the other modules
            for modname in MODULES:
                mod = sys.modules["weilmod." + modname]
                if mod is not owner and mod.__dict__.get(attr) is old:
                    self._patched.append((mod, attr, old))
                    setattr(mod, attr, new)

    def install(self):
        for modname in MODULES:     # cli imports theta only when it is used
            importlib.import_module("weilmod." + modname)
        for name, (modname, path) in TIMED.items():
            owner, attr = _resolve(modname, path)
            fn = owner.__dict__[attr]
            if name == "metaplectic.sigma":
                self._swap(owner, attr, self._sigma(fn))
            else:
                self._swap(owner, attr, self._timed(name, fn))
        cli = importlib.import_module("weilmod.cli")
        for attr in sorted(cli.__dict__):
            if attr.startswith("cmd_"):
                self._swap(cli, attr, self._timed("cli.command",
                                                  cli.__dict__[attr]))
        owner, attr = PARSE_ARGS
        self._swap(owner, attr, self._timed("cli.parse", owner.__dict__[attr]))
        for name, (modname, path) in COUNTED.items():
            owner, attr = _resolve(modname, path)
            self._swap(owner, attr, self._counted(
                name, owner.__dict__[attr], attr == "__init__"))

    def uninstall(self):
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched = []

    # -- kernels (run after uninstall) -----------------------------------

    @staticmethod
    def _per_call(fn, pairs):
        """Median over KERNEL_REPS of the mean time per call of fn over
        pairs."""
        if not pairs:
            return 0.0
        clock = time.perf_counter
        per = []
        for _ in range(KERNEL_REPS):
            t0 = clock()
            for a, b in pairs:
                fn(a, b)
            per.append((clock() - t0) / len(pairs))
        return statistics.median(per)

    def kernels(self):
        from weilmod import linalg
        from weilmod.coeff import Cyc

        def same_kind(objs, attr):
            return [(a, b) for a, b in zip(objs, objs[1:])
                    if getattr(a, attr) is getattr(b, attr)]
        out = {}
        cyc = self.samples.get("coeff.Cyc", [])
        ffe = self.samples.get("coeff.FFElt", [])
        cyc_pairs = same_kind(cyc, "ring")
        ffe_pairs = same_kind(ffe, "field")
        out["coeff.Cyc.mul_ns"] = 1e9 * self._per_call(
            lambda a, b: a * b, cyc_pairs)
        out["coeff.FFElt.mul_ns"] = 1e9 * self._per_call(
            lambda a, b: a * b, ffe_pairs)
        out["coeff.FFElt.add_ns"] = 1e9 * self._per_call(
            lambda a, b: a + b, ffe_pairs)
        # inv caches on the instance, so each rep inverts fresh copies
        nonzero = [c for c in cyc if not c.is_zero()]
        per = []
        for _ in range(KERNEL_REPS if nonzero else 0):
            fresh = [Cyc(c.ring, c.coeffs, c.den) for c in nonzero]
            t0 = time.perf_counter()
            for c in fresh:
                c.inv()
            per.append((time.perf_counter() - t0) / len(fresh))
        out["coeff.Cyc.inv_us"] = 1e6 * statistics.median(per) if per else 0.0
        # one dense sigma(g1) sigma(g2): the first two sigma matrices that one
        # context returned in the run
        pair = next((p for p in self.sigma["pairs"].values() if len(p) == 2),
                    None)
        out["linalg.mat_mul.sigma_us"] = 1e6 * self._per_call(
            linalg.mat_mul, [tuple(pair)] if pair else [])
        return out

    # -- metrics -----------------------------------------------------------

    def layer_values(self, output_bytes=0):
        vals = {}
        for name, (calls, total, self_s) in self.spans.items():
            vals[name + ".calls"] = calls
            vals[name + ".self_ms"] = 1e3 * self_s
        for name, (count,) in self.counts.items():
            suffix = ".calls" if name == "basefield.psi" else ".created"
            vals[name + suffix] = count
        calls = self.spans["metaplectic.sigma"][0]
        vals["metaplectic.sigma.builds"] = self.sigma["builds"]
        vals["metaplectic.sigma.hit_ratio"] = \
            (calls - self.sigma["builds"]) / calls if calls else 0.0
        vals["metaplectic.sigma.build_ms"] = 1e3 * self.sigma["build_s"]
        vals["cli.output_bytes"] = output_bytes
        vals.update(self.kernels())
        return vals

    def span_table(self):
        """Every wrapped span with calls, total and self time, and the self
        time summed by module, for the trace file."""
        spans = {name: {"calls": c, "total_ms": 1e3 * t, "self_ms": 1e3 * s}
                 for name, (c, t, s) in sorted(self.spans.items())}
        modules = {}
        for name, row in spans.items():
            mod = name.split(".")[0]
            modules[mod] = modules.get(mod, 0.0) + row["self_ms"]
        return {"spans": spans, "module_self_ms": modules}
