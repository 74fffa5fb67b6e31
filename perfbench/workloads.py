"""The five workloads.  Each one generates its own inputs from the seed with
plain integers mod p or Fractions, builds the library objects it needs in
`setup` (the timed set-up), runs one closed-loop operation per item in `op`
(the timed part) and checks every output in `check` against the
computations in checks.py.

Library functions are looked up on their module at each call, so the
per-layer wrappers of a traced run see them.  A workload does a fixed
amount of work: `count(seconds)` turns the run
length into a number of whole rounds through a fixed nominal rate, never
through a clock, so cache hit ratios do not depend on the machine's speed.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import checks
from checks import require


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _inverse(a, p=None):
    """Inverse over Q (p None) or mod p by Gauss-Jordan; None if singular."""
    n = len(a)
    rows = [[Fraction(v) for v in a[i]] + [Fraction(int(i == j))
                                           for j in range(n)]
            for i in range(n)]
    if p:
        rows = [[v.numerator * pow(v.denominator, -1, p) % p for v in r]
                for r in rows]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] % p), None) if p \
            else next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, p) if p else 1 / rows[c][c]
        rows[c] = [v * inv % p if p else v * inv for v in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p if p else x - f * y
                           for x, y in zip(rows[i], rows[c])]
    return tuple(tuple(r[n:]) for r in rows)


def random_word(rng, m, length, scale, p=None):
    """A seeded word in torus, unipotent and w_S generators of Sp_2m, as in
    the library's own sampler, but computed here mod p (p given) or over Q;
    the result is checked against g^T J g = J."""
    g = _identity(2 * m)
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            while True:
                a = [[rng.randrange(-scale, scale + 1) for _ in range(m)]
                     for _ in range(m)]
                ainv = _inverse(a, p)
                if ainv is not None:
                    break
            step = [list(a[i]) + [0] * m for i in range(m)] + \
                [[0] * m + [ainv[j][i] for j in range(m)] for i in range(m)]
        elif kind == 1:
            s = [[0] * m for _ in range(m)]
            for i in range(m):
                for j in range(i, m):
                    s[i][j] = s[j][i] = rng.randrange(-scale, scale + 1)
            step = [[int(i == j) for j in range(m)] + s[i] for i in range(m)] \
                + [[0] * m + [int(i == j) for j in range(m)] for i in range(m)]
        else:
            subset = {i for i in range(m) if rng.randrange(2)}
            step = [[0] * (2 * m) for _ in range(2 * m)]
            for i in range(m):
                if i in subset:
                    step[m + i][i] = 1       # e_i -> f_i
                    step[i][m + i] = -1      # f_i -> -e_i
                else:
                    step[i][i] = step[m + i][m + i] = 1
        g = checks.mat_mul(g, step, p)
    require(checks.is_symplectic(g, p), "generated input is symplectic",
            g, "g^T J g = J")
    # Q_p scalars are Fractions in the library; plain ints would divide
    # into floats there
    return g if p else tuple(tuple(Fraction(v) for v in row) for row in g)


def _lib_matrix(field, g):
    return tuple(tuple(field.element(v) for v in row) for row in g)


class Workload:
    name = ""
    rate = 1.0          # nominal operations per second on the reference box
    round_size = 1      # operations per round; a run is whole rounds

    def count(self, seconds):
        rounds = max(1, round(seconds * self.rate / self.round_size))
        return rounds * self.round_size

    def inputs(self, seed, n):
        """n operations' inputs in plain integers and Fractions."""
        raise NotImplementedError

    def setup(self):
        """Import weilmod and build the objects every operation shares;
        returns the environment the other methods take."""
        raise NotImplementedError

    def convert(self, env, items):
        """The inputs as library objects, one item per operation."""
        return items

    def op(self, env, item):
        """One timed operation; returns its output."""
        raise NotImplementedError

    def check(self, env, item, out):
        """Raise CheckError unless out is right."""
        raise NotImplementedError


# ---------------------------------------------------------------------------

class Sp4Fresh(Workload):
    """cocycle_operator on random Sp4(F_3) pairs in one WeilContext over
    Z[zeta_3]: almost every sigma lookup is a build."""
    name = "sp4-fresh"
    rate = 46.0

    def inputs(self, seed, n):
        rng = random.Random(seed)
        return [(random_word(rng, 2, 8, 3, 3), random_word(rng, 2, 8, 3, 3))
                for _ in range(n)]

    def setup(self):
        from weilmod import metaplectic
        from weilmod.basefield import AdditiveCharacter, FqField
        from weilmod.heisenberg import SympSpace
        f3 = FqField(3)
        ctx = metaplectic.WeilContext(SympSpace(f3, 2), AdditiveCharacter(f3))
        return {"field": f3, "ctx": ctx, "mp": metaplectic}

    def convert(self, env, items):
        f = env["field"]
        return [(_lib_matrix(f, g1), _lib_matrix(f, g2)) for g1, g2 in items]

    def op(self, env, item):
        return env["mp"].cocycle_operator(env["ctx"], *item)

    def check(self, env, item, out):
        require(out == env["ctx"].one(), "finite cocycle is 1 over Z[zeta_3]",
                out, 1)


class Sp2Reuse(Workload):
    """Pairs from all of Sp2(F_7), each checked over Z[zeta_7] and over F_8
    (the l = 2 splitting): after first touch every sigma lookup hits."""
    name = "sp2-reuse"
    rate = 120.0

    def inputs(self, seed, n):
        group = checks.sl2(7)
        require(len(group) == checks.sl2_order(7), "|SL2(F_7)| = q(q^2-1)",
                len(group), checks.sl2_order(7))
        for g in group:
            require(checks.is_symplectic(g, 7), "SL2 element is symplectic",
                    g, True)
        rng = random.Random(seed)
        return [(rng.randrange(len(group)), rng.randrange(len(group)))
                for _ in range(n)], group

    def setup(self):
        from weilmod import metaplectic
        from weilmod.basefield import AdditiveCharacter, FqField
        from weilmod.coeff import FiniteField
        from weilmod.heisenberg import SympSpace
        f7 = FqField(7)
        space = SympSpace(f7, 1)
        ctxs = (metaplectic.WeilContext(space, AdditiveCharacter(f7)),
                metaplectic.WeilContext(
                    space, AdditiveCharacter(f7, FiniteField(2, 3))))
        return {"field": f7, "ctxs": ctxs, "mp": metaplectic}

    def convert(self, env, items):
        pairs, group = items
        lib = [_lib_matrix(env["field"], g) for g in group]
        return [(lib[i], lib[j]) for i, j in pairs]

    def op(self, env, item):
        return tuple(env["mp"].cocycle_operator(ctx, *item)
                     for ctx in env["ctxs"])

    def check(self, env, item, out):
        for ctx, c in zip(env["ctxs"], out):
            require(c == ctx.one(), "finite cocycle is 1 (Z[zeta_7], F_8)",
                    c, 1)


class PadicCocycle(Workload):
    """One seeded case over Q_p per operation, always of the same make-up:
    a cocycle-identity triple at m = 1, an operator-versus-formula pair at
    m = 1 and a triple at m = 2.  A round is one case for each p."""
    name = "padic-cocycle"
    rate = 8.0
    round_size = 3
    primes = (3, 5, 7)

    @staticmethod
    def _triple(rng, m):
        g1, g2, g3 = (random_word(rng, m, 5, 2) for _ in range(3))
        return (g1, g2, g3, checks.mat_mul(g1, g2), checks.mat_mul(g2, g3))

    def inputs(self, seed, n):
        rng = random.Random(seed)
        out = []
        for k in range(n):
            p = self.primes[k % len(self.primes)]
            out.append((p, self._triple(rng, 1),
                        (random_word(rng, 1, 4, 2), random_word(rng, 1, 4, 2)),
                        self._triple(rng, 2)))
        return out

    def setup(self):
        from weilmod import metaplectic, schwartz
        from weilmod.basefield import QpField
        from weilmod.heisenberg import SympSpace
        spaces = {}
        for p in self.primes:
            fld = QpField(p)
            spaces[p] = (SympSpace(fld, 1), SympSpace(fld, 2))
        return {"spaces": spaces, "mp": metaplectic, "sw": schwartz}

    def op(self, env, item):
        p, t1, pair, t2 = item
        formula = env["mp"].cocycle_formula
        sp1, sp2 = env["spaces"][p]
        out = []
        for sp, (g1, g2, g3, g12, g23) in ((sp1, t1), (sp2, t2)):
            out.append((formula(sp, g1, g2), formula(sp, g12, g3),
                        formula(sp, g1, g23), formula(sp, g2, g3)))
        cf = formula(sp1, *pair)
        return out, cf, env["sw"].cocycle_operator_padic(p, *pair)

    def check(self, env, item, out):
        triples, cf, co = out
        for c12, c12_3, c1_23, c23 in triples:
            for c in (c12, c12_3, c1_23, c23):
                require(c in (1, -1), "p-adic cocycle is +-1", c, "+-1")
            require(c12 * c12_3 == c1_23 * c23, "2-cocycle identity",
                    (c12, c12_3, c1_23, c23), "c12 c(12)3 = c1(23) c23")
        require(cf in (1, -1), "p-adic cocycle is +-1", cf, "+-1")
        require(co == co.ring.one() * cf, "operator path = formula path",
                co, cf)


class ThetaCongruence(Workload):
    """congruence_check(V, 1, l) over F_3 for V in {diag:1, diag:1,2,
    diag:1,1} and banal l in {5, 7, 11, 13}; a round is all twelve cases in
    a seeded order."""
    name = "theta-congruence"
    rate = 1.0
    forms = ((1,), (1, 2), (1, 1))
    ells = (5, 7, 11, 13)
    round_size = len(forms) * len(ells)

    def inputs(self, seed, n):
        rng = random.Random(seed)
        cases = [(d, ell) for d in self.forms for ell in self.ells]
        items = []
        while len(items) < n:
            rnd = list(cases)
            rng.shuffle(rnd)
            items.extend(rnd)
        want = {}
        for d in self.forms:
            gram = tuple(tuple(d[i] if i == j else 0 for j in range(len(d)))
                         for i in range(len(d)))
            group = checks.orthogonal_group(gram, 3)
            chars = checks.pm_characters(group, 3)
            trivial = next(c for c in chars
                           if all(v == 1 for v in c.values()))
            want[d] = (sorted(checks.theta_dim(group, c, 3) for c in chars),
                       checks.theta_dim(group, trivial, 3))
        return [(d, ell, want[d]) for d, ell in items]

    def setup(self):
        from weilmod import theta
        from weilmod.basefield import FqField
        from weilmod.quadratic import QuadraticForm
        return {"field": FqField(3), "form": QuadraticForm, "theta": theta}

    def convert(self, env, items):
        f3 = env["field"]
        forms = {}
        for d, _, _ in items:
            if d not in forms:
                forms[d] = env["form"](f3, [[d[i] if i == j else 0
                                             for j in range(len(d))]
                                            for i in range(len(d))])
        return [(forms[d], ell, want) for d, ell, want in items]

    def op(self, env, item):
        return env["theta"].congruence_check(item[0], 1, item[1])

    def check(self, env, item, out):
        _, _, (dims, trivial_dim) = item
        got = sorted(r["dim"] for r in out["lifts"])
        require(got == dims, "theta dimensions = character formula", got,
                dims)
        triv = [r["dim"] for r in out["lifts"] if r["chi1"] == "trivial"]
        require(triv == [trivial_dim], "dim Theta(trivial)", triv,
                trivial_dim)
        require(out.get("idempotent_reduction") is True,
                "idempotent reduction holds", out.get("idempotent_reduction"),
                True)
        for r in out["lifts"]:
            require(r["irreducible_charl"] or not r["irreducible_char0"],
                    "irreducible in char 0 => irreducible in char l", r,
                    "irreducible_charl")


class CliQueries(Workload):
    """weilmod.cli.main(argv) in-process on a seeded round of the README's
    small queries, repeated; the round holds a fixed share of invalid
    inputs, four of which currently end in a traceback."""
    name = "cli-queries"
    rate = 90.0
    round_size = 20

    # Inputs the README says end with exit 2; today they raise instead.
    KNOWN_FAULTS = (
        ["hilbert", "--field=qp:5", "--a=0", "--b=2"],
        ["hilbert", "--field=qp:5", "--a=1/0", "--b=2"],
        ["theta", "--field=fq:3:1", "--V=diag:1", "--coeff=fl:2:1"],
        ["cocycle", "--field=qp:5", "--m=1", "--g1=1,0,0,0",
         "--g2=1,0,5,1", "--path=formula"],
    )

    @staticmethod
    def _rat(rng, p):
        num = rng.choice((1, -1)) * rng.randrange(1, 40)
        return Fraction(num * p ** rng.randrange(3), rng.randrange(1, 20))

    @staticmethod
    def _unit(rng, p):
        while True:
            n, d = rng.randrange(1, 30), rng.randrange(1, 10)
            if n % p and d % p:
                return Fraction(rng.choice((1, -1)) * n, d)

    @staticmethod
    def _flat(g):
        return ",".join(str(v) for row in g for v in row)

    def _round(self, rng):
        q = []
        p = rng.choice((3, 5, 7))
        a, b = self._rat(rng, p), self._rat(rng, p)
        q.append((["hilbert", "--field=qp:%d" % p, "--a=%s" % a,
                   "--b=%s" % b], ("hilbert", checks.hilbert_qp(a, b, p))))
        q.append((self.KNOWN_FAULTS[0], ("exit", 2)))
        q.append((self.KNOWN_FAULTS[1], ("exit", 2)))
        p = rng.choice((3, 5, 7))
        vals = [self._rat(rng, p) for _ in range(3)]
        det = vals[0] * vals[1] * vals[2]
        q.append((["hasse", "--field=qp:%d" % p,
                   "--form=diag:" + ",".join(str(v) for v in vals)],
                  ("hasse", (checks.hasse_diag(vals, p),
                             checks.square_class_tag(det, p)))))
        p = rng.choice((3, 5, 7))
        diag = [rng.randrange(1, p) for _ in range(2)]
        q.append((["omega", "--field=fq:%d:1" % p,
                   "--form=diag:" + ",".join(map(str, diag))],
                  ("omega", [str(c) for c in checks.gauss_product(diag, p)])))
        p = rng.choice((3, 5, 7))
        units = [self._unit(rng, p) for _ in range(2)]
        one = ["1"] + ["0"] * (p - 2)
        q.append((["omega", "--field=qp:%d" % p,
                   "--form=diag:" + ",".join(str(u) for u in units)],
                  ("omega", one)))
        g = rng.choice(checks.sl2(3))
        q.append((["bruhat", "--field=fq:3:1", "--m=1",
                   "--g=" + self._flat(g)], ("bruhat", g)))
        q.append((["bruhat", "--field=fq:3:1", "--m=1", "--g=1,1,1,1"],
                  ("exit", 2)))
        p = rng.choice((3, 5))
        group = checks.sl2(p)
        g1, g2 = rng.choice(group), rng.choice(group)
        q.append((["cocycle", "--field=fq:%d:1" % p, "--m=1",
                   "--g1=" + self._flat(g1), "--g2=" + self._flat(g2),
                   "--path=operator"],
                  ("cyc-one", p)))
        p = rng.choice((3, 5, 7))
        g1, g2 = random_word(rng, 1, 4, 2), random_word(rng, 1, 4, 2)
        pair = ["--field=qp:%d" % p, "--m=1", "--g1=" + self._flat(g1),
                "--g2=" + self._flat(g2)]
        q.append((["cocycle"] + pair + ["--path=formula"], ("formula", None)))
        q.append((["cocycle"] + pair + ["--path=operator"],
                  ("operator", None)))
        q.append((self.KNOWN_FAULTS[3], ("exit", 2)))
        q.append((["weilrep", "--field=fq:3:1", "--m=1"], ("weilrep", 3)))
        q.append((["heisenberg", "--field=fq:3:1", "--m=1"],
                  ("heisenberg", 3)))
        q.append((["theta", "--field=fq:3:1", "--V=diag:1", "--mprime=1",
                   "--coeff=cyclo", "--out=csv"], ("theta-csv", None)))
        q.append((["theta", "--field=fq:3:1", "--V=diag:1", "--mprime=1",
                   "--coeff=fl:7:1"], ("theta-json", None)))
        q.append((self.KNOWN_FAULTS[2], ("exit", 2)))
        q.append((["hilbert", "--field=fq:2:1", "--a=1", "--b=1"],
                  ("exit", 2)))
        q.append((["hilbert", "--field=qp:5", "--a=1"], ("exit", 2)))
        q.append((["omega", "--field=qp:%d" % p, "--form=diag:1,1",
                   "--approx"], ("approx", None)))
        return q

    def inputs(self, seed, n):
        rnd = self._round(random.Random(seed))
        require(len(rnd) == self.round_size, "round size", len(rnd),
                self.round_size)
        for q in (3, 5):
            require(len(checks.sl2(q)) == checks.sl2_order(q),
                    "|SL2(F_q)| = q(q^2-1)", len(checks.sl2(q)),
                    checks.sl2_order(q))
        o1 = checks.orthogonal_group(((1,),), 3)
        theta_dims = sorted(checks.theta_dim(o1, c, 3)
                            for c in checks.pm_characters(o1, 3))
        items = []
        for k in range(n):
            argv, want = rnd[k % len(rnd)]
            items.append((k % len(rnd), argv, want, theta_dims))
        return items

    def setup(self):
        from weilmod import cli
        return {"cli": cli, "first": {}, "formula": None, "output_bytes": 0}

    def op(self, env, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = env["cli"].main(item[1])
            except SystemExit as ex:
                code = ex.code
        return code, out.getvalue(), err.getvalue()

    def check(self, env, item, out):
        slot, argv, (kind, want), theta_dims = item
        code, text, err = out
        env["output_bytes"] += len(text.encode())
        first = env["first"].setdefault(slot, text)
        require(text == first, "repeated query gives identical stdout",
                text[:80], first[:80])
        if kind == "exit":
            require(code == want and not text and err,
                    "invalid input exits 2 with a message", (code, err), want)
            return
        require(code == 0 and not err, "query %s succeeds" % argv[0],
                (code, err), 0)
        if kind == "theta-csv":
            lines = text.strip().split("\n")
            cols = lines[0].split(",")
            rows = [dict(zip(cols, ln.split(","))) for ln in lines[1:]]
            dims = sorted(int(r["dim_theta"]) for r in rows)
            require(dims == theta_dims, "theta csv dimensions", dims,
                    theta_dims)
            return
        res = json.loads(text)
        if kind == "hilbert":
            require(res == {"value": want}, "Hilbert symbol", res, want)
        elif kind == "hasse":
            got = (res["value"], res["det_class"])
            require(got == want, "Hasse invariant and det class", got, want)
        elif kind == "omega":
            require(res["value"]["coeffs"] == want, "Weil factor", res, want)
        elif kind == "approx":
            approx = res["value"].get("approx_nonauthoritative")
            require(res["value"]["coeffs"][0] == "1" and
                    isinstance(approx, list), "labelled approx", res,
                    "approx_nonauthoritative")
        elif kind == "bruhat":
            self._check_bruhat(want, res)
        elif kind == "cyc-one":
            one = ["1"] + ["0"] * (want - 2)
            require(res["value"]["coeffs"] == one, "finite cocycle is 1",
                    res, one)
        elif kind in ("formula", "operator"):
            val = res["value"]
            require(val in (1, -1), "p-adic cocycle is +-1", val, "+-1")
            if kind == "formula":
                env["formula"] = val
            require(val == env["formula"], "operator path = formula path",
                    val, env["formula"])
        elif kind == "weilrep":
            gs = sorted(tuple(tuple(int(x) for x in row) for row in o["g"])
                        for o in res["operators"])
            want_gs = sorted(checks.sl2(want))
            require(res["count"] == checks.sl2_order(want) and
                    gs == want_gs, "weilrep lists all of SL2(F_q)",
                    res["count"], checks.sl2_order(want))
        elif kind == "heisenberg":
            require(res["count"] == want ** 3 and
                    len(res["operators"]) == want ** 3,
                    "Heisenberg group of order q^3", res["count"], want ** 3)
        elif kind == "theta-json":
            dims = sorted(r["dim_theta"] for r in res)
            require(dims == theta_dims, "theta dimensions", dims, theta_dims)

    @staticmethod
    def _check_bruhat(g, res):
        p1 = tuple(tuple(int(x) for x in row) for row in res["p1"])
        p2 = tuple(tuple(int(x) for x in row) for row in res["p2"])
        j = res["j"]
        w = ((0, -1), (1, 0)) if j == 1 else ((1, 0), (0, 1))
        prod = checks.mat_mul(checks.mat_mul(p1, w, 3), p2, 3)
        require(prod == g, "p1 w_j p2 = g", prod, g)
        require(p1[1][0] == 0 and p2[1][0] == 0, "Bruhat factors parabolic",
                (p1, p2), "lower-left 0")
        require(j == (1 if g[1][0] else 0), "Bruhat cell", j, g)
        tag = "1" if checks.legendre(p1[0][0] * p2[0][0], 3) == 1 else "nu"
        require(res["x_class"] == tag, "x(g) square class", res["x_class"],
                tag)


WORKLOADS = {w.name: w for w in (Sp4Fresh(), Sp2Reuse(), PadicCocycle(),
                                 ThetaCongruence(), CliQueries())}
