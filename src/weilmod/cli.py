"""Batch command-line frontend: every computation as a reproducible,
machine-readable JSON/CSV query.  No floating point in the output; an
optional --approx flag appends a clearly-labelled complex embedding."""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from functools import partial

from . import linalg
from .basefield import (AdditiveCharacter, InputError, parse_character,
                        parse_field, points)
from .coeff import Cyc, FFElt, FiniteField
from .heisenberg import Monomial, SympSpace, SchrodingerModel, delta
from .metaplectic import (WeilContext, bruhat_decompose, cocycle_formula,
                          cocycle_operator, enumerate_sp2, formula_report,
                          first_nontrivial_pair, sigma, x_invariant)
from .quadratic import QuadraticForm, det_hasse, hilbert
from .schwartz import cocycle_operator_padic
from .weilfactor import omega


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def scalar_json(v, approx=False):
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return {"rational": str(v)}
    if isinstance(v, Cyc):
        out = {"ring": repr(v.ring),
               "coeffs": [str(Fraction(c, v.den)) for c in v.coeffs]}
        if approx:
            z = v.approx()
            out["approx_nonauthoritative"] = [z.real, z.imag]
        return out
    if isinstance(v, FFElt):
        return {"ring": repr(v.field), "value": v.i}
    return str(v)


def matrix_json(m, approx, memo):
    """m's entries as scalar_json writes them, each distinct scalar once:
    memo maps (type, ring, value) to its JSON.  A command makes the memo,
    so it lives for one query.  The ring is part of the key because equal
    values of two rings (Z[zeta_3] and Z[zeta_9]) hash equal but print
    different rings."""
    out = []
    for row in m:
        line = []
        for x in row:
            key = (type(x), getattr(x, "ring", None), x)
            js = memo.get(key)
            if js is None:
                js = memo[key] = scalar_json(x, approx)
            line.append(js)
        out.append(line)
    return out


def matrix_str(m):
    return [[str(x) for x in row] for row in m]


def emit(payload, fmt, path):
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    else:
        rows = payload if isinstance(payload, list) else [payload]
        cols = sorted({k for r in rows for k in r})
        lines = [",".join(cols)]
        for r in rows:
            lines.append(",".join(_csv_cell(r.get(c)) for c in cols))
        text = "\n".join(lines)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True).replace(",", ";")
    return str(v)


def parse_scalar(field, s):
    try:
        if field.flavor == "finite":
            return field.from_int(int(s))
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise InputError("bad number %r" % (s,)) from None


def parse_form(field, desc):
    if desc.startswith("diag:"):
        entries = [parse_scalar(field, x) for x in desc[5:].split(",")]
        z = field.zero()
        gram = [[entries[i] if i == j else z for j in range(len(entries))]
                for i in range(len(entries))]
        return QuadraticForm(field, gram)
    if desc.startswith("gram:"):
        vals = [parse_scalar(field, x) for x in desc[5:].split(",")]
        n = math.isqrt(len(vals))
        if n * n != len(vals):
            raise InputError("gram entries must form a square matrix")
        return QuadraticForm(field, [vals[i * n:(i + 1) * n]
                                     for i in range(n)])
    raise InputError("form must be diag:... or gram:...")


def parse_space(field, m):
    if m < 1:
        raise InputError("--m must be at least 1, got %d" % m)
    return SympSpace(field, m)


def parse_matrix(field, desc, size):
    vals = [parse_scalar(field, x) for x in desc.split(",")]
    if len(vals) != size * size:
        raise InputError("matrix needs %d row-major entries" % (size * size))
    return linalg.mat([vals[i * size:(i + 1) * size] for i in range(size)])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# the most ring entries a weilrep or heisenberg dump may hold
DUMP_CAP = 200_000
# the largest model dimension q^m of the finite operator cocycle, whose
# count model holds q^m x q^m tables: it admits F_3 at m = 6 (729) and
# refuses F_7 at m = 4 (2,401)
OPERATOR_DIM_CAP = 729
# the most pairs, |SL2(F_q)|^2, that --exhaustive checks: it admits F_9
# (518,400 pairs) and refuses F_11 (1,742,400)
EXHAUSTIVE_PAIR_CAP = 10 ** 6


def cmd_omega(args):
    field = parse_field(args.field)
    q = parse_form(field, args.form)
    psi = parse_character(field, args.psi)
    w = omega(q, psi)
    return {"value": scalar_json(w, args.approx),
            "ring": repr(w.ring) if isinstance(w, Cyc) else repr(w.field)}


def cmd_hilbert(args):
    field = parse_field(args.field)
    a = parse_scalar(field, args.a)
    b = parse_scalar(field, args.b)
    if not a or not b:
        raise InputError("the Hilbert symbol needs nonzero a and b")
    return {"value": hilbert(field, a, b)}


def cmd_hasse(args):
    field = parse_field(args.field)
    q = parse_form(field, args.form)
    if not q.is_nondegenerate():
        raise InputError("hasse takes a nondegenerate form; %r is "
                         "degenerate over %r" % (args.form, field))
    det, h = det_hasse(field, field, q.diagonalize()[1])
    return {"value": h, "det_class": det.tag}


def cmd_bruhat(args):
    field = parse_field(args.field)
    space = parse_space(field, args.m)
    g = parse_matrix(field, args.g, 2 * args.m)
    if not space.is_symplectic(g):
        raise InputError("matrix is not symplectic")
    bd = bruhat_decompose(space, g)
    return {"j": bd.j,
            "p1": matrix_str(bd.p1),
            "p2": matrix_str(bd.p2),
            "x_class": x_invariant(space, g).tag}


def cmd_cocycle(args):
    field = parse_field(args.field)
    space = parse_space(field, args.m)
    psi = parse_character(field, args.psi)
    if args.rao and args.path == "operator":
        raise InputError("--rao applies to --path formula only")
    # only the finite operator path reads psi; over F_q the twist is an
    # FFElt, which never equals the int 1
    if psi.twist != field.one():
        if field.flavor != "finite":
            raise InputError("the Q_p cocycle paths use the level-0 "
                             "character only, got --psi %s" % args.psi)
        if args.path == "formula":
            raise InputError("--psi applies to --path operator only, got "
                             "--psi %s" % args.psi)
    # q >= 3, so every m >= 7 is too large: min keeps the power small
    if args.path == "operator" and field.flavor == "finite" and \
            field.q ** min(args.m, 7) > OPERATOR_DIM_CAP:
        raise InputError("--path operator over F_q takes q^m <= %d, got "
                         "q = %d, m = %d" % (OPERATOR_DIM_CAP, field.q,
                                             args.m))
    if args.exhaustive:
        if field.flavor != "finite" or args.m != 1:
            raise InputError("--exhaustive needs a finite field and m = 1")
        if args.g1 is not None or args.g2 is not None:
            raise InputError("--exhaustive runs over all pairs: drop "
                             "--g1 and --g2")
        total = (field.q * (field.q ** 2 - 1)) ** 2
        if total > EXHAUSTIVE_PAIR_CAP:
            raise InputError("--exhaustive over F_%d has %d pairs, above the "
                             "cap of %d; reduce q"
                             % (field.q, total, EXHAUSTIVE_PAIR_CAP))
        if args.path == "operator":
            ctx = WeilContext(space, psi)
            cocycle, one = partial(cocycle_operator, ctx), ctx.one()
        else:
            cocycle, one = partial(cocycle_formula, space, rao=args.rao), 1
        pairs, witness = first_nontrivial_pair(space, cocycle, one)
        if witness is None:
            return {"trivial": True, "pairs": pairs}
        g1, g2, value = witness
        if args.path == "operator":
            value = scalar_json(value, args.approx)
        return {"trivial": False, "pairs": pairs,
                "g1": matrix_str(g1),
                "g2": matrix_str(g2),
                "value": value}, 1
    if args.g1 is None or args.g2 is None:
        raise InputError("--g1 and --g2 are required without --exhaustive")
    g1 = parse_matrix(field, args.g1, 2 * args.m)
    g2 = parse_matrix(field, args.g2, 2 * args.m)
    for name, g in (("g1", g1), ("g2", g2)):
        if not space.is_symplectic(g):
            raise InputError("%s is not symplectic" % name)
    if args.path == "operator":
        if field.flavor == "finite":
            ctx = WeilContext(space, psi)
            c = cocycle_operator(ctx, g1, g2)
            value = scalar_json(c, args.approx)
        else:
            if args.m != 1:
                raise InputError("p-adic operator path is m = 1 only")
            c = cocycle_operator_padic(field.p, g1, g2)
            one = c.ring.one()
            value = 1 if c == one else (-1 if c == -one
                                        else scalar_json(c, args.approx))
        return {"value": value, "path": "operator"}
    ld, val, x1, x2 = formula_report(space, g1, g2, rao=args.rao)
    return {"value": val, "path": "formula", "x_g1": x1.tag, "x_g2": x2.tag,
            "leray": {"S": list(ld.s), "S1": list(ld.s1), "S2": list(ld.s2),
                      "rho": matrix_str(ld.rho)}}


def cmd_weilrep(args):
    field = parse_field(args.field)
    if field.flavor != "finite":
        raise InputError("weilrep dump is finite-field only")
    space = parse_space(field, args.m)
    if args.m != 1:
        raise InputError("full dump provided for m = 1 (use cocycle for m=2)")
    # |SL2(F_q)| matrices of size q x q are q^3 (q^2 - 1) ring entries: the
    # cap admits F_11 (159,720 entries) and refuses F_13 and F_25
    if field.q ** 3 * (field.q ** 2 - 1) > DUMP_CAP:
        raise InputError("group too large to dump; reduce q")
    psi = parse_character(field, args.psi)
    ctx = WeilContext(space, psi)
    group = enumerate_sp2(space)
    memo, out = {}, []
    for g in group:
        out.append({"g": matrix_str(g),
                    "matrix": matrix_json(sigma(ctx, g), args.approx, memo)})
    return {"field": args.field, "count": len(out), "operators": out}


def cmd_heisenberg(args):
    field = parse_field(args.field)
    if field.flavor != "finite":
        raise InputError("heisenberg dump is finite-field only")
    space = parse_space(field, args.m)
    # q^(2m+1) operators of size q^m x q^m are q^(4m+1) ring entries, the
    # cap weilrep has: it admits F_11 at m = 1 and F_3 at m = 2, and refuses
    # F_13 at m = 1 and F_3 at m = 3.  q >= 3, so every m >= 4 is too large:
    # min keeps the power small
    if field.q ** (4 * min(args.m, 4) + 1) > DUMP_CAP:
        raise InputError("group too large to dump; reduce q or m")
    psi = parse_character(field, args.psi)
    model = SchrodingerModel(space, psi)
    zero, memo, out = psi.coeff_ring.zero(), {}, []
    # (w, t) = (w, 0)(0, t) and the center acts by its character: rho((w,
    # t)) = psi(t) rho((w, 0)), so one rho per w serves its q operators,
    # which follow it in points' order (t, the last coordinate, fastest).
    # Each phase of rho((w, 0)) is psi(s) for an s found once in `at`, and
    # psi(t) psi(s) = psi(t + s) is a read of psi's table, not a product
    at = {}
    for s in field.elements():
        at.setdefault(psi(s), s)
    for w in points(field, 2 * args.m):
        op = model.rho(delta(space, w))
        logs = [at[x] for x in op.phases]
        for t in field.elements():
            scaled = Monomial(op.perm, [psi(t + s) for s in logs])
            out.append({"w": [str(x) for x in w], "t": str(t),
                        "matrix": matrix_json(scaled.to_dense(zero),
                                              args.approx, memo)})
    payload = {"field": args.field, "m": args.m, "count": len(out),
               "operators": out}
    if args.emit:
        with open(args.emit, "w") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        return {"written": args.emit, "count": len(out)}
    return payload


def cmd_theta(args):
    from .theta import ThetaLift, dual_pair, zero_side
    field = parse_field(args.field)
    if field.flavor != "finite":
        raise InputError("theta lifts are finite-field only")
    v_form = parse_form(field, args.V)
    pair = dual_pair(v_form, args.mprime)
    if args.coeff == "cyclo":
        rows = []
        for (label, _), (lift, _, irr) in zip(
                pair.characters, zero_side(v_form, args.mprime)[1]):
            rows.append({"pi1": label, "dim_theta": lift.dim})
            if lift.dim:
                rows[-1]["irreducible"] = bool(irr)
        return rows
    parts = args.coeff.split(":")
    if len(parts) != 3 or parts[0] != "fl" or \
            not all(x.isdigit() for x in parts[1:]):
        raise InputError("bad coefficient descriptor %r (cyclo or fl:l:d)"
                         % args.coeff)
    ell, d = int(parts[1]), int(parts[2])
    ffl = FiniteField(ell, d)   # refuses d < 1, q > MAX_Q, then composite l
    if pow(ell, d, field.p) != 1:
        raise InputError("%s: F_{l^d} holds no p-th root of unity (p = %d "
                         "does not divide l^d - 1)" % (args.coeff, field.p))
    ctx = WeilContext(pair.space, AdditiveCharacter(field, ffl))
    return [{"pi1": label, "dim_theta": ThetaLift(pair, ctx, chi).dim}
            for label, chi in pair.characters]


def cmd_selfcheck(args):
    from . import selfcheck
    report, ok = selfcheck.run_all(args.seed)
    for line in report:
        sys.stdout.write(line + "\n")
    return {"ok": ok, "seed": args.seed,
            "suites": len(report)}, (0 if ok else 1)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors end, like every invalid input, with one line and exit
    2; add_subparsers gives each subcommand parser this class too.  An
    argument that starts with "-" and a digit, such as the matrix
    "-1,0,0,-1" or the fraction "-1/2", is a value as a plain "-1" is:
    no option of weilmod looks like that."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.exit(2, "error: %s\n" % message)


def build_parser():
    ap = _Parser(
        prog="weilmod",
        description="exact Weil representations, metaplectic cocycles and "
                    "theta lifts over F_q and Q_p")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, ring_scalars=False):
        p.add_argument("--field", required=True, help="fq:p:f or qp:p")
        p.add_argument("--out", default="json",
                       help="json, csv, or an output file path")
        if ring_scalars:
            p.add_argument("--psi", default=None,
                           help="psi:standard | psi:level0 | psi:twist:<c>")
            p.add_argument("--approx", action="store_true",
                           help="append non-authoritative complex embeddings")

    p = sub.add_parser("omega", help="non-normalised Weil factor")
    common(p, ring_scalars=True)
    p.add_argument("--form", required=True, help="diag:a,b,... or gram:...")

    p = sub.add_parser("hilbert", help="quadratic Hilbert symbol")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("hasse", help="Hasse invariant of a quadratic form")
    common(p)
    p.add_argument("--form", required=True)

    p = sub.add_parser("bruhat", help="Bruhat decomposition and x(g)")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--g", required=True, help="row-major 2m x 2m entries")

    p = sub.add_parser("cocycle", help="metaplectic 2-cocycle")
    common(p, ring_scalars=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--g1")
    p.add_argument("--g2")
    p.add_argument("--path", choices=["formula", "operator"],
                   default="formula")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--rao", action="store_true",
                   help="Rao-normalized variant (2,x(g))-twisted")

    p = sub.add_parser("weilrep", help="dump sigma operator matrices")
    common(p, ring_scalars=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("heisenberg", help="dump Heisenberg model operators")
    common(p, ring_scalars=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--emit", help="write JSON to this path")

    p = sub.add_parser("theta", help="theta lift table for a dual pair")
    common(p)
    p.add_argument("--V", required=True, help="quadratic space, diag:...")
    p.add_argument("--mprime", type=int, default=1)
    p.add_argument("--coeff", default="cyclo", help="cyclo or fl:l:d")

    p = sub.add_parser("selfcheck", help="run the invariant suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="json")
    return ap


_PARSER = None


def main(argv=None):
    """Run one query and return its exit code: 0, 1 when a check fails, 2
    on invalid input, a usage error included (argparse's SystemExit is
    caught, so an in-process caller sees every code as a return value).
    main may be called any number of times in one process.  The parser is
    built on the first call and holds no function: each call looks its
    subcommand up by name, so a cmd_* rebound since (a test's monkeypatch,
    a tracer's wrapper) is the one that runs."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as ex:
        return ex.code
    fmt, path = "json", None
    out = getattr(args, "out", "json")
    if out in ("json", "csv"):
        fmt = out
    else:
        path = out
        fmt = "csv" if out.endswith(".csv") else "json"
    try:
        result = globals()["cmd_" + args.command](args)
        code = 0
        if isinstance(result, tuple):
            result, code = result
        emit(result, fmt, path)
    except (InputError, ValueError, OSError) as ex:
        sys.stderr.write("error: %s\n" % ex)
        return 2
    except RuntimeError as ex:
        sys.stderr.write("check failure: %s\n" % ex)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
