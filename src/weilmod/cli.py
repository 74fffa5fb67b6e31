"""Batch command-line frontend: every computation as a reproducible,
machine-readable JSON/CSV query.  No floating point in the output; an
optional --approx flag appends a clearly-labelled complex embedding."""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from fractions import Fraction

from . import linalg
from .basefield import (AdditiveCharacter, HaarConvention, InputError,
                        parse_character, parse_field)
from .coeff import Cyc, CyclotomicRing, FFElt, FiniteField
from .heisenberg import SympSpace, SchrodingerModel, delta, central
from .metaplectic import (WeilContext, bruhat_decompose, cocycle_formula,
                          cocycle_operator, enumerate_sp2, leray_decompose,
                          leray_x_classes, sigma, x_invariant)
from .quadratic import QuadraticForm, hilbert
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


def matrix_json(m, approx=False):
    return [[scalar_json(x, approx) for x in row] for row in m]


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


def parse_form(field, desc, dim=None):
    if desc.startswith("diag:"):
        entries = [parse_scalar(field, x) for x in desc[5:].split(",")]
        z = field.element(0)
        gram = [[entries[i] if i == j else z for j in range(len(entries))]
                for i in range(len(entries))]
        return QuadraticForm(field, gram)
    if desc.startswith("gram:"):
        vals = [parse_scalar(field, x) for x in desc[5:].split(",")]
        n = int(round(len(vals) ** 0.5))
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

def cmd_omega(args):
    field = parse_field(args.field)
    q = parse_form(field, args.form)
    psi = parse_character(field, args.psi)
    w = omega(q, HaarConvention.default_for(field), psi)
    return {"value": scalar_json(w.value, args.approx),
            "ring": repr(w.value.ring) if isinstance(w.value, Cyc)
            else repr(w.value.field)}


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
    if len(q.diagonalize()[1]) < q.m:
        raise InputError("hasse takes a nondegenerate form; %r is "
                         "degenerate over %r" % (args.form, field))
    return {"value": q.hasse(), "det_class": q.det_square_class().tag}


def cmd_bruhat(args):
    field = parse_field(args.field)
    space = parse_space(field, args.m)
    g = parse_matrix(field, args.g, 2 * args.m)
    bd = bruhat_decompose(space, g)
    return {"j": bd.j,
            "p1": [[str(x) for x in row] for row in bd.p1],
            "p2": [[str(x) for x in row] for row in bd.p2],
            "x_class": x_invariant(space, g, bd).tag}


def cmd_cocycle(args):
    field = parse_field(args.field)
    space = parse_space(field, args.m)
    psi = parse_character(field, args.psi)
    if args.exhaustive:
        if field.flavor != "finite" or args.m != 1:
            raise InputError("--exhaustive needs a finite field and m = 1")
        ctx = WeilContext(space, psi)
        group = enumerate_sp2(space)
        pairs = 0
        for g1 in group:
            for g2 in group:
                if args.path == "operator":
                    c = cocycle_operator(ctx, g1, g2)
                    trivial = c == ctx.one()
                    value = None if trivial else scalar_json(c, args.approx)
                else:
                    value = cocycle_formula(space, g1, g2)
                    trivial = value == 1
                if not trivial:
                    # the first offending pair is the witness
                    return {"trivial": False, "pairs": pairs,
                            "g1": [[str(x) for x in row] for row in g1],
                            "g2": [[str(x) for x in row] for row in g2],
                            "value": value}, 1
                pairs += 1
        return {"trivial": True, "pairs": pairs}
    if args.g1 is None or args.g2 is None:
        raise InputError("--g1 and --g2 are required without --exhaustive")
    if field.flavor != "finite" and psi.twist != 1:
        raise InputError("the Q_p cocycle paths use the level-0 character "
                         "only, got --psi %s" % args.psi)
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
    ld = leray_decompose(space, g1, g2)
    val = cocycle_formula(space, g1, g2, rao=args.rao, leray=ld)
    x1, x2, _ = leray_x_classes(space, ld)
    return {"value": val,
            "path": "formula",
            "leray": {"S": list(ld.s), "S1": list(ld.s1), "S2": list(ld.s2),
                      "rho": [[str(x) for x in row] for row in ld.rho]},
            "x_g1": x1.tag,
            "x_g2": x2.tag}


def cmd_weilrep(args):
    field = parse_field(args.field)
    if field.flavor != "finite":
        raise InputError("weilrep dump is finite-field only")
    space = parse_space(field, args.m)
    if args.m != 1:
        raise InputError("full dump provided for m = 1 (use cocycle for m=2)")
    # |SL2(F_q)| matrices of size q x q are q^3 (q^2 - 1) ring entries: the
    # cap admits F_11 (159,720 entries) and refuses F_13 and F_25
    if field.q ** 3 * (field.q ** 2 - 1) > 200_000:
        raise InputError("group too large to dump; reduce q")
    psi = parse_character(field, args.psi)
    ctx = WeilContext(space, psi)
    group = enumerate_sp2(space)
    out = []
    for g in group:
        out.append({"g": [[str(x) for x in row] for row in g],
                    "matrix": matrix_json(sigma(ctx, g), args.approx)})
    return {"field": args.field, "count": len(out), "operators": out}


def cmd_heisenberg(args):
    field = parse_field(args.field)
    if field.flavor != "finite":
        raise InputError("heisenberg dump is finite-field only")
    space = parse_space(field, args.m)
    # q >= 2, so every m >= 6 is too large: the cap keeps the power small
    if field.q ** (2 * min(args.m, 6) + 1) > 3000:
        raise InputError("group too large to dump; reduce q or m")
    psi = parse_character(field, args.psi)
    model = SchrodingerModel(space, psi)
    out = []
    elts = field.elements()
    for w in itertools.product(elts, repeat=2 * args.m):
        for t in elts:
            h = delta(space, w) * central(space, t.i)
            out.append({"w": [str(x) for x in w], "t": str(t),
                        "matrix": matrix_json(
                            model.rho(h).to_dense(psi.coeff_ring.zero()),
                            args.approx)})
    payload = {"field": args.field, "m": args.m, "count": len(out),
               "operators": out}
    if args.emit:
        with open(args.emit, "w") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        return {"written": args.emit, "count": len(out)}
    return payload


def cmd_theta(args):
    from .theta import (DualPair, RestrictedWeil, ThetaLift, char_inner,
                        group_inverses, labelled_characters,
                        linear_pm_characters)
    field = parse_field(args.field)
    if field.flavor != "finite":
        raise InputError("theta lifts are finite-field only")
    v_form = parse_form(field, args.V)
    pair = DualPair(v_form, args.mprime)
    if args.coeff == "cyclo" or args.coeff is None:
        psi = AdditiveCharacter(field, CyclotomicRing(field.p))
    else:
        parts = args.coeff.split(":")
        if len(parts) != 3 or parts[0] != "fl" or \
                not all(x.isdigit() for x in parts[1:]):
            raise InputError("bad coefficient descriptor %r (cyclo or "
                             "fl:l:d)" % args.coeff)
        ell, d = int(parts[1]), int(parts[2])
        if d < 1 or pow(ell, d, field.p) != 1:
            raise InputError("%s: F_{l^d} holds no p-th root of unity "
                             "(p = %d does not divide l^d - 1)"
                             % (args.coeff, field.p))
        psi = AdditiveCharacter(field, FiniteField(ell, d))
    rw = RestrictedWeil(pair, psi)
    chars = linear_pm_characters(pair.h1_list, linalg.mat_mul)
    inv2 = group_inverses(pair.h2_list, field)
    rows = []
    for label, chi in labelled_characters(chars):
        lift = ThetaLift(rw, chi)
        row = {"pi1": label, "dim_theta": lift.dim}
        if isinstance(psi.coeff_ring, CyclotomicRing) and lift.dim:
            ch = lift.character()
            row["irreducible"] = bool(
                char_inner(pair.h2_list, ch, ch, inv2) == psi.coeff_ring.one())
        rows.append(row)
    return rows


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
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("hilbert", help="quadratic Hilbert symbol")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("hasse", help="Hasse invariant of a quadratic form")
    common(p)
    p.add_argument("--form", required=True)
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("bruhat", help="Bruhat decomposition and x(g)")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--g", required=True, help="row-major 2m x 2m entries")
    p.set_defaults(func=cmd_bruhat)

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
    p.set_defaults(func=cmd_cocycle)

    p = sub.add_parser("weilrep", help="dump sigma operator matrices")
    common(p, ring_scalars=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_weilrep)

    p = sub.add_parser("heisenberg", help="dump Heisenberg model operators")
    common(p, ring_scalars=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--emit", help="write JSON to this path")
    p.set_defaults(func=cmd_heisenberg)

    p = sub.add_parser("theta", help="theta lift table for a dual pair")
    common(p)
    p.add_argument("--V", required=True, help="quadratic space, diag:...")
    p.add_argument("--mprime", type=int, default=1)
    p.add_argument("--coeff", default="cyclo", help="cyclo or fl:l:d")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("selfcheck", help="run the invariant suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="json")
    p.set_defaults(func=cmd_selfcheck)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    fmt, path = "json", None
    out = getattr(args, "out", "json")
    if out in ("json", "csv"):
        fmt = out
    else:
        path = out
        fmt = "csv" if out.endswith(".csv") else "json"
    try:
        result = args.func(args)
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
