import json
import random
import resource
import subprocess
import sys

import pytest

from weilmod import cli


QP_G = ["--g1", "2,0,0,1/2", "--g2", "1,0,5,1"]


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "weilmod.cli", *args],
                          capture_output=True, text=True)
    return proc


def test_hilbert_example():
    proc = run_cli("hilbert", "--field", "qp:5", "--a", "5", "--b", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"value": -1}


def test_omega_schema_no_floats():
    proc = run_cli("omega", "--field", "qp:5", "--form", "diag:2,3")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["value"]["ring"] == "Z[zeta_5]"
    assert all(isinstance(c, str) for c in payload["value"]["coeffs"])
    assert "." not in proc.stdout  # never floating point


def test_omega_approx_labelled():
    proc = run_cli("omega", "--field", "fq:3:1", "--form", "diag:1",
                   "--approx")
    payload = json.loads(proc.stdout)
    assert "approx_nonauthoritative" in payload["value"]


def test_cocycle_exhaustive_example():
    proc = run_cli("cocycle", "--field", "fq:3:1", "--m", "1",
                   "--path", "operator", "--exhaustive")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"pairs": 576, "trivial": True}


def test_cocycle_formula_schema():
    proc = run_cli("cocycle", "--field", "qp:5", "--m", "1",
                   "--g1", "2,0,0,1/2", "--g2", "1,0,5,1")
    payload = json.loads(proc.stdout)
    assert payload["value"] == -1
    assert payload["x_g1"] == "u0" and payload["x_g2"] == "p"
    assert "leray" in payload


def test_cocycle_operator_padic_cli():
    proc = run_cli("cocycle", "--field", "qp:5", "--m", "1",
                   "--path", "operator",
                   "--g1", "2,0,0,1/2", "--g2", "1,0,5,1")
    assert json.loads(proc.stdout)["value"] == -1


def test_cocycle_padic_operator_m2_rejected():
    proc = run_cli("cocycle", "--field", "qp:5", "--m", "2",
                   "--path", "operator",
                   "--g1", ",".join(["1"] + ["0"] * 15),
                   "--g2", ",".join(["1"] + ["0"] * 15))
    assert proc.returncode == 2


def test_invalid_matrix_rejected():
    proc = run_cli("bruhat", "--field", "fq:3:1", "--m", "1", "--g", "1,2,3")
    assert proc.returncode == 2


def test_bruhat_cli():
    proc = run_cli("bruhat", "--field", "fq:3:1", "--m", "1",
                   "--g", "1,0,1,1")
    payload = json.loads(proc.stdout)
    assert payload["j"] == 1


def test_theta_table_csv():
    proc = run_cli("theta", "--field", "fq:3:1", "--V", "diag:1",
                   "--mprime", "1", "--coeff", "cyclo", "--out", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].split(",")[0] == "dim_theta"
    assert len(lines) == 3


def test_heisenberg_dump(tmp_path):
    out = tmp_path / "operators.json"
    proc = run_cli("heisenberg", "--field", "fq:3:1", "--m", "1",
                   "--emit", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 27
    assert len(payload["operators"]) == 27


def test_weilrep_dump():
    proc = run_cli("weilrep", "--field", "fq:3:1", "--m", "1")
    payload = json.loads(proc.stdout)
    assert payload["count"] == 24


def test_weilrep_reuses_counts_in_process(monkeypatch, capsys):
    # a second in-process query over the same field and m reads sigma's
    # counts from the first one's model: the same bytes, no count build
    from weilmod import metaplectic
    seen = []
    real = metaplectic.x_data

    def counted(space, g):
        seen.append(g)
        return real(space, g)
    monkeypatch.setattr(metaplectic, "x_data", counted)
    args = ["weilrep", "--field=fq:3:1", "--m=1"]
    assert cli.main(args) == 0
    first, built = capsys.readouterr().out, len(seen)
    seen.clear()
    assert cli.main(args) == 0
    assert capsys.readouterr().out == first
    assert built == 24 and seen == []


# the dumps before each distinct scalar was built and serialized once: one
# rho per Heisenberg element, one mu phi(c) and one scalar_json per entry
def _weilrep_reference(desc, psi_desc, approx):
    from weilmod import metaplectic
    from weilmod.basefield import parse_character, parse_field
    from weilmod.heisenberg import SympSpace
    field = parse_field(desc)
    space = SympSpace(field, 1)
    ctx = metaplectic.WeilContext(space, parse_character(field, psi_desc))
    zero, out = ctx.zero(), []
    for g in metaplectic.enumerate_sp2(space):
        mu, counts = metaplectic.sigma_counts(ctx, field.indices.lower(g))
        out.append({"g": cli.matrix_str(g), "matrix": [
            [cli.scalar_json(mu * ctx.phi(c) if c else zero, approx)
             for c in ctx.counts.unpack(row)] for row in counts]})
    return {"field": desc, "count": len(out), "operators": out}


def _heisenberg_reference(desc, psi_desc, m, approx):
    from weilmod.basefield import parse_character, parse_field, points
    from weilmod.heisenberg import (SchrodingerModel, SympSpace, central,
                                    delta)
    field = parse_field(desc)
    space = SympSpace(field, m)
    psi = parse_character(field, psi_desc)
    model = SchrodingerModel(space, psi)
    out = []
    for *w, t in points(field, 2 * m + 1):
        h = delta(space, w) * central(space, t)
        dense = model.rho(h).to_dense(psi.coeff_ring.zero())
        out.append({"w": [str(x) for x in w], "t": str(t), "matrix": [
            [cli.scalar_json(x, approx) for x in row] for row in dense]})
    return {"field": desc, "m": m, "count": len(out), "operators": out}


def _emitted(payload, fmt, capsys):
    cli.emit(payload, fmt, None)
    return capsys.readouterr().out


DUMP_FIELDS = [("fq:3:1", "psi:standard"), ("fq:5:1", "psi:twist:2"),
               ("fq:7:1", "psi:twist:3"), ("fq:3:2", "psi:twist:2")]
DUMP_CASES = [(command, desc, psi, 1) for command in ("weilrep", "heisenberg")
              for desc, psi in DUMP_FIELDS] + \
    [("heisenberg", "fq:3:1", "psi:standard", 2)]


@pytest.mark.parametrize("approx", [False, True], ids=["exact", "approx"])
@pytest.mark.parametrize("command, desc, psi, m", DUMP_CASES,
                         ids=["%s-%s-%s-m%d" % c for c in DUMP_CASES])
def test_dumps_match_per_entry_reference(command, desc, psi, m, approx,
                                         tmp_path, capsys):
    # the bytes of stdout, of --out csv and (heisenberg) of the --emit file,
    # which holds the stdout payload without its newline
    argv = [command, "--field", desc, "--m", str(m), "--psi", psi] + \
        ["--approx"] * approx
    if command == "weilrep":
        ref = _weilrep_reference(desc, psi, approx)
    else:
        ref = _heisenberg_reference(desc, psi, m, approx)
    want = _emitted(ref, "json", capsys)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want
    if m == 1 and desc in ("fq:3:1", "fq:5:1"):
        assert cli.main(argv + ["--out", "csv"]) == 0
        assert capsys.readouterr().out == _emitted(ref, "csv", capsys)
    if command == "heisenberg":
        path = tmp_path / "ops.json"
        assert cli.main(argv + ["--emit", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "written": str(path), "count": ref["count"]}
        assert path.read_text() + "\n" == want


def test_dumps_build_and_serialize_each_scalar_once(monkeypatch, capsys):
    # heisenberg makes one rho per w (q^2m, not q^(2m+1)); each dump calls
    # scalar_json once per distinct (ring, scalar) of its query, and a
    # repeated query in the same process calls it as often again, since
    # the memo lives for one query
    from weilmod.heisenberg import LagrangianModel
    calls = {"rho": 0, "scalar_json": 0}
    real_rho, real_json = LagrangianModel.rho, cli.scalar_json

    def rho(self, h):
        calls["rho"] += 1
        return real_rho(self, h)

    def scalar_json(v, approx=False):
        calls["scalar_json"] += 1
        return real_json(v, approx)
    monkeypatch.setattr(LagrangianModel, "rho", rho)
    monkeypatch.setattr(cli, "scalar_json", scalar_json)
    for argv, want in (
            (["weilrep", "--field", "fq:3:1", "--m", "1"],
             {"rho": 0, "scalar_json": 13}),
            (["heisenberg", "--field", "fq:3:1", "--m", "1"],
             {"rho": 9, "scalar_json": 4})):
        for _ in range(2):
            calls.update(rho=0, scalar_json=0)
            assert cli.main(argv) == 0
            capsys.readouterr()
            assert calls == want, argv


def test_heisenberg_scales_by_table_reads(monkeypatch, capsys):
    # psi(t) times a phase psi(s) of rho((w, 0)) is read as psi(t + s):
    # past psi's power table, built when --psi is parsed, the dump makes
    # no product in Z[zeta_3]
    from weilmod.coeff import Cyc
    products = []
    real_mul, real_parse = Cyc.__mul__, cli.parse_character

    def mul(self, other):
        products.append((self, other))
        return real_mul(self, other)

    def parse_character(field, desc):
        psi = real_parse(field, desc)
        monkeypatch.setattr(Cyc, "__mul__", mul)
        return psi
    monkeypatch.setattr(cli, "parse_character", parse_character)
    assert cli.main(["heisenberg", "--field", "fq:3:1", "--m", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 27
    assert products == []


def test_matrix_json_memo_tells_rings_and_types_apart():
    # zeta_3 in Z[zeta_3] and in Z[zeta_9], and 1 as an int, a Fraction and
    # a Cyc of each ring, are equal and hash equal but print differently
    from fractions import Fraction
    from weilmod.coeff import CyclotomicRing
    r3, r9 = CyclotomicRing(3), CyclotomicRing(3, 2)
    row = [r3.zeta(), r9.coerce(r3.zeta()), 1, Fraction(1), r3.one(),
           r9.one()]
    assert row[0] == row[1] and hash(row[0]) == hash(row[1])
    memo = {}
    got = cli.matrix_json([row, row[::-1]], False, memo)
    assert got == [[cli.scalar_json(x) for x in r] for r in (row, row[::-1])]
    assert len(memo) == 6 and len({json.dumps(x) for x in got[0]}) == 6


def test_selfcheck_deterministic():
    a = run_cli("selfcheck", "--seed", "42")
    b = run_cli("selfcheck", "--seed", "42")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert all(line.startswith("PASS") for line in
               a.stdout.strip().splitlines()[:-1])


def test_config_roundtrip():
    from weilmod.cli import build_parser
    ap = build_parser()
    args = ap.parse_args(["omega", "--field", "qp:5", "--form", "diag:2",
                          "--psi", "psi:twist:2"])
    assert args.field == "qp:5" and args.psi == "psi:twist:2"
    args2 = ap.parse_args(["omega", "--field", args.field, "--form",
                           args.form, "--psi", args.psi])
    assert args2 == args


def test_theta_table_deterministic():
    args = ["theta", "--field", "fq:3:1", "--V", "diag:1", "--mprime", "1",
            "--coeff", "cyclo", "--out", "csv"]
    a, b = run_cli(*args), run_cli(*args)
    assert a.stdout == b.stdout and a.returncode == 0


def test_theta_over_f3_6_matches_cyclo():
    # F_{3^6} has to be a field for its theta dimensions to be those of Z[zeta_7]
    args = ["theta", "--field", "fq:7:1", "--V", "diag:1"]
    cyc = run_cli(*args, "--coeff", "cyclo")
    fl = run_cli(*args, "--coeff", "fl:3:6")
    assert fl.returncode == 0, fl.stderr
    dims = [row["dim_theta"] for row in json.loads(fl.stdout)]
    assert dims == [row["dim_theta"] for row in json.loads(cyc.stdout)]
    assert dims == [4, 3]


def test_theta_char2_counts_every_orbit():
    # over F_4 the sign character is trivial: both rows have dimension 2
    proc = run_cli("theta", "--field", "fq:3:1", "--V", "diag:1",
                   "--coeff", "fl:2:2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [{"dim_theta": 2, "pi1": "trivial"},
                                       {"dim_theta": 2, "pi1": "char1"}]


@pytest.mark.parametrize("args", [
    ["hilbert", "--field", "qp:5", "--a", "0", "--b", "2"],
    ["hilbert", "--field", "qp:5", "--a", "1/0", "--b", "2"],
    ["hilbert", "--field", "fq:3:1", "--a", "x", "--b", "1"],
    ["theta", "--field", "fq:3:1", "--V", "diag:1", "--coeff", "fl:2:1"],
    ["theta", "--field", "fq:3:1", "--V", "diag:1", "--coeff", "fl:7"],
    ["cocycle", "--field", "qp:5", "--m", "1", "--g1", "1,0,0,0",
     "--g2", "1,0,5,1", "--path", "formula"],
    ["cocycle", "--field", "qp:5", "--m", "1"],
    ["omega", "--field", "fq:3:0", "--form", "diag:1"],
    ["omega", "--field", "fq:3:11", "--form", "diag:1"],
    ["theta", "--field", "fq:3:1", "--V", "diag:1", "--coeff", "fl:2:24"],
    ["theta", "--field", "fq:3:1", "--V", "diag:1", "--coeff",
     "fl:2:1000000000"],
    ["hilbert", "--field", "fq", "--a", "1", "--b", "2"],
    ["omega", "--field", "qp:5", "--form", "diag:1", "--psi",
     "psi:twist:1/0"],
    ["bruhat", "--field", "fq:3:1", "--m", "0", "--g", "1"],
    ["bruhat", "--field", "fq:3:1", "--m", "-1", "--g", "1"],
    ["hilbert", "--field", "qp:5:1", "--a", "1", "--b", "2"],
    ["hilbert", "--field", "fq:3:1:1", "--a", "1", "--b", "2"],
    ["hilbert", "--field", "fq:x:1", "--a", "1", "--b", "2"],
    ["hilbert", "--field", "qp:five", "--a", "1", "--b", "2"],
    ["theta", "--field", "fq:3:1", "--V", "diag:1", "--coeff", "fl:x:1"],
    ["cocycle", "--field", "qp:5", "--m", "1", *QP_G, "--psi",
     "psi:twist:5"],
    ["hilbert", "--field", "fq:3:1", "--a", "3", "--b", "1"],
    ["cocycle", "--field", "fq:3:1", "--m", "1", "--g1", "1,0,0,1",
     "--g2", "1,0,0,1", "--psi", "bogus"],
    ["cocycle", "--field", "fq:3:1", "--m", "1", "--g1", "1,0,0,1",
     "--g2", "1,0,0,1", "--psi", "psi:twist:3"],
    ["theta", "--field", "fq:3:1", "--V", "diag:1", "--psi", "psi:twist:2"],
    ["hilbert", "--field", "qp:5", "--a", "5", "--b", "2", "--approx"],
    ["hasse", "--field", "qp:5", "--form", "diag:1", "--approx"],
    ["bruhat", "--field", "fq:3:1", "--m", "1", "--g", "1,0,0,1",
     "--approx"],
    ["selfcheck", "--approx"],
    ["hilbert", "--field", "qp:5", "--a", "5"],
    ["bruhat", "--field", "fq:3:1", "--m", "x", "--g", "1,0,0,1"],
    ["cocycle", "--field", "fq:3:1", "--m", "1", "--path", "dense"],
    [],
    ["hasse", "--field", "qp:3", "--form", "diag:2,0"],
    ["hasse", "--field", "fq:3:2", "--form", "diag:3"],
])
def test_invalid_input_exit_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("args", [
    ["hilbert", "--field", "qp:5", "--a", "5", "--b", "2",
     "--out", "{tmp}/missing/x.json"],
    ["weilrep", "--field", "fq:3:1", "--m", "1", "--out", "{tmp}"],
    ["heisenberg", "--field", "fq:3:1", "--m", "1",
     "--emit", "{tmp}/missing/x"],
])
def test_unwritable_output_exit_2(args, tmp_path):
    proc = run_cli(*[a.format(tmp=tmp_path) for a in args])
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("args", [
    ["bruhat", "--field", "fq:3:1", "--m", "0", "--g", "1"],
    ["bruhat", "--field", "fq:3:1", "--m", "-1", "--g", "1"],
    ["bruhat", "--field", "fq:3:1", "--m", "-1", "--g", "1,0,0,1"],
    ["cocycle", "--field", "fq:3:1", "--m", "0", "--exhaustive"],
    ["weilrep", "--field", "fq:3:1", "--m", "0"],
    ["heisenberg", "--field", "fq:3:1", "--m", "0"],
])
def test_m_below_one_refused(args):
    proc = run_cli(*args)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: --m must be at least 1, got %s\n" % args[4]


@pytest.mark.parametrize("desc", ["fq:x:1", "qp:five"])
def test_non_integer_field_descriptor_message(desc):
    proc = run_cli("hilbert", "--field", desc, "--a", "1", "--b", "2")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == \
        "error: bad field descriptor '%s' (fq:p:f or qp:p)\n" % desc


def test_non_integer_coeff_descriptor_message():
    proc = run_cli("theta", "--field", "fq:3:1", "--V", "diag:1",
                   "--coeff", "fl:x:1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == \
        "error: bad coefficient descriptor 'fl:x:1' (cyclo or fl:l:d)\n"


@pytest.mark.parametrize("coeff,message", [
    ("fl:7:0", "degree must be >= 1, got 0"),
    ("fl:0:0", "degree must be >= 1, got 0"),
    ("fl:0:1", "characteristic must be prime, got 0"),
    ("fl:4:1", "characteristic must be prime, got 4"),
    ("fl:3:1", "fl:3:1: F_{l^d} holds no p-th root of unity (p = 3 does "
               "not divide l^d - 1)"),
])
def test_coeff_descriptor_checks_degree_then_prime_then_root(coeff, message,
                                                             capsys):
    # d >= 1 comes first, then a prime l, and only then the root of unity:
    # 3 divides 7^0 - 1 = 0, so fl:7:0 is refused for its degree
    argv = ["theta", "--field", "fq:3:1", "--V", "diag:1", "--coeff", coeff]
    assert _query(argv, capsys) == (2, "", "error: %s\n" % message)


def test_cyclo_theta_queries_share_one_zero_side(monkeypatch, capsys):
    # two in-process cyclo queries of one form build its characteristic-zero
    # side once, one lift per character on one context, and print what a
    # fresh process prints
    from weilmod import theta
    built = []
    real = theta.ThetaLift.__init__

    def counted(lift, pair, ctx, chi1):
        built.append(ctx)
        real(lift, pair, ctx, chi1)
    monkeypatch.setattr(theta.ThetaLift, "__init__", counted)
    argv = ["theta", "--field", "fq:3:1", "--V", "diag:1,2", "--coeff",
            "cyclo"]
    first, second = _query(argv, capsys), _query(argv, capsys)
    assert first == second == (0, run_cli(*argv).stdout, "")
    (ctx0, rows), = theta._ZERO_SIDES.values()
    assert built == [ctx0] * len(rows) == [ctx0] * len(json.loads(first[1]))


def test_padic_cocycle_twist_refused():
    # both Q_p paths use the level-0 character; a twist equal to 1 is it
    for path in ("formula", "operator"):
        args = ["cocycle", "--field", "qp:5", "--m", "1", *QP_G,
                "--path", path, "--psi"]
        proc = run_cli(*args, "psi:twist:5")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("error: the Q_p cocycle paths use the level-0 "
                               "character only, got --psi psi:twist:5\n")
        level0 = run_cli(*args[:-1])
        assert level0.returncode == 0
        assert run_cli(*args, "psi:twist:1").stdout == level0.stdout


@pytest.mark.parametrize("args", [
    ["weilrep", "--field", "fq:3:1", "--m", "2"],
    ["heisenberg", "--field", "fq:7:1", "--m", "2"],
    ["heisenberg", "--field", "fq:3:1", "--m", "1000000000"],
    # 3^13 and 13^5 ring entries, past the 200,000 that weilrep admits
    ["heisenberg", "--field", "fq:3:1", "--m", "3"],
    ["heisenberg", "--field", "fq:13:1", "--m", "1"],
])
def test_dump_refused_before_building(args, monkeypatch, capsys):
    def refuse(*_):
        raise AssertionError("model built before the refusal")
    monkeypatch.setattr(cli, "WeilContext", refuse)
    monkeypatch.setattr(cli, "SchrodingerModel", refuse)
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_weilrep_refuses_dump_too_large(monkeypatch, capsys):
    # fq:5:2 would be 9,750,000 ring entries; the cap refuses it before the
    # group is listed
    def refuse(*_):
        raise AssertionError("group listed before the refusal")
    monkeypatch.setattr(cli, "enumerate_sp2", refuse)
    monkeypatch.setattr(cli, "WeilContext", refuse)
    assert cli.main(["weilrep", "--field", "fq:5:2", "--m", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: group too large to dump; reduce q\n"


def w_s(m):
    """w_S = [[0, I], [-I, 0]] on all of {1..m}, as row-major entries."""
    n = 2 * m
    return ",".join("1" if j == i + m else "-1" if i == j + m else "0"
                    for i in range(n) for j in range(n))


def test_operator_cocycle_refuses_a_large_model():
    # n = 101^2 = 10,201: the n x n tables of its count model ran past 60 s
    # and 1.5 GB; the q^m cap refuses it at once
    proc = subprocess.run(
        [sys.executable, "-m", "weilmod.cli", "cocycle", "--field",
         "fq:101:1", "--m", "2", "--path", "operator",
         "--g1", w_s(2), "--g2", w_s(2)],
        capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: --path operator over F_q takes q^m <= "
                           "729, got q = 101, m = 2\n")


@pytest.mark.parametrize("field,m,admitted", [
    ("fq:3:1", 6, True), ("fq:7:1", 4, False), ("fq:3:1", 7, False),
    ("fq:3:1", 10 ** 9, False), ("fq:7:1", 1, True)])
def test_operator_dim_cap_is_checked_before_any_context(field, m, admitted,
                                                        monkeypatch, capsys):
    # q^m = 729 is admitted and 2,401 refused, before a WeilContext is built
    def reached(*_):
        raise ValueError("context built")
    monkeypatch.setattr(cli, "WeilContext", reached)
    n = 2 * min(m, 7)   # no matrix is read past the cap
    ident = ",".join("1" if i == j else "0"
                     for i in range(n) for j in range(n))
    assert cli.main(["cocycle", "--field", field, "--m", str(m), "--path",
                     "operator", "--g1", ident, "--g2", ident]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert (err == "error: context built\n") == admitted
    if not admitted:
        assert err.startswith("error: --path operator over F_q takes q^m")


@pytest.mark.parametrize("path", ["formula", "operator"])
@pytest.mark.parametrize("field,admitted", [
    ("fq:3:2", True), ("fq:11:1", False), ("fq:101:1", False)])
def test_exhaustive_pair_cap_is_checked_before_listing(path, field, admitted,
                                                       monkeypatch, capsys):
    # |SL2(F_9)|^2 = 518,400 pairs are admitted and |SL2(F_11)|^2 =
    # 1,742,400 refused, before enumerate_sp2 lists the q^4 candidates
    from weilmod import metaplectic

    def reached(*_):
        raise ValueError("pairs listed")
    monkeypatch.setattr(metaplectic, "enumerate_sp2", reached)
    assert cli.main(["cocycle", "--field", field, "--m", "1", "--path", path,
                     "--exhaustive"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    if admitted:
        assert err == "error: pairs listed\n"
    else:
        q = int(field.split(":")[1])
        assert err == ("error: --exhaustive over F_%d has %d pairs, above "
                       "the cap of 1000000; reduce q\n"
                       % (q, (q * (q * q - 1)) ** 2))


def run_cli_limited(*args, timeout=60):
    """One query in a child process limited to 1 GiB of address space (the
    limit is set in the child only) and `timeout` seconds."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
    return subprocess.run([sys.executable, "-m", "weilmod.cli", *args],
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=limit)


@pytest.mark.parametrize("field, admitted", [
    ("fq:727:1", True), ("fq:3001:1", False), ("fq:10007:1", False)])
def test_finite_gauss_sum_cap(field, admitted):
    # psi over F_q takes its values in Z[zeta_p], whose p is capped as the
    # Q_p rings are: omega over fq:3001 took 1.6 s, and over fq:10007 it
    # ran past 15 s, mostly on psi's table of p powers of zeta_p
    from weilmod.basefield import MAX_PADIC_ORDER
    proc = run_cli_limited("omega", "--field", field, "--form", "diag:1",
                           timeout=10)
    if admitted:
        assert proc.returncode == 0, proc.stderr
    else:
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.endswith(
            "above the cap MAX_PADIC_ORDER = %d\n" % MAX_PADIC_ORDER)


@pytest.mark.parametrize("field", ["fq:3:4", "fq:79:1"])
def test_theta_refuses_an_oversized_pair_before_listing(field):
    # a lower bound on |O(V)| |Sp2(F_q)| is checked before either group is
    # listed: listing the q^4 Sp2 candidates ended both in a MemoryError
    proc = run_cli_limited("theta", "--field", field, "--V", "diag:1",
                           timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: group order cap exceeded\n"


def test_padic_queries_at_p101_answer():
    # Omega over Q_101 from the Gauss sum of F_101: the lattice sum it
    # replaced ended both queries in a MemoryError with exit 1
    from weilmod.basefield import QpField
    from weilmod.heisenberg import SympSpace
    from weilmod.metaplectic import cocycle_formula
    from weilmod.weilfactor import omega1_padic
    proc = run_cli_limited("omega", "--field", "qp:101", "--form", "diag:1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == \
        cli.scalar_json(omega1_padic(101, 1))
    proc = run_cli_limited("cocycle", "--field", "qp:101", "--m", "1",
                           "--g1", "1,0,0,1", "--g2", "0,-1,1,0",
                           "--path", "operator")
    assert proc.returncode == 0, proc.stderr
    ident, w = ((1, 0), (0, 1)), ((0, -1), (1, 0))
    assert json.loads(proc.stdout) == {
        "path": "operator",
        "value": cocycle_formula(SympSpace(QpField(101), 1), ident, w)}


def test_finite_operator_cocycle_at_p101_answers():
    # sigma over F_101 in Z[zeta_101] within 1 GiB: the count model keeps
    # no table per entry of N, which would take some 750 MB here; g1 =
    # diag(2, 1/2) keeps N1 N2 cheap.  The finite cocycle is trivial
    proc = run_cli_limited("cocycle", "--field", "fq:101:1", "--m", "1",
                           "--g1", "2,0,0,51", "--g2", "0,-1,1,0",
                           "--path", "operator", timeout=30)
    assert proc.returncode == 0, proc.stderr
    value = json.loads(proc.stdout)["value"]
    assert value["ring"] == "Z[zeta_101]"
    assert value["coeffs"] == ["1"] + ["0"] * (len(value["coeffs"]) - 1)


def _operator(field, g1):
    return ["cocycle", "--field", field, "--m", "1", "--g1", g1,
            "--g2", "0,-1,1,0", "--path", "operator"]


@pytest.mark.parametrize("argv,admitted", [
    # an odd valuation needs the Gauss sum of F_p in Z[zeta_p]: p = 727 is
    # admitted and p = 1009 refused
    (["omega", "--field", "qp:727", "--form", "diag:727"], True),
    (["omega", "--field", "qp:1009", "--form", "diag:1009"], False),
    (_operator("qp:727", "1,0,1/727,1"), True),
    (_operator("qp:1009", "1,0,1/1009,1"), False),
    # deeper entries need psi at level k: 3^6 is admitted, 3^7 and 101^2
    # refused
    (_operator("qp:3", "1,0,1/729,1"), True),
    (_operator("qp:3", "1,0,1/2187,1"), False),
    (_operator("qp:101", "1,0,1/10201,1"), False)])
def test_padic_order_cap(argv, admitted, capsys):
    from weilmod.basefield import MAX_PADIC_ORDER
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if admitted:
        assert code == 0 and err == ""
    else:
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ") and \
            err.endswith("above the cap MAX_PADIC_ORDER = %d\n"
                         % MAX_PADIC_ORDER)


def test_selfcheck_fails_loudly_under_O():
    # a broken Hilbert symbol must fail its suite even with asserts stripped
    code = ("import json, weilmod.selfcheck as s\n"
            "s.hilbert = lambda field, a, b: 0\n"
            "print(json.dumps(s.run_all(42)))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report, ok = json.loads(proc.stdout)
    assert ok is False
    line = [r for r in report if "hilbert-three-paths" in r][0]
    assert line.startswith("FAIL") and "got 0, want" in line


@pytest.mark.parametrize("argv, checks", [
    (["cocycle", "--field", "qp:5", "--m", "1", "--g1", "1,0,5,1",
      "--g2", "0,-1,1,0"], 4),
    (["cocycle", "--field", "fq:3:2", "--m", "1", "--g1", "1,0,1,1",
      "--g2", "0,2,1,0", "--rao"], 4),
    (["bruhat", "--field", "fq:3:1", "--m", "1", "--g", "1,0,1,1"], 4),
    (["bruhat", "--field", "qp:5", "--m", "1", "--g", "1,0,5,1"], 4)])
def test_queries_check_each_g_as_often_as_before(argv, checks, monkeypatch,
                                                 capsys):
    # the formula query: the CLI's input check and Leray's of g1 and g2;
    # its value, x classes and the check of Leray's block add none.
    # bruhat: the CLI's, Bruhat's of g and of p1, and x_data's
    from weilmod.heisenberg import SympSpace
    seen = []
    real = SympSpace.is_symplectic

    def counted(self, g):
        seen.append(g)
        return real(self, g)
    monkeypatch.setattr(SympSpace, "is_symplectic", counted)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(seen) == checks


def _scaled_rho(c):
    return lambda ld: ld._replace(rho=tuple(tuple(r * c for r in row)
                                            for row in ld.rho))


# g = [[I, 0], [C, I]] with C = diag(1, .., 1) has S = {1..m} and rho = I/2;
# with C = diag(1, 0), S = {1} and rho = (1/2); w has S1 = S2 = {1}, l = 1
@pytest.mark.parametrize("p, m, g, fault", [
    # rho times the non-square 2: another det class than q's
    (5, 1, "1,0,1,1", _scaled_rho(2)),
    # rho = I/2 times 3 keeps the det class and flips the Hasse invariant,
    # by (3, -1)_3 = -1
    (3, 2, "1,0,0,0,0,1,0,0,1,0,1,0,0,1,0,1", _scaled_rho(3)),
    # one index more in S, with rho padded by zeros: only |S| moves
    (5, 2, "1,0,0,0,0,1,0,0,1,0,1,0,0,0,0,1",
     lambda ld: ld._replace(s=(0, 1), rho=((ld.rho[0][0], 0), (0, 0)))),
    # S2 emptied: only |S1 cap S2| moves
    (5, 1, "0,-1,1,0", lambda ld: ld._replace(s2=()))],
    ids=["det-class", "hasse", "rank", "l"])
def test_formula_refuses_a_leray_block_off_its_invariants(p, m, g, fault,
                                                         monkeypatch,
                                                         capsys):
    # each clause of formula_report's check refuses a Leray block faulted
    # in it alone, and the query exits 1
    from weilmod import metaplectic
    from weilmod.basefield import QpField
    from weilmod.heisenberg import SympSpace
    real = metaplectic._leray
    space = SympSpace(QpField(p), m)
    mat = cli.parse_matrix(space.field, g, 2 * m)
    metaplectic.formula_report(space, mat, mat)
    monkeypatch.setattr(metaplectic, "_leray",
                        lambda *args: fault(real(*args)))
    with pytest.raises(RuntimeError, match=r"g1 = .*, g2 = .* disagrees"):
        metaplectic.formula_report(space, mat, mat)
    assert cli.main(["cocycle", "--field", "qp:%d" % p, "--m", str(m),
                     "--g1", g, "--g2", g, "--path", "formula"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("check failure: formula: ")


def test_bruhat_decomposes_once(monkeypatch, capsys):
    from weilmod import metaplectic
    calls = []
    real = metaplectic.bruhat_decompose

    def counted(space, g):
        calls.append(g)
        return real(space, g)
    monkeypatch.setattr(metaplectic, "bruhat_decompose", counted)
    monkeypatch.setattr(cli, "bruhat_decompose", counted)
    for field, g in (("fq:3:1", "1,0,1,1"), ("qp:5", "0,-1,1,0")):
        calls.clear()
        assert cli.main(["bruhat", "--field", field, "--m", "1",
                         "--g", g]) == 0
        assert len(calls) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["j"] == 1


@pytest.mark.parametrize("path", ["operator", "formula"])
def test_cocycle_exhaustive_reports_first_witness(monkeypatch, capsys, path):
    # a cocycle that is nontrivial from the fourth pair on: the report names
    # that pair and its value, and the command exits 1
    seen = []

    def fake(first, *args, **kw):
        seen.append(args[:2])
        if len(seen) < 4:
            return first.one() if path == "operator" else 1
        return -first.one() if path == "operator" else -1
    monkeypatch.setattr(cli, "cocycle_operator" if path == "operator"
                        else "cocycle_formula", fake)
    assert cli.main(["cocycle", "--field", "fq:3:1", "--m", "1", "--path",
                     path, "--exhaustive"]) == 1
    report = json.loads(capsys.readouterr().out)
    g1, g2 = seen[3]
    assert report["trivial"] is False and report["pairs"] == 3
    assert report["g1"] == [[str(x) for x in row] for row in g1]
    assert report["g2"] == [[str(x) for x in row] for row in g2]
    if path == "operator":
        assert report["value"] == {"ring": "Z[zeta_3]",
                                   "coeffs": ["-1", "0"]}
    else:
        assert report["value"] == -1


def test_exhaustive_formula_builds_no_weil_context(monkeypatch, capsys):
    def refuse(*_args, **_kw):
        raise AssertionError("the formula path built a WeilContext")
    monkeypatch.setattr(cli, "WeilContext", refuse)
    assert cli.main(["cocycle", "--field", "fq:3:1", "--m", "1", "--path",
                     "formula", "--exhaustive"]) == 0
    assert capsys.readouterr().out == '{"pairs":576,"trivial":true}\n'


def test_exhaustive_operator_witness_matches_split_checks(monkeypatch,
                                                         capsys):
    # mu negated for one element t: the first pair with an odd number of t
    # among g1, g2 and g1 g2 is the first whose cocycle is -1, and
    # split_checks stops at the same pair
    from weilmod import linalg, metaplectic
    from weilmod.basefield import AdditiveCharacter, FqField
    from weilmod.heisenberg import SympSpace
    f3 = FqField(3)
    space = SympSpace(f3, 1)
    group = metaplectic.enumerate_sp2(space)
    t = group[5]
    real = metaplectic.sigma_counts

    def negated(ctx, g):    # g on raw field indices
        mu, counts = real(ctx, g)
        return (-mu, counts) if g == f3.indices.lower(t) else (mu, counts)
    monkeypatch.setattr(metaplectic, "sigma_counts", negated)
    pairs = [(g1, g2) for g1 in group for g2 in group]
    first = next(k for k, (g1, g2) in enumerate(pairs)
                 if [g1, g2, linalg.mat_mul(g1, g2)].count(t) % 2)
    ctx = metaplectic.WeilContext(space, AdditiveCharacter(f3))
    assert metaplectic.split_checks(ctx) == {"multiplicative": False,
                                             "pairs": first}
    assert cli.main(["cocycle", "--field", "fq:3:1", "--m", "1", "--path",
                     "operator", "--exhaustive"]) == 1
    g1, g2 = pairs[first]
    assert json.loads(capsys.readouterr().out) == {
        "trivial": False, "pairs": first,
        "g1": [[str(x) for x in row] for row in g1],
        "g2": [[str(x) for x in row] for row in g2],
        "value": {"ring": "Z[zeta_3]", "coeffs": ["-1", "0"]}}


def test_selfcheck_failure_names_the_seed(monkeypatch, capsys):
    from weilmod import selfcheck

    def broken(rng):
        raise RuntimeError("broken on purpose")
    monkeypatch.setattr(selfcheck, "SUITES",
                        selfcheck.SUITES[:1] + [("broken-suite", broken)])
    assert cli.main(["selfcheck", "--seed", "7"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "PASS coeff-ring-laws"
    assert lines[1] == "FAIL broken-suite (seed 7): broken on purpose"
    assert json.loads(lines[2]) == {"ok": False, "seed": 7, "suites": 2}


def test_selfcheck_lets_a_bug_through(monkeypatch):
    # a FAIL line reports a failed check (RuntimeError); a TypeError from a
    # bug propagates out of run_all instead of reading as one
    from weilmod import selfcheck

    def buggy(rng):
        raise TypeError("buggy on purpose")
    monkeypatch.setattr(selfcheck, "SUITES",
                        selfcheck.SUITES[:1] + [("buggy-suite", buggy)])
    with pytest.raises(TypeError, match="buggy on purpose"):
        selfcheck.run_all(7)


@pytest.mark.parametrize("args", [
    ["bruhat", "--field", "fq:3:1", "--m", "1", "--g", "-1,0,0,-1"],
    ["cocycle", "--field", "qp:5", "--m", "1", "--g1", "-1,0,0,-1",
     "--g2", "1,0,5,1", "--path", "formula"],
    ["hilbert", "--field", "qp:5", "--a", "-1/2", "--b", "3"],
])
def test_value_starting_with_minus(args, capsys):
    # "--g -1,0,0,-1" answers as "--g=-1,0,0,-1" does
    i = next(i for i, a in enumerate(args) if a.startswith("-") and
             not a.startswith("--"))
    joined = args[:i - 1] + ["%s=%s" % (args[i - 1], args[i])] + args[i + 1:]
    assert cli.main(joined) == 0
    want = capsys.readouterr()
    assert cli.main(args) == 0
    assert capsys.readouterr() == want


def test_missing_value_still_refused():
    proc = run_cli("hilbert", "--field", "qp:5", "--a", "--b", "3")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: argument --a: expected one argument\n"


def test_key_error_is_not_invalid_input(monkeypatch):
    # a KeyError inside the mathematics is a bug: it propagates instead of
    # ending as an input error with exit 2
    def broken(_args):
        raise KeyError("lost")
    monkeypatch.setattr(cli, "cmd_hilbert", broken)
    with pytest.raises(KeyError, match="lost"):
        cli.main(["hilbert", "--field", "qp:5", "--a", "1", "--b", "2"])


RAO_G = ["--g1=-1,0,2,-1", "--g2=4,-1/2,2,0"]


@pytest.mark.parametrize("args, message", [
    (["cocycle", "--field", "qp:3", "--m", "1", *RAO_G, "--path", "operator",
      "--rao"], "error: --rao applies to --path formula only\n"),
    (["cocycle", "--field", "fq:3:1", "--m", "1", "--path", "operator",
      "--exhaustive", "--rao"],
     "error: --rao applies to --path formula only\n"),
    (["cocycle", "--field", "fq:3:1", "--m", "1", "--path", "formula",
      "--exhaustive", "--g1", "1,0,0,1"],
     "error: --exhaustive runs over all pairs: drop --g1 and --g2\n"),
    (["cocycle", "--field", "fq:3:1", "--m", "1", "--path", "operator",
      "--exhaustive", "--g2=1,0,0,1"],
     "error: --exhaustive runs over all pairs: drop --g1 and --g2\n"),
    (["cocycle", "--field", "fq:3:1", "--m", "1", "--path", "formula",
      "--exhaustive", "--psi", "psi:twist:2"],
     "error: --psi applies to --path operator only, got --psi "
     "psi:twist:2\n"),
    (["cocycle", "--field", "fq:3:1", "--m", "1", "--path", "formula",
      "--g1", "1,0,0,1", "--g2", "1,0,0,1", "--psi", "psi:twist:2"],
     "error: --psi applies to --path operator only, got --psi "
     "psi:twist:2\n"),
])
def test_cocycle_option_out_of_scope_refused(args, message, monkeypatch,
                                             capsys):
    # an option the chosen path does not read is refused before any
    # cocycle is computed, not silently dropped
    def refuse(*_args, **_kw):
        raise AssertionError("cocycle computed despite the refusal")
    for name in ("cocycle_operator", "cocycle_operator_padic",
                 "cocycle_formula"):
        monkeypatch.setattr(cli, name, refuse)
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == message


@pytest.mark.parametrize("path, psi", [
    ("formula", "psi:twist:1"), ("formula", "psi:twist:4"),
    ("operator", "psi:twist:2")])
def test_finite_cocycle_psi_accepted(path, psi, capsys):
    # the operator path reads a twist; the formula path takes twist 1 (4 = 1
    # in F_3), though over F_q the twist is an element, never the int 1
    base = ["cocycle", "--field", "fq:3:1", "--m", "1", "--path", path,
            "--g1", "1,0,0,1", "--g2", "0,-1,1,0"]
    assert cli.main(base) == 0
    plain = capsys.readouterr().out
    assert cli.main(base + ["--psi", psi]) == 0
    assert capsys.readouterr().out == plain


def test_rao_changes_the_padic_formula_answer(capsys):
    # the pair the refused operator query above asked about: --rao matters
    base = ["cocycle", "--field", "qp:3", "--m", "1", *RAO_G, "--path",
            "formula"]
    assert cli.main(base) == 0
    assert cli.main(base + ["--rao"]) == 0
    plain, rao = (json.loads(x)["value"]
                  for x in capsys.readouterr().out.splitlines())
    assert (plain, rao) == (1, -1)


def test_exhaustive_formula_passes_rao(monkeypatch, capsys):
    seen = []

    def recorded(space, g1, g2, rao=False):
        seen.append(rao)
        return 1
    monkeypatch.setattr(cli, "cocycle_formula", recorded)
    for rao in (False, True):
        seen.clear()
        assert cli.main(["cocycle", "--field", "fq:3:1", "--m", "1",
                         "--path", "formula", "--exhaustive"]
                        + ["--rao"] * rao) == 0
        assert json.loads(capsys.readouterr().out) == {"pairs": 576,
                                                       "trivial": True}
        assert seen == [rao] * 576


def _query(argv, capsys):
    """(exit, stdout, stderr) of one in-process cli.main call."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


MIXED = [
    ["hilbert", "--field", "qp:5", "--a", "5", "--b", "2"],
    ["omega", "--field", "fq:3:1", "--form", "diag:1,2", "--approx"],
    ["hasse", "--field", "qp:3", "--form", "diag:3,3", "--out", "csv"],
    ["bruhat", "--field", "fq:3:1", "--m", "1", "--g", "1,0,1,1"],
    ["cocycle", "--field", "qp:5", "--m", "1", *QP_G],
    ["theta", "--field", "fq:3:1", "--V", "diag:1", "--coeff", "fl:7:1"],
    ["hilbert", "--field", "qp:5", "--a", "1"],
    ["omega", "--field", "fq:3:0", "--form", "diag:1"],
]


def test_parser_built_once_per_process(monkeypatch, capsys):
    # one tree is ten _Parser instances (the top level and nine
    # subcommands); main builds it on its first call and reuses it
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kw):
        built.append(kw.get("prog"))
        init(self, *args, **kw)
    monkeypatch.setattr(cli._Parser, "__init__", counted)
    monkeypatch.setattr(cli, "_PARSER", None, raising=False)
    codes = [_query(MIXED[k % len(MIXED)], capsys)[0] for k in range(20)]
    assert codes[:len(MIXED)] == [0, 0, 0, 0, 0, 0, 2, 2]
    assert len(built) <= 10


# malformed (and a few valid) values by the kind of option they fill
FUZZ_VALUES = {
    "field": ["qp:-3", "fq:3:-1", "fq:3:0", "fq:3:11", "fq:4:1", "fq:2:1",
              "qp:2", "qp:1", "qp:5:1", "fq:3", "fq:x:1", "qp:five", "",
              ":", "zz:3", "qp:5/2", "fq:3:1.0", "fq:5:1", "qp:3"],
    "form": ["diag:", "diag:1,", "diag:x", "diag:1/0", "diag:1/3", "diag:0",
             "diag:-1", "diag:1,1,1", "gram:1,2,3", "gram:1,2,3,4", "gram:",
             "gram:0,1,1,0", "lin:1", ""],
    "matrix": ["1,2,3", "", "1,0,0,1,0", "x,0,0,1", "1/0,0,0,1", "1,1,1,1",
               "0,0,0,0", "-1,0,0,-1", "1,,0,1", "1.5,0,0,1", "0,-1,1,0"],
    "character": ["psi:twist:0", "psi:twist:x", "psi:twist:", "psi:twist:1/0",
                  "psi:twist:2", "psi:twist:3", "psi", "bogus",
                  "psi:level0", "psi:standard", ""],
    "coeff": ["fl:0:1", "fl:4:1", "fl:7:0", "fl:2:1", "fl:7", "fl:x:1",
              "fl:-7:1", "fl:2:24", "fl:2:1000000000", "fl:2:2", "fl:7:1",
              "cyclo", ""],
    "int": ["0", "-1", "x", "1.5", "", "2"],
    "scalar": ["0", "1/0", "x", "", "-1/2", "25", "1.5"],
    "path": ["dense", "", "formula", "operator"],
    "out": ["csv", "json", "", "{tmp}", "{tmp}/missing/x.json",
            "{tmp}/o.csv", "{tmp}/o.json"],
    "emit": ["", "{tmp}", "{tmp}/missing/x", "{tmp}/h.json"],
}

# each subcommand's valid base query and the kind of each option it takes
FUZZ_BASE = {
    "omega": ({"--field": "fq:3:1", "--form": "diag:1,2"},
              {"--field": "field", "--form": "form", "--psi": "character",
               "--out": "out"}),
    "hilbert": ({"--field": "qp:5", "--a": "5", "--b": "2"},
                {"--field": "field", "--a": "scalar", "--b": "scalar",
                 "--out": "out"}),
    "hasse": ({"--field": "qp:3", "--form": "diag:3,3"},
              {"--field": "field", "--form": "form", "--out": "out"}),
    "bruhat": ({"--field": "fq:3:1", "--m": "1", "--g": "1,0,1,1"},
               {"--field": "field", "--m": "int", "--g": "matrix",
                "--out": "out"}),
    "cocycle": ({"--field": "qp:5", "--m": "1", "--g1": "2,0,0,1/2",
                 "--g2": "1,0,5,1"},
                {"--field": "field", "--m": "int", "--g1": "matrix",
                 "--g2": "matrix", "--psi": "character", "--path": "path",
                 "--out": "out"}),
    "weilrep": ({"--field": "fq:3:1", "--m": "1"},
                {"--field": "field", "--m": "int", "--psi": "character",
                 "--out": "out"}),
    "heisenberg": ({"--field": "fq:3:1", "--m": "1"},
                   {"--field": "field", "--m": "int", "--psi": "character",
                    "--emit": "emit", "--out": "out"}),
    "theta": ({"--field": "fq:3:1", "--V": "diag:1"},
              {"--field": "field", "--V": "form", "--mprime": "int",
               "--coeff": "coeff", "--out": "out"}),
    "selfcheck": ({"--seed": "42"}, {"--seed": "int"}),
}

FUZZ_EXTRA = [
    [], ["frobnicate", "--field", "fq:3:1"], ["hilbert", "--field", "qp:5"],
    ["omega", "--field", "fq:3:1", "--form", "diag:1", "--approx"],
    ["cocycle", "--field", "qp:5", "--m", "1", *QP_G, "--exhaustive"],
    ["cocycle", "--field", "qp:5", "--m", "1", *QP_G, "--rao"],
    ["cocycle", "--field", "qp:5", "--m", "1", *QP_G, "--path", "operator",
     "--rao"],
    ["cocycle", "--field", "qp:5", "--m", "2", "--g1",
     ",".join(["1"] + ["0"] * 15), "--g2", ",".join(["1"] + ["0"] * 15),
     "--path", "operator"],
    ["cocycle", "--field", "fq:3:1", "--m", "1", "--path", "operator",
     "--exhaustive", "--approx"],
    ["hilbert", "--field", "qp:5", "--a", "5", "--b", "2", "--approx"],
    ["selfcheck", "--approx"],
]


def _fuzz_table(tmp):
    table = []
    for command, (base, kinds) in FUZZ_BASE.items():
        for option, kind in kinds.items():
            for value in FUZZ_VALUES[kind]:
                args = dict(base, **{option: value.format(tmp=tmp)})
                table.append([command] + [x for kv in args.items()
                                          for x in kv])
    return table + FUZZ_EXTRA


def test_cli_fuzz_table(tmp_path, capsys):
    # every probe ends with exit 0, 1 or 2 and, unless 0, one stderr line;
    # replayed in a seeded shuffled order on the same (shared) parser, each
    # gives the same exit, stdout and stderr
    table = _fuzz_table(tmp_path)
    first = {}
    for argv in table:
        code, out, err = first[tuple(argv)] = _query(argv, capsys)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code:
            assert len(err.splitlines()) == 1, (argv, err)
    assert {c for c, _, _ in first.values()} >= {0, 2}
    order = list(first)
    random.Random(19).shuffle(order)
    for argv in order:
        assert _query(list(argv), capsys) == first[argv], argv


def test_extension_field_twist_is_an_index_below_q(capsys):
    # over F_{p^f}, f > 1, psi:twist:<c> names the element of index c, so
    # a c outside [0, q) is refused rather than read mod q: over F_9, -1
    # was index 8 (2 + 2x, not -1) and 10 was index 1
    base = ["weilrep", "--field", "fq:3:2", "--m", "1", "--psi"]
    for c in ("-1", "9", "10"):
        assert _query(base + ["psi:twist:" + c], capsys) == (
            2, "", "error: twist %s in 'psi:twist:%s' is not an element "
            "index of F_9: it must lie in [0, 9)\n" % (c, c))
    code, out, err = _query(base + ["psi:twist:8"], capsys)
    assert code == 0 and err == "" and out != _query(base, capsys)[1]
    # over F_p both readings of an int agree: -1 is 2
    f3 = ["weilrep", "--field", "fq:3:1", "--m", "1", "--psi"]
    assert _query(f3 + ["psi:twist:-1"], capsys) == \
        _query(f3 + ["psi:twist:2"], capsys)
