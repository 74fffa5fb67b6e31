import json
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
