"""Golden stdout: sha256 of stdout and the exit code of fixed CLI queries.

The hashes pin the bytes the CLI prints for the README's commands (all but
``--emit``, which writes a file), a Q_p Bruhat decomposition at m = 2 whose
p1 and p2 have non-integral entries and a Q_p closed-form cocycle at m = 2
with a non-empty Leray rho, the weilrep and heisenberg dumps over F_3
and, twisted, over F_5 (not with ``--approx``, whose floats depend on the
platform's libm), the four-row theta table of diag:1,1
(its ``char1``/``char2``/``char3`` labels follow the order in which the
characters of O(V) are enumerated) and ``selfcheck --seed 42``.  A change
that claims to keep the outputs must leave every hash as it is.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from weilmod import cli

QP_G = ["--g1", "2,0,0,1/2", "--g2", "1,0,5,1"]

GOLDEN = [
    (["hilbert", "--field", "qp:5", "--a", "5", "--b", "2"], 0,
     "1dee49a803f0b1d4ce4845bac187c0640935ec03630229113d66d9e19f703bfd"),
    (["omega", "--field", "qp:5", "--form", "diag:2,3"], 0,
     "2c320937dedf8f5d4b9cfd63ae240c4faa38f86c61f887e0a42842ffaeff58ca"),
    (["hasse", "--field", "qp:3", "--form", "diag:3,3"], 0,
     "da28c033fd99c75818ab7905573455533e5138b749aa0c473bedd1754e63e5f8"),
    (["bruhat", "--field", "fq:3:1", "--m", "1", "--g", "1,0,1,1"], 0,
     "b2b71bda7627699d48eb2ec151b20ab16117bed331e5621c7f64c0cc43cd37ea"),
    (["cocycle", "--field", "fq:3:1", "--m", "1", "--path", "operator",
      "--exhaustive"], 0,
     "b4eea04599f1b150f1420a278fa611624ce7b6cf68d52d70cf948952ce03905f"),
    (["cocycle", "--field", "qp:5", "--m", "1", *QP_G, "--path", "formula"],
     0, "501eced6e66ad8e0ef3edc42f77b75cbbc8014097ab61f199c825ab3ddb8b3f6"),
    (["cocycle", "--field", "qp:5", "--m", "1", *QP_G, "--path", "operator"],
     0, "5b4a8deef39e6cf62ed8532da5ba878dad410094405a298b2b1c37e3538a049d"),
    (["cocycle", "--field", "qp:101", "--m", "1", "--g1", "1,0,0,1",
      "--g2", "0,-1,1,0", "--path", "operator"], 0,
     "e4e8c355226d6edbb16c4d0179b0af835433bbb4e0bb604cd5562707c4867ec4"),
    (["bruhat", "--field", "qp:5", "--m", "2", "--g",
      "-1,-5,-1/2,1/2,-2,6,1,-1,0,-1,-1/2,0,0,1/2,-1/4,0"], 0,
     "c4ab59fa761d5a3cd1ca17f85ab1d94389e5776214fdf2656c6e73d86f83de73"),
    (["cocycle", "--field", "qp:5", "--m", "2",
      "--g1", "0,0,1,0,0,1,-2,-2,-1,2,-5,-2,0,0,2,1",
      "--g2", "-2/5,2,1,4/5,2/5,1,-2,1/5,-1/5,0,0,2/5,2/5,0,0,1/5",
      "--path", "formula"], 0,
     "744183f12d3845e61beff7c22a29139848b96155030cf4eeef6daf5175fe9f3d"),
    (["weilrep", "--field", "fq:3:1", "--m", "1"], 0,
     "6c5f5608d89e02be29cdce0fb4895f24a544a0f21db6172d76013fb2b5d1b8fb"),
    (["weilrep", "--field", "fq:5:1", "--m", "1", "--psi", "psi:twist:2"],
     0, "3700e3dc993c20f0ec817e873150b1c61d0960aaee49ece2b76cc9dc1fafab54"),
    (["heisenberg", "--field", "fq:3:1", "--m", "1"], 0,
     "e33ed3388dbe85c2d13e01cb912fe6df35b201e0cd7cdaf14a03fe2df352cae9"),
    (["heisenberg", "--field", "fq:5:1", "--m", "1", "--psi",
      "psi:twist:3"], 0,
     "eb510648af8e0009d781d49454958af4f5defa1b00a7263c402117275ab3eacb"),
    (["theta", "--field", "fq:3:1", "--V", "diag:1", "--mprime", "1",
      "--coeff", "cyclo", "--out", "csv"], 0,
     "a53fbcce9c7489190f1a780bf75d4ff2e8528fceead82cc11a5b2d124f62e777"),
    (["theta", "--field", "fq:3:1", "--V", "diag:1,1", "--mprime", "1",
      "--coeff", "cyclo", "--out", "csv"], 0,
     "b6ddc4840add8d7c25bf5f4a37ed55c7d3abd5892ec57de2203d2e7be7932178"),
    (["selfcheck", "--seed", "42"], 0,
     "2ac65684b8463efa2fd8e5d10cdbcedbdde887c437945e1af8045fb742ea33ff"),
]


@pytest.mark.parametrize("args,code,digest", GOLDEN,
                         ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_golden_stdout(args, code, digest):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "weilmod.cli", *args],
                          capture_output=True, env=env)
    assert proc.returncode == code, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest, proc.stdout


def test_golden_stdout_in_process(capsys):
    # one process answers every row, in table order and then reversed: the
    # parser main builds once carries nothing (--approx, --exhaustive, a
    # default) from one query into the next
    for rows in (GOLDEN, GOLDEN[::-1]):
        for args, code, digest in rows:
            got = cli.main(list(args))
            out = capsys.readouterr().out
            assert got == code, args
            assert hashlib.sha256(out.encode()).hexdigest() == digest, args
