"""Output pins: the sha256 of stdout for a fixed set of CLI invocations.

Every output of the package is deterministic byte-for-byte, so a change
that should leave the results alone (a refactor, a speed-up) must leave
these hashes alone too.  The invocations cover every subcommand that
builds a scattering diagram, each rendering format of ``scatter``, the
README examples, one job each of ``mutate`` and ``ar``, and a ``strata``
job whose counting polynomial has 3,640 torus-fixed points.  Each runs
in process through ``cli.main``.
"""

import hashlib

import pytest

from clusterscatter.cli import main

PINNED = [
    (
        "scatter --b 1 --order 6 --json",
        "e6cb70cb8760a52c84c12c065b0474dd1736e8884c95c21dc1ca8e013dcd489e",
    ),
    (
        "scatter --b 2 --order 6 --json",
        "23c28588a97a5978d5d802e21a1f5a2d8d222f8d2cefa836fa36fe418707f978",
    ),
    (
        "scatter --b 3 --order 6 --json",
        "45b6221062c74671468510e8f3c0f28613544abe0fd70c831e51f59a90b8c3b9",
    ),
    (
        "scatter --b 4 --order 6 --json",
        "36f12bf419a383ab5e797f428087f882bb27d3c8757b60c652d5da53d6d4ea02",
    ),
    (
        "scatter --b 5 --order 6 --json",
        "07db5b5071676ad40b43abf17602b32a18a40fcd38fe00a8c671865457dfb7f5",
    ),
    (
        "scatter --b 3 --order 12 --json",
        "c376f2a991920254b630acffa7c808430cb5a8486cb671d9c37632ed381b1d43",
    ),
    (
        "scatter --b 2 --order 16 --json",
        "882c9ec1d93fe092dbdca9bbbbe99d6f5002139b681ab17286ced4e418a592bc",
    ),
    (
        "scatter --b 2 --order 8",
        "90d633fc51098f413f4d628390401c67c53ddb1fcb1530b771fa79da3c1c7e2f",
    ),
    (
        "scatter --b 2 --order 8 --svg",
        "bbad922a0482e8c3e32919a4a8b310639ab750f1f680a4ec8759ed56bdbf5c47",
    ),
    (
        "scatter --b 2 --order 8 --tikz",
        "f71ac974f988c54ce430e3c2d6e2abec36390c7d160177f617dbe262c81e5288",
    ),
    (
        "scatter --b 1 --order 6",
        "fefcab48e78527600b67c2e1f36f40c08efb67ca28b0e6b0c0309af637b59d1d",
    ),
    (
        "theta --b 2 --m 1,-1,0,0 --endpoint 3/2,1 --order 8",
        "500b1ca519ea008f43c370913f958eae20bb33084cc2896b7907a1a9eb507c1a",
    ),
    (
        "theta --b 2 --m 1,-1,0,0 --endpoint 3/2,1 --order 8 --json",
        "1d84e417e47ee2867525c9755e3b3c88ec291702df3a06eb64eb373f090cfb24",
    ),
    (
        "theta --b 2 --m 2,-2,-1,-1 --endpoint 1,-3/2 --order 8",
        "c724d77c35e23f2b2438fbb04abb8b2ce82b68ad6e6ac9edd5d0d53a18ab643e",
    ),
    (
        "theta --b 2 --m 2,-2,-1,-1 --endpoint=-9/7,-9/5 --order 8 --svg",
        "9f3110c00edf56c215debe3e27b3688088e66d8a76c3b055c79e7611b6df51f3",
    ),
    (
        "theta --b 3 --m 1,-1,0,0 --endpoint 3/2,1 --order 6",
        "58db52192458dda1c31e6e79aceae17f17e2816a15c86378a5f38bea64352783",
    ),
    (
        "theta --b 2 --m=-1,1,0,0 --endpoint 3/2,1 --order 6",
        "22216aed83774f75da1524b5915ef98e3ab4547def973b8aa6bb548eabb28f8a",
    ),
    (
        "theta --b 2 --m 1,-1,0,0 --endpoint=-3/2,1 --order 6",
        "93c93e1d3eba34b23c0ddffec631a9b4e0db048fb70b8f9127bfc2b5b46bb8b3",
    ),
    (
        "theta --b 3 --m 3,-8,0,0 --order 8 --tikz --endpoint 157/100,83/100",
        "5b89330f65ed01092f988f8e3da8967690ca5dee6439a06898ebb2b06c15f731",
    ),
    (
        "theta --b 3 --m 3,-8,0,0 --order 8 --tikz --endpoint 1,-29/20",
        "aabc337ccd8259c06d09fc3be2ea9f9db82a9e346e01363d3db07d23b22ecb82",
    ),
    (
        "strata --quiver kronecker2 --D 5,6 --e 2,4 --endpoint 2,1",
        "74620c7bf02786e851c6c36994bd84f695d71f832c284650eaa8d3a39a4e9bd4",
    ),
    (
        "strata --quiver kronecker2 --D 5,6 --e 2,4 --endpoint 2,1 --json",
        "e5f24b8f1f05a5f0140c77624428be968d51ebd80d253ed32a6e0b88a7e9ef7c",
    ),
    (
        "strata --quiver kronecker2 --D 16,17 --e 3,6 --endpoint 2,1",
        "94b06431b64ca6771b910e6864bebf937d64f798043ff098ec1f04d84a421b0f",
    ),
    (
        "grass --quiver kronecker2 --D 5,6 --e 2,4",
        "7ee29791fc17e986b97128845622b077fb45e349fdb80523fac9dba879b4ad60",
    ),
    (
        "cc --quiver kronecker2 --D 5,6 --json",
        "fff267b11eabede2d37eeb762ee647673875ea88f95b2a0566d885259ba90ce1",
    ),
    (
        "mutate --b 2 --word 1,2",
        "bdc8ffd24504d86f52a7f4aec9c26c84bd90a594c0e6343b859f69a7d652b545",
    ),
    (
        "mutate --b 2 --word 1,2 --json",
        "5ef4c9e93f911644558d48c8a9971c8f2253ff1d62547400127dd27f07b2e14b",
    ),
    (
        "ar --quiver kronecker2 --tau 2,3",
        "9721427843deede4ecff707e269cf547c21a874815e03c311fddb2cfb4a07388",
    ),
    (
        "ar --quiver a3 --component P --bound 3 --dot",
        "1ef716c78625f15891c2d077187e3e0c0e4858c5999daaadc198a3122e0166ca",
    ),
]


@pytest.mark.parametrize(
    "command, digest", PINNED, ids=[command for command, _ in PINNED]
)
def test_stdout_hash_is_pinned(capsys, command, digest):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
