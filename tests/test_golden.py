"""Golden output: a small fixed spec must keep producing byte-identical files.

The spec covers all three protocols, padding with alias channels (10 -> 12
effective), a fixed negative drift and downsizing (11 -> 9 effective).  The
digest is that of `sha256sum *.csv *.ndjson | sha256sum` in the output
directory; it must not depend on the worker count.
"""

import hashlib

import pytest

from skolemhop import cli

GOLDEN_SPEC = """\
seed = 7
pairs = 50
horizon = 300
busy = 40
channels = 10
plan = padding

[variation]
name = sass-pu50
protocol = sass
pu = 50

[variation]
name = sass-pu25-neg
protocol = sass
pu = 25
drift = -37

[variation]
name = rch-pu50
protocol = rch
pu = 50

[variation]
name = css-pu25-down
protocol = css
pu = 25
channels = 11
plan = downsizing
"""

GOLDEN_DIGEST = "b3743d6612660b2ddbe222c6b29f975c912567cea440f755af41a81f588a87fe"


def output_digest(out_dir) -> str:
    """Python rendering of `sha256sum *.csv *.ndjson | sha256sum`."""
    paths = sorted(out_dir.glob("*.csv")) + sorted(out_dir.glob("*.ndjson"))
    listing = "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n" for p in paths
    )
    return hashlib.sha256(listing.encode()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_output_digest(tmp_path, capsys, workers):
    spec_path = tmp_path / "golden.spec"
    spec_path.write_text(GOLDEN_SPEC)
    out_dir = tmp_path / "out"
    code = cli.main([
        "experiment", str(spec_path), "--out", str(out_dir),
        "--records", "--workers", str(workers),
    ])
    assert code == 0, capsys.readouterr().err
    assert len(list(out_dir.glob("*.ndjson"))) == 4
    assert output_digest(out_dir) == GOLDEN_DIGEST
