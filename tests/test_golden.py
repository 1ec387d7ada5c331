"""Golden reports: the default-seed JSON and stderr of `qprofile` and
`minimal-family` on every fixture must stay byte-identical, and so must a
few 3.4 reports at seeds where single restricted witness minors share
nonlinear squarefree factors (seed 902: one of degree 4; seed 100: two
quadrics), plus `minimal-family` at seed 11.

The files under ``tests/golden/`` were written by the CLI itself, e.g.

    biliaison minimal-family --fixture 3.4 --format json \
        > tests/golden/minimal-family-3.4.json 2> tests/golden/minimal-family-3.4.stderr

A speed-up that changes a report changes an answer or a certificate; mend the
code, do not regenerate the files.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from biliaison.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("fixture", ["3.2", "3.3", "3.4"])
@pytest.mark.parametrize("command", ["qprofile", "minimal-family"])
def test_default_seed_report_is_golden(command, fixture):
    out, err = io.StringIO(), io.StringIO()
    assert main([command, "--fixture", fixture, "--format", "json"], out=out, err=err) == 0
    stem = f"{command}-{fixture}"
    assert out.getvalue() == (GOLDEN / f"{stem}.json").read_text()
    assert err.getvalue() == (GOLDEN / f"{stem}.stderr").read_text()


@pytest.mark.parametrize("command, seed", [
    ("qprofile", 902), ("qprofile", 100), ("minimal-family", 11),
])
def test_seeded_34_report_is_golden(command, seed):
    out, err = io.StringIO(), io.StringIO()
    argv = [command, "--fixture", "3.4", "--seed", str(seed), "--format", "json"]
    assert main(argv, out=out, err=err) == 0
    stem = f"{command}-3.4-seed{seed}"
    assert out.getvalue() == (GOLDEN / f"{stem}.json").read_text()
    assert err.getvalue() == (GOLDEN / f"{stem}.stderr").read_text()
