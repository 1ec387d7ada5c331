"""Time the local-freeness check, `modgb.has_constant_rank`, and the cold
CLI commands it runs in front of.

Run from the root of a source checkout (no install step):

    python3 bench/bench_local_freeness.py --runs 7

Blocks: every block of s_t for fixtures 3.2 and 3.3, and a few seeded
random blocks of linear forms (row degrees 0, one column degree 1).  Each
run checks a fresh copy of the block, with nothing kept on it, so it is
ranked and certified from scratch; the median of `--runs` is kept, with the
verdict.  The generic 2 x 4, 4 x 6 and 5 x 7 blocks drop rank at points,
so the symbolic route decides them (not locally free): their 2-, 4- and
5-minors are taken together by `grmatrix.minors`.

CLI: `biliaison qprofile --fixture F --format json` for F = 3.2, 3.3 and 3.4,
and `biliaison minimal-family --fixture 3.4 --format json`, each run in a
fresh interpreter that builds the fixture first and then times the one
`cli.main` call, as the benchmark's `profile_s` and `solve_s` do.  3.4
asserts local freeness, so no check runs there.

The script writes `BENCH_local_freeness.json` (or `--out`) with the git sha,
whether the tree differs from it, the versions, and the medians and runs of
every block and command.  It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

from bench_plane_certificate import git_state  # noqa: E402
from biliaison import families, fixtures, modgb  # noqa: E402
from biliaison.grmatrix import GradedMatrix, ranked_blocks  # noqa: E402
from biliaison.polyring import FieldSpec  # noqa: E402

COMMANDS = (("qprofile", "3.2"), ("qprofile", "3.3"), ("qprofile", "3.4"),
            ("minimal-family", "3.4"))
LINEAR_SHAPES = ((1, 4), (2, 5), (3, 6), (2, 4), (4, 6), (5, 7))  # (rows, cols) of the random blocks

COLD_CALL = """
import io, sys, time
from biliaison import cli, fixtures
from biliaison.polyring import FieldSpec
fixtures.example(sys.argv[2], FieldSpec.parse("prime:32003"))
start = time.perf_counter()
code = cli.main([sys.argv[1], "--fixture", sys.argv[2], "--format", "json"],
                out=io.StringIO(), err=io.StringIO())
print(time.perf_counter() - start, code)
"""


def blocks() -> dict:
    """name -> block, for the fixture blocks and the random linear ones."""
    out = {}
    for name in ("3.2", "3.3"):
        s_t = fixtures.example(name).matrix.specialize_closed_point()
        for i, (sub, _) in enumerate(ranked_blocks(s_t)):
            out[f"{name} block {i} ({sub.nrows} x {sub.ncols})"] = sub
    field = FieldSpec.prime()
    for rows, cols in LINEAR_SHAPES:
        rng = random.Random(rows * 100 + cols)
        out[f"linear {rows} x {cols}"] = families.random_matrix(field, [0] * rows, [1] * cols, rng)
    return out


def time_block(block: GradedMatrix, runs: int) -> dict:
    times, verdicts = [], set()
    for _ in range(runs):
        fresh = GradedMatrix.from_terms(block.field, block.row_degrees, block.col_degrees,
                                        *block.term_table())
        start = time.perf_counter()
        verdicts.add(modgb.has_constant_rank(fresh))
        times.append(time.perf_counter() - start)
    verdict, = verdicts
    return {"median_s": statistics.median(times), "locally_free": verdict, "runs": times}


def time_cold_command(command: str, name: str, runs: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", COLD_CALL, command, name], env=env,
                              cwd=ROOT, capture_output=True, text=True, check=True)
        seconds, code = done.stdout.split()
        if code != "0":
            raise RuntimeError(f"{command} --fixture {name} exited {code}")
        times.append(float(seconds))
    return {"median_s": statistics.median(times), "runs": times}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=7, help="runs per block and per command (median)")
    ap.add_argument("--out", default=str(ROOT / "BENCH_local_freeness.json"))
    args = ap.parse_args()
    checked = {}
    for name, block in blocks().items():
        checked[name] = time_block(block, args.runs)
        print(f"has_constant_rank {name}: {checked[name]['median_s'] * 1e3:.3f} ms, "
              f"locally free {checked[name]['locally_free']}", file=sys.stderr)
    cold = {}
    for command, name in COMMANDS:
        key = f"{command} {name}"
        cold[key] = time_cold_command(command, name, args.runs)
        print(f"cold {key}: {cold[key]['median_s'] * 1e3:.3f} ms", file=sys.stderr)
    sha, dirty = git_state()
    report = {
        "bench": "local_freeness",
        "git_sha": sha,
        "git_dirty": dirty,
        "runs": args.runs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "has_constant_rank": checked,
        "cold_cli": cold,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
