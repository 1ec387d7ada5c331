"""Time the multivariate GCD on the inputs that reach it, in process.

Run from the root of a source checkout (no install step):

    python3 bench/bench_gcd.py --runs 3

Each rank-drop instance is a cold `compute_q_profile` of
`fixtures.rank_drop_sigma1(r, f, ncommon, 1)`, built anew for every run.  Its
columns of degree f + 1 share a form of degree f, so the minor analysis at
that degree reaches the honest fallback, whose witness minors go through
`polyring.gcd` and `squarefree_factors`.  The squarefree case splits the
determinant of a seeded 4 x 4 block of three-term linear and quadric forms.
Each figure is the median of `--runs`.

The script writes `BENCH_gcd.json` (or `--out`) with the git sha, whether the
tree differs from it, the versions, and per case the median, the runs and
the profile records or the factor degrees.  It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

from bench_plane_certificate import git_state  # noqa: E402
from biliaison import fixtures, modgb, polyring, qprofile  # noqa: E402
from biliaison.grmatrix import GradedMatrix, determinant  # noqa: E402
from biliaison.polyring import FieldSpec, MultiPoly  # noqa: E402

RANK_DROP = [(5, 3, 4), (6, 2, 5), (6, 3, 5)]


def squarefree_input(seed: int = 1) -> MultiPoly:
    """The determinant of a 4 x 4 block of three-term forms of degrees 1, 1, 1, 2."""
    field = FieldSpec.prime()
    rng = random.Random(seed)

    def form(degree: int) -> MultiPoly:
        return MultiPoly(field, {e + (0,): rng.randrange(1, field.characteristic)
                                 for e in rng.sample(modgb.monomials_of_degree(degree), 3)})

    degrees = [1, 1, 1, 2]
    grid = [[form(d) for d in degrees] for _ in range(4)]
    return determinant(GradedMatrix(field, [0] * 4, degrees, grid))


def timed(run, runs: int) -> tuple:
    """(median seconds, every run's seconds, the last result)."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return statistics.median(times), times, result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=3, help="runs per case (median)")
    ap.add_argument("--out", default=str(ROOT / "BENCH_gcd.json"))
    args = ap.parse_args()
    cases = {}
    for r, f, ncommon in RANK_DROP:
        median, times, profile = timed(lambda: qprofile.compute_q_profile(
            fixtures.rank_drop_sigma1(r, f, ncommon, 1)), args.runs)
        cases[f"rank_drop_sigma1({r}, {f}, {ncommon}, 1) profile"] = {
            "median_s": median, "runs_s": times,
            "records": [[x.n, x.alpha, x.beta, x.q_sharp] for x in profile.records]}
    det = squarefree_input()
    median, times, factors = timed(lambda: polyring.squarefree_factors(det), args.runs)
    cases["squarefree 4 x 4 determinant"] = {
        "median_s": median, "runs_s": times, "factor_degrees": [q.degree for q in factors]}
    for name, case in cases.items():
        print(f"{name}: {case['median_s']:.4f} s", file=sys.stderr)
    sha, dirty = git_state()
    report = {
        "bench": "gcd",
        "git_sha": sha,
        "git_dirty": dirty,
        "runs": args.runs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
