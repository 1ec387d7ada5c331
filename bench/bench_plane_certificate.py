"""Time the plane certificate, `qprofile._restricted_minor_gcd`, in process.

The certificate evaluates each block once on a seeded line and takes the
determinants of two random k x k combinations V B(t) U of it, at every
interpolation node and at (1 : 0), in one batched call; their GCD and the
determinants at (1 : 0) decide.  Run from the root of a source checkout (no
install step):

    python3 bench/bench_plane_certificate.py --runs 5

One cold `compute_q_profile` and `minimal_family` per instance records every
call the pipeline makes, as (block, k, seed); a block that several
truncations share is certified once.  Each call is then repeated
`--runs` times on the same block, and its median is kept.  The instances are
fixture 3.4 and `rao_family(8, 4, 1)`.  Each is split into the calls of the
profile and those of the family, which on 3.4 is the 19 x 16 composite.

The script writes `BENCH_plane_certificate.json` (or `--out`) with the git
sha, whether the tree differs from it, the versions, and per group the call
count and the sum of the medians.  It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from biliaison import families, fixtures, qprofile  # noqa: E402
from biliaison.grmatrix import GradedMatrix  # noqa: E402


def record(m: GradedMatrix) -> dict:
    """The certificate calls of a cold profile and family on a copy of m."""
    calls = {"profile": [], "family": []}
    certify = qprofile._restricted_minor_gcd
    phase = "profile"

    def spy(block, k, seed):
        calls[phase].append((block, k, seed))
        return certify(block, k, seed)

    cold = GradedMatrix(m.field, m.row_degrees, m.col_degrees, m.entries)
    qprofile._restricted_minor_gcd = spy
    try:
        profile = qprofile.compute_q_profile(cold)
        phase = "family"
        families.minimal_family(cold, profile=profile)
    finally:
        qprofile._restricted_minor_gcd = certify
    return calls


def time_calls(calls, runs: int) -> dict:
    blocks = []
    for block, k, seed in calls:
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            qprofile._restricted_minor_gcd(block, k, seed)
            times.append(time.perf_counter() - start)
        blocks.append({"shape": [block.nrows, block.ncols], "k": k,
                       "median_s": statistics.median(times)})
    return {"calls": len(blocks), "median_s": sum(b["median_s"] for b in blocks),
            "blocks": blocks}


def git_state() -> tuple:
    """(HEAD sha, whether tracked files differ from HEAD); None, None outside git."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=ROOT).returncode != 0
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, dirty


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="repeats per call (median)")
    ap.add_argument("--out", default=str(ROOT / "BENCH_plane_certificate.json"))
    args = ap.parse_args()
    instances = {
        "3.4": fixtures.example("3.4").matrix,
        "rao_family(8, 4, 1)": fixtures.rao_family(8, 4, 1),
    }
    groups = {}
    for name, m in instances.items():
        for phase, calls in record(m).items():
            group = groups[f"{name} {phase}"] = time_calls(calls, args.runs)
            print(f"{name} {phase}: {group['calls']} calls, {group['median_s']:.4f} s",
                  file=sys.stderr)
    sha, dirty = git_state()
    report = {
        "bench": "plane_certificate",
        "git_sha": sha,
        "git_dirty": dirty,
        "runs": args.runs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "groups": groups,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
