"""Time the stages of a cold profile and minimal family, in process.

Run from the root of a source checkout (no install step):

    python3 bench/bench_family.py --runs 3

Each run starts from a matrix with nothing kept on it: a fresh copy of
fixture 3.4, then `rao_family(8, 4, 1)` and, last, `rao_family(12, 6, 1)`,
each built anew.  On that matrix it times
`compute_q_profile` (profile), then, one after the other on the first lift
`minimal_family` draws, `sample_general_morphism` (lift), the composite
s_t * v (composite), `verify_general_morphism`, which ranks it and
certifies its coprime minors (verify), and `quotient_hilbert_data`, the
Hilbert polynomials of the quotient (quotient_hilbert): P_N from the
Groebner basis of s_t, and P_U of the composite from its kept rank and one
rank of its span at the lift's top degree, with no basis.  Last comes
`minimal_family` with that profile on a second fresh copy (family), which
takes all of those steps again; the first copy, with all it keeps, is
dropped before the second is built, so the process holds one copy's results
at a time, as a command does.  The matrices are built outside the timed
stages.  Each figure is the median of `--runs`.  Beside the times, each
stage counts its Buchberger runs (`modgb._buchberger`), which do not vary
from run to run: each copy needs one basis, that of s_t, taken in
quotient_hilbert on the first copy and in the family stage on the second.

Memory is read two ways.  After each instance's timed runs the script reads
the process's peak resident set (`ru_maxrss`), a maximum over the process so
far, so the instances go from small to large.  After every instance is
timed, one untimed pass per instance under `tracemalloc` gives each stage's
traced peak: the most memory it held at once beyond what was allocated when
it began.

The script writes `BENCH_family.json` (or `--out`) with the git sha, whether
the tree differs from it, the versions, and per instance the medians, the
Buchberger runs per stage, every run, the traced peaks and `ru_maxrss` in
MB, and the family's (deg N, h0, d0, g0).  It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

from bench_plane_certificate import git_state  # noqa: E402
from biliaison import families, fixtures, modgb, qprofile  # noqa: E402
from biliaison.grmatrix import GradedMatrix  # noqa: E402

STAGES = ("profile", "lift", "composite", "verify", "quotient_hilbert", "family")


def fresh_34() -> GradedMatrix:
    m = fixtures.example("3.4").matrix
    return GradedMatrix(m.field, m.row_degrees, m.col_degrees, m.entries)


INSTANCES = {
    "3.4": fresh_34,
    "rao_family(8, 4, 1)": lambda: fixtures.rao_family(8, 4, 1),
    "rao_family(12, 6, 1)": lambda: fixtures.rao_family(12, 6, 1),
}


def seconds(step) -> tuple:
    """(the result of step(), the seconds it took)."""
    start = time.perf_counter()
    result = step()
    return result, time.perf_counter() - start


def traced_mb(step) -> tuple:
    """(the result of step(), the most memory it held at once, in MB, beyond
    what was traced when it began); `tracemalloc` must be tracing."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = step()
    return result, (tracemalloc.get_traced_memory()[1] - base) / 2**20


def run_once(build, measure=seconds) -> tuple:
    """(`measure`'s figure per stage, by default seconds, Buchberger runs
    per stage, the family's invariants) on fresh matrices."""
    s = build()
    figures, gb_runs = {}, {}
    real, started = modgb._buchberger, []

    def counted(*args):
        started.append(None)
        return real(*args)

    def timed(stage, step):
        before = len(started)
        result, figures[stage] = measure(step)
        gb_runs[stage] = len(started) - before
        return result

    modgb._buchberger = counted
    try:
        profile = timed("profile", lambda: qprofile.compute_q_profile(s))
        seed = qprofile.subseed(qprofile.DEFAULT_SEED, "minimal-family", 0)
        v = timed("lift", lambda: families.sample_general_morphism(
            s, profile.q_function(), seed=seed, profile=profile))
        timed("composite", lambda: families._composite(s, v))
        timed("verify", lambda: families.verify_general_morphism(s, v, profile, seed=seed))
        timed("quotient_hilbert", lambda: families.quotient_hilbert_data(s, v))
        del s, v  # with all they keep
        again = build()
        report = timed("family", lambda: families.minimal_family(again, profile=profile))
    finally:
        modgb._buchberger = real
    return figures, gb_runs, [report.deg_N, report.h0, report.d0, report.g0]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=3, help="runs per instance (median)")
    ap.add_argument("--out", default=str(ROOT / "BENCH_family.json"))
    args = ap.parse_args()
    instances = {}
    for name, build in INSTANCES.items():
        runs = []
        for _ in range(args.runs):
            times, gb_runs, invariants = run_once(build)
            runs.append(times)
        medians = {stage: statistics.median(t[stage] for t in runs) for stage in STAGES}
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux
        instances[name] = {"median_s": medians, "buchberger_runs": gb_runs, "runs": runs,
                           "maxrss_mb": maxrss, "invariants": invariants}
        print(f"{name}: " + ", ".join(f"{k} {medians[k]:.4f} s ({gb_runs[k]} GB)" for k in STAGES)
              + f"; ru_maxrss {maxrss:.1f} MB; (deg N, h0, d0, g0) = {tuple(invariants)}", file=sys.stderr)
    tracemalloc.start()
    try:
        for name, build in INSTANCES.items():
            peaks = instances[name]["traced_peak_mb"] = run_once(build, traced_mb)[0]
            print(f"{name}: traced peak " + ", ".join(f"{k} {peaks[k]:.1f} MB" for k in STAGES),
                  file=sys.stderr)
    finally:
        tracemalloc.stop()
    sha, dirty = git_state()
    report = {
        "bench": "family",
        "git_sha": sha,
        "git_dirty": dirty,
        "runs": args.runs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "instances": instances,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
