from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import bench_family  # noqa: E402


def test_family_bench_counts_groebner_runs_per_stage():
    # one cold run on fixture 3.4: the profile computes no Groebner basis,
    # and only the Hilbert polynomial of N takes one (that of the composite
    # follows from its rank), in the first of the stages that need it
    real = bench_family.modgb._buchberger
    times, gb_runs, invariants = bench_family.run_once(bench_family.fresh_34)
    assert set(times) == set(gb_runs) == set(bench_family.STAGES)
    assert gb_runs == {"profile": 0, "lift": 0, "composite": 0, "verify": 0,
                       "quotient_hilbert": 1, "family": 1}
    assert invariants == [-33, 13, 120, 1001]
    assert bench_family.modgb._buchberger is real  # the counter is taken off
