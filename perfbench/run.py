"""Benchmark of the biliaison engine: certified invariants, cold and warm.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ex34 --seed 1 --seconds 40 --trace 0

One client runs one operation at a time (a closed loop, no threads).  Each
operation runs in a child interpreter started by this script (``child.py``),
and its answers are checked against the fixture's expected values.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer split with ``--trace 1``.

Workloads (BENCHMARK.json gives the one-line reason for each):

* ``ex34``: fixture 3.4, cold.  Each sample is the ``qprofile`` command at
  the run's seed S, the ``minimal-family`` command, and ``qprofile`` again at
  S+1, each in its own fresh interpreter.  The two profiles must agree.
  ``minimal-family`` runs at the CLI's default seed: at some other seeds it
  does not finish (see ``README.md``).
* ``ex33``: the same on fixture 3.3, except that ``minimal-family`` takes S
  and S+1 in turn, and its invariants must agree between the two.
* ``shape32``: warm.  Set-up computes the profile and minimal family of 3.2;
  each operation then samples, verifies and measures a general morphism of
  the non-minimal shape {2: 2, 3: 1}.  Each sample is a set-up-only process
  and then a process that sets up and runs one operation, both at seed S+i
  for the i-th sample; that seed also seeds the lift.

Randomness only ever produces certificates, so the answers must not depend
on the seed.

An operation still running after ``OP_LIMIT_S`` is killed and counts as
failed, with the time it ran as its time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = {
    # "family_seed": "default" runs minimal-family at the CLI's default seed
    "ex34": {"fixture": "3.4", "warm": False, "family_seed": "default"},
    "ex33": {"fixture": "3.3", "warm": False},
    "shape32": {"fixture": "3.2", "warm": True},
}
OP_LIMIT_S = 60.0  # several times the slowest operation's normal time
HARD_LIMIT_S = 170.0  # no child runs past this point of the run

END_TO_END = {
    "solve_s": "s",
    "profile_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
RATIO_METRICS = ("hit_ratio", "witness_yield")  # per-layer metrics without a count unit


class Run:
    """State of one benchmark run: its clock, the operations and failures."""

    def __init__(self, root: str, seed: int, seconds: int):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.t0 = time.monotonic()
        self.attempted = 0
        self.failures = []
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def child(self, fixture, command, seed, trace=0, max_ops=1) -> dict:
        """Start one child and wait for it.

        Returns its report with ``setup_s`` filled in.  A child that crashed
        or was killed yields one failed operation timed until its end.
        """
        argv = [sys.executable, CHILD, "--fixture", fixture, "--command", command,
                "--seed", str(seed), "--trace", str(trace), "--max-ops", str(max_ops)]
        limit = max(1.0, min(OP_LIMIT_S, HARD_LIMIT_S - self.elapsed()))
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=limit)
            lines = proc.stdout.strip().splitlines()
            error = None if proc.returncode == 0 and lines else \
                f"exit {proc.returncode}: {proc.stderr[-800:]}"
        except subprocess.TimeoutExpired:
            error = f"killed after {limit:.0f} s"
        if error is not None:
            self.attempted += 1
            self.failures.append(f"{command} {fixture} seed {seed}: {error}")
            return {"ops": [{"s": time.monotonic() - t_spawn, "errors": [error], "answer": None}],
                    "setup_s": None, "rss_mb": None, "profile_s": None}
        report = json.loads(lines[-1])
        report["setup_s"] = report["t_ready"] - t_spawn
        for op in report["ops"]:
            self.attempted += 1
            if op["errors"]:
                self.failures.append(f"{command} {fixture} seed {seed}: {op['errors']}")
        if report["cold"] is False:
            self.failures.append(f"{command} {fixture}: caches were not empty at the timed call")
        return report


def _times(reports):
    return [op["s"] for r in reports for op in r["ops"]]


def _check_seed_independence(run: Run, answers) -> None:
    """The invariants computed under different seeds must coincide."""
    keys = ("q", "deg_N", "h0", "d0", "g0", "hilbert_polynomial")
    for command, per_seed in answers.items():
        views = {}
        for seed, obj in per_seed:
            view = obj if command == "qprofile" else {k: obj[k] for k in keys}
            views.setdefault(json.dumps(view, sort_keys=True), set()).add(seed)
        if len(views) > 1:
            run.attempted += 1
            run.failures.append(f"{command}: answers depend on the seed: {list(views.values())}")


def _sample(spec, seed: int, i: int):
    """The children of the i-th sample of a run, as (command, seed, max_ops).

    Short calls are spread over the run rather than bunched, because the
    machine's speed drifts within seconds.
    """
    if spec["warm"]:
        # a set-up-only probe for more setup_s/profile_s values, then one operation
        return [("shape", seed + i, 0), ("shape", seed + i, 1)]
    family_seed = spec.get("family_seed", seed + i % 2)
    return [("qprofile", seed, 1), ("minimal-family", family_seed, 1), ("qprofile", seed + 1, 1)]


def measure(run: Run, spec) -> dict:
    """End-to-end metrics of a run with tracing off."""
    answers = {"qprofile": [], "minimal-family": []}
    reports, solve, profile = [], [], []
    i, last = 0, 0.0
    # start another sample while it is expected to end at most half a sample
    # past the deadline, so runs last about --seconds on average
    while i == 0 or run.elapsed() + last / 2 <= run.seconds:
        t = time.monotonic()
        for command, seed, max_ops in _sample(spec, run.seed, i):
            r = run.child(spec["fixture"], command, seed, max_ops=max_ops)
            reports.append(r)
            (profile if command == "qprofile" else solve).extend(_times([r]))
            if r["profile_s"] is not None:
                profile.append(r["profile_s"])
            if command in answers and r["ops"][0]["answer"] is not None \
                    and not r["ops"][0]["errors"]:
                answers[command].append((seed, r["ops"][0]["answer"]))
        last = time.monotonic() - t
        i += 1
        if run.failures:
            break  # the same seeds would fail again
    _check_seed_independence(run, answers)
    print(f"samples: solve_s {solve} profile_s {profile} "
          f"setup_s {[r['setup_s'] for r in reports]}", file=sys.stderr)
    attempted = max(run.attempted, 1)
    setup = [r["setup_s"] for r in reports if r["setup_s"] is not None]
    rss = [r["rss_mb"] for r in reports if r["rss_mb"] is not None]
    values = {
        "solve_s": statistics.median(solve) if solve else None,
        "profile_s": statistics.median(profile) if profile else None,
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": max(rss) if rss else None,
        "ok_ratio": (attempted - len(run.failures)) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items() if v is not None}


def layer_split(run: Run, spec) -> dict:
    """Per-layer metrics of one traced sample, beside one untraced sample."""
    fixture = spec["fixture"]
    if spec["warm"]:
        plain = run.child(fixture, "shape", run.seed)
        traced = [] if run.failures else [run.child(fixture, "shape", run.seed, trace=1)]
    else:
        family_seed = spec.get("family_seed", run.seed)
        run.child(fixture, "qprofile", run.seed)
        plain = run.child(fixture, "minimal-family", family_seed)
        traced = [] if run.failures else [
            run.child(fixture, "qprofile", run.seed, trace=1),
            run.child(fixture, "minimal-family", family_seed, trace=1),
        ]
    if run.failures:
        return {}
    merged = tracing.merge(r["trace"] for r in traced)
    values = tracing.layer_metrics(merged)
    values["trace.overhead_ratio"] = _times(traced[-1:])[0] / _times([plain])[0]
    values["trace.coverage"] = merged["covered"] / sum(r["trace_wall"] for r in traced)
    return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}


def _unit(metric: str) -> str:
    if metric.endswith((".s", "self_s")):
        return "s"
    if metric.endswith(RATIO_METRICS) or metric.startswith("trace."):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "biliaison", "cli.py")):
        print("error: run from the root of a biliaison checkout (src/biliaison not found)",
              file=sys.stderr)
        return 2
    run = Run(root, args.seed, args.seconds)
    spec = WORKLOADS[args.workload]
    metrics = layer_split(run, spec) if args.trace else measure(run, spec)
    for f in run.failures:
        print(f"failure: {f}", file=sys.stderr)
    attempted = max(run.attempted, 1)
    result = {
        "correct": not run.failures and bool(metrics),
        "attempted": attempted,
        "failed": min(len(run.failures), attempted),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
