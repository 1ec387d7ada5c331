"""One benchmark process: set up, run timed operations, report one JSON line.

Cold mode (``--command qprofile|minimal-family``) builds the fixture and runs
that single CLI command in this fresh interpreter, so module caches start
empty.  Warm mode (``--command shape``) first computes the profile and the
minimal family of the fixture through the CLI, then runs the verified
pipeline for a non-minimal admissible shape ``--max-ops`` times.

With ``--trace 1`` the layer functions are wrapped by ``tracer.install``
right after import, so the fixture build is traced as well.

The last line of standard output is a JSON object; everything the CLI
prints is captured and parsed here instead.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import sys
import time
import traceback

import tracer as tracing

FIELD = "prime:32003"
SHAPE = {2: 2, 3: 1}
# (d, g) of the family cut out by a general lift of shape SHAPE on fixture 3.2
SHAPE_DG = (11, 14)


def _run_cli(cli, argv):
    out = io.StringIO()
    t0 = time.perf_counter()
    code = cli.main(argv, out=out, err=io.StringIO())
    dt = time.perf_counter() - t0
    text = out.getvalue()
    if code != 0:
        raise RuntimeError(f"exit code {code}: {text.strip()[:300]}")
    return dt, json.loads(text)


def _alpha_at(rows, n):
    if not rows or n < rows[0]["n"]:
        return 0
    if n > rows[-1]["n"]:
        return rows[-1]["alpha"]
    return next(r["alpha"] for r in rows if r["n"] == n)


def profile_mismatches(obj, expected):
    rows = sorted(obj["rows"], key=lambda r: r["n"])
    got = {
        "q": {int(k): v for k, v in obj["q"].items()},
        "b0": obj["b0"],
        "stable_rank": obj["stable_rank"],
    }
    bad = [f"{k}: expected {expected[k]}, got {v}" for k, v in got.items() if v != expected[k]]
    for n, want in expected["alpha"].items():
        if _alpha_at(rows, n) != want:
            bad.append(f"alpha_{n}: expected {want}, got {_alpha_at(rows, n)}")
    for n, want in expected["beta"].items():
        have = next((r["beta"] for r in rows if r["n"] == n), None)
        if have != want:
            bad.append(f"beta_{n}: expected {want}, got {have}")
    return bad


def family_mismatches(obj, expected):
    got = {
        "q": {int(k): v for k, v in obj["q"].items()},
        "deg_N": obj["deg_N"],
        "h0": obj["h0"],
        "d0": obj["d0"],
        "g0": obj["g0"],
    }
    return [f"{k}: expected {expected[k]}, got {v}" for k, v in got.items() if v != expected[k]]


def _cli_argv(command, fixture, seed):
    """CLI arguments; a seed of None leaves the CLI at its default seed."""
    argv = [command, "--fixture", fixture, "--format", "json", "--field", FIELD]
    return argv if seed is None else argv + ["--seed", str(seed)]


def _caches_empty():
    """True when the module-level result caches hold nothing (a cache that is
    gone counts as empty)."""
    from biliaison import grmatrix, modgb, qprofile

    return not any(getattr(mod, name, None) for mod, name in (
        (grmatrix, "_RANK_CACHE"), (modgb, "_PRESENTATION_CACHE"), (qprofile, "_PROFILE_CACHE")))


def _shape_op(families, qprofile, desc, seed, lift_seed, h0):
    """Verified pipeline for shape SHAPE; returns a list of mismatches."""
    from biliaison.grmatrix import CharFunction

    s = desc.matrix
    p = CharFunction(SHAPE)
    profile = qprofile.compute_q_profile(s, seed=seed)
    v = families.sample_general_morphism(s, p, seed=lift_seed, profile=profile)
    cert = families.verify_general_morphism(s, v, profile=profile, seed=lift_seed)
    h, d, g = families.family_degree_genus(s, v, p, profile=profile)
    p_n, p_p, p_q = families.hilbert_conservation(s, v, p)
    bad = []
    if not cert.coprime:
        bad.append("certificate is not coprime")
    if h != h0 + 1:
        bad.append(f"h: expected {h0 + 1}, got {h}")
    if (d, g) != SHAPE_DG:
        bad.append(f"(d, g): expected {SHAPE_DG}, got {(d, g)}")
    if p_q + p_p != p_n:
        bad.append("conservation P_Q + P_P = P_N fails")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--fixture", required=True)
    ap.add_argument("--command", choices=("qprofile", "minimal-family", "shape"), required=True)
    ap.add_argument("--seed", required=True,
                    help="an integer, or 'default' to run the CLI at its default seed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=1)
    args = ap.parse_args(argv)
    seed = None if args.seed == "default" else int(args.seed)

    from biliaison import cli, families, fixtures, qprofile
    from biliaison.polyring import FieldSpec

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    t_trace = time.perf_counter()

    report = {"ops": [], "cold": None, "profile_s": None}
    desc = fixtures.example(args.fixture, FieldSpec.parse(FIELD))
    expected = desc.expected
    if args.command == "shape":
        dt, obj = _run_cli(cli, _cli_argv("qprofile", args.fixture, seed))
        report["profile_s"] = dt
        bad = profile_mismatches(obj, expected)
        _, obj = _run_cli(cli, _cli_argv("minimal-family", args.fixture, seed))
        bad += family_mismatches(obj, expected)
        if bad:
            raise RuntimeError("warm-up answers are wrong: " + "; ".join(bad))
    report["t_ready"] = time.monotonic()

    rng = random.Random(seed)
    while len(report["ops"]) < args.max_ops:
        op = {"answer": None, "errors": []}
        t0 = time.perf_counter()
        try:
            if args.command == "shape":
                op["errors"] = _shape_op(families, qprofile, desc, seed,
                                         rng.getrandbits(32), expected["h0"])
            else:
                report["cold"] = _caches_empty()
                dt, obj = _run_cli(cli, _cli_argv(args.command, args.fixture, seed))
                op["s"] = dt
                op["answer"] = obj
                check = profile_mismatches if args.command == "qprofile" else family_mismatches
                op["errors"] = check(obj, expected)
        except Exception:  # noqa: BLE001 - every failure is reported as a failed operation
            op["errors"] = [traceback.format_exc(limit=4)]
        op.setdefault("s", time.perf_counter() - t0)
        report["ops"].append(op)

    if tracer is not None:
        report["trace"] = tracing.raw(tracer)
        report["trace_wall"] = time.perf_counter() - t_trace
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
