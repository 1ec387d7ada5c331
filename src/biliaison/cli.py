"""Command-line front end.

Commands
--------
qprofile        per-degree table n | alpha | beta | q#(n) | q(n), then b0, r
minimal-family  q, deg N, h0, d0, g0 and the verification certificate
check-p         admissibility of a candidate characteristic function
examples        run the built-in examples against their expected values

`main` builds the subparser of the command it is given alone; --help, no
command or an unknown one build all four.  Either way every help, usage
and error text, and every exit code, is the same.

Coefficients live in F_p for a prime 1000 <= p < 2^31 (default 32003);
any other --field, and a matrix JSON over any other field, is a parse error.

Exit codes: 0 success / admissible; 1 rejection or example mismatch;
2 parse error, or a candidate p of the wrong mass; 3 hypothesis
certification failure without a trust flag, or a broken structural law:
the profile laws, a P_N that gives no integral sheaf degree, a P_Q
that is not a twisted curve ideal's, P_Q + P_P != P_N, or a block rank
above its exact bound; 4 degree budget, window, retry or GCD node exhaustion;
5 dissociated sheaf.  One table in `main` maps the typed errors that a
command lets escape to their codes.

Local freeness of the cokernel at the closed point is certified by
`modgb.has_constant_rank`, block by block, for blocks of at most
`modgb.MINOR_LIMIT` (20000) rank-level minors.  Seeded random combinations
of the minors, taken per degree pattern, certify a block when their values
on a lattice of points span every form of the minors' top degree; any
other block takes the symbolic minors and one Groebner basis, which
decide.  A block with more minors exits with code 3 before any certificate
work, as does one whose minors vanish somewhere, and --assume-locally-free
skips the check.  The profile counts a block certified here as coprime and
makes no plane certificate for it.
A --window must start at or below inf L2 - 1 and must not end below its
start (exit 2).  A matrix JSON whose entries are not lists of
strings or whose degrees are not integers, a --p whose degrees or
multiplicities are not integers, and an --export-matrix path that cannot be
written, exit 2; JSON floats and booleans are not integers.  check-p reads
--p before any other work.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from biliaison import families, fixtures, modgb, qprofile
from biliaison.grmatrix import CharFunction, GradedMatrix, RankBoundError
from biliaison.polyring import FieldSpec, GcdNodesExhaustedError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4
EXIT_DISSOCIATED = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone (module docstring)."""
    parser = argparse.ArgumentParser(
        prog="biliaison",
        description="Exact invariants and minimal curve families of graded matrix presentations.",
    )

    def basic(p: argparse.ArgumentParser) -> None:
        p.add_argument("--field", default="prime:32003",
                       help="coefficient field: prime:P, 1000 <= P < 2^31 (default prime:32003)")
        p.add_argument("--seed", type=int, default=qprofile.DEFAULT_SEED,
                       help="seed for all randomized certificates (default 0x%X)" % qprofile.DEFAULT_SEED)
        p.add_argument("--format", choices=("table", "json"), default="table")

    def common(p: argparse.ArgumentParser) -> None:
        basic(p)
        src = p.add_mutually_exclusive_group(required=False)
        src.add_argument("--fixture", choices=fixtures.FIXTURE_NAMES, help="built-in example")
        src.add_argument("--input", help="path to a matrix JSON file")
        p.add_argument("--window", default=None, metavar="MIN:MAX",
                       help="degree window override, e.g. 0:8; MIN must be at most "
                            "inf L2 - 1")
        p.add_argument("--assume-locally-free", action="store_true",
                       help="trust that the cokernel of the presentation is locally free "
                            "and skip its certificate (minor values on a lattice, else "
                            "symbolic minors); without it, a block with more than %d "
                            "rank-level minors exits 3" % modgb.MINOR_LIMIT)
        p.add_argument("--assume-surjective", action="store_true",
                       help="trust that the presentation generates all sections")
        p.add_argument("--export-matrix", metavar="PATH", default=None,
                       help="also write the input matrix in the JSON format")

    def check_p(p: argparse.ArgumentParser) -> None:
        common(p)
        p.add_argument("--p", required=True,
                       help='candidate characteristic function as JSON, e.g. {"2": 3}')

    commands = {
        "qprofile": ("alpha/beta/q table, b0, stable rank", common),
        "minimal-family": ("minimal-shift curve family", common),
        "check-p": ("admissibility of a characteristic function", check_p),
        "examples": ("run all built-in examples against expected values", basic),
    }
    alone = command in commands
    # the usage names all four commands either way; on the full parser the
    # metavar would replace `command` in the missing-command error
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{%s}" % ",".join(commands) if alone else None)
    for name, (text, build) in commands.items():
        if not alone or name == command:
            build(sub.add_parser(name, help=text))
    return parser


def _parse_window(text: Optional[str]) -> Optional[Tuple[Optional[int], Optional[int]]]:
    if text is None:
        return None
    try:
        lo_s, hi_s = text.split(":")
        lo = int(lo_s) if lo_s else None
        hi = int(hi_s) if hi_s else None
        return (lo, hi)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"bad --window {text!r}: expected MIN:MAX") from exc


def _parse_field(args) -> FieldSpec:
    try:
        return FieldSpec.parse(args.field)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"bad --field: {exc}") from exc


def _load_matrix(args) -> GradedMatrix:
    field = _parse_field(args)
    if args.fixture:
        matrix = fixtures.example(args.fixture, field).matrix
    elif args.input:
        try:
            matrix = GradedMatrix.load(args.input)
        except (OSError, ValueError, KeyError) as exc:
            raise CliError(EXIT_PARSE, f"cannot read matrix: {exc}") from exc
    else:
        raise CliError(EXIT_PARSE, "one of --fixture or --input is required")
    if args.export_matrix:
        try:
            matrix.save(args.export_matrix)
        except OSError as exc:
            raise CliError(EXIT_PARSE, f"cannot write --export-matrix: {exc}") from exc
    return matrix


def _certify_hypotheses(matrix: GradedMatrix, args, err) -> None:
    """Certify local freeness of the cokernel; trust flags skip the check."""
    fixture_asserted = bool(args.fixture) and not fixtures.example(
        args.fixture, FieldSpec.parse(args.field)
    ).hypothesis_certifiable
    if args.assume_locally_free or fixture_asserted:
        if fixture_asserted:
            print("note: local freeness asserted by the fixture construction", file=err)
        else:
            print("warning: local freeness of the cokernel assumed, not certified", file=err)
    else:
        try:
            certified = modgb.has_constant_rank(matrix.specialize_closed_point())
        except modgb.BudgetExhaustedError as exc:
            raise CliError(
                EXIT_HYPOTHESIS,
                f"cannot certify local freeness: {exc}; "
                "rerun with --assume-locally-free to proceed",
            ) from exc
        if not certified:
            raise CliError(
                EXIT_HYPOTHESIS,
                "the rank-level minors vanish somewhere: the cokernel is "
                "not locally free and the invariants are not defined",
            )
    if not args.assume_surjective:
        print(
            "note: surjectivity onto the section module is assumed "
            "(built-in examples satisfy it by construction)",
            file=err,
        )


def _profile_for(matrix: GradedMatrix, args) -> qprofile.QProfile:
    try:
        return qprofile.compute_q_profile(
            matrix,
            window=_parse_window(args.window),
            seed=args.seed,
        )
    except qprofile.WindowError as exc:
        raise CliError(EXIT_PARSE, f"bad --window: {exc}") from exc


def cmd_qprofile(args, out, err) -> int:
    matrix = _load_matrix(args)
    _certify_hypotheses(matrix, args, err)
    profile = _profile_for(matrix, args)
    if not profile.stabilized:
        for w in profile.warnings:
            print(f"warning: {w}", file=out)
        print("error: profile did not stabilize; enlarge --window", file=out)
        return EXIT_BUDGET
    if args.format == "json":
        print(json.dumps(profile.to_json(), sort_keys=True, indent=1), file=out)
        return EXIT_OK
    q = profile.q_function()
    print("  n | alpha | beta | q#(n) | q(n)", file=out)
    print("----+-------+------+-------+-----", file=out)
    for rec in profile.records:
        print(f"{rec.n:>3} | {rec.alpha:>5} | {rec.beta:>4} | {rec.q_sharp:>5} | {q(rec.n):>3}", file=out)
    if profile.b0 is None:
        print("b0 : (empty presentation)", file=out)
    elif profile.b0_is_lower_bound:
        print(f"b0 : >= {profile.b0} (every tested degree qualifies)", file=out)
    else:
        print(f"b0 : {profile.b0}", file=out)
    print(f"r  : {profile.stable_rank}", file=out)
    if profile.dissociated:
        print("the presented sheaf is dissociated", file=out)
    for w in profile.warnings:
        print(f"warning: {w}", file=out)
    return EXIT_OK


def cmd_minimal_family(args, out, err) -> int:
    matrix = _load_matrix(args)
    _certify_hypotheses(matrix, args, err)
    profile = _profile_for(matrix, args)
    report = families.minimal_family(matrix, seed=args.seed, profile=profile)
    if args.format == "json":
        print(report.to_json_string(), file=out)
        return EXIT_OK
    print(f"q      : {report.q.to_json()}", file=out)
    print(f"deg N  : {report.deg_N}", file=out)
    print(f"h0     : {report.h0}", file=out)
    print(f"d0     : {report.d0}", file=out)
    print(f"g0     : {report.g0}", file=out)
    coeffs = ", ".join(str(c) for c in report.ideal_sheaf_polynomial.coeffs)
    print(f"chi(J_C(m)) coefficients (1, m, m^2, m^3): {coeffs}", file=out)
    cert = report.certificate.summary()
    print(
        f"certificate: rank {cert['rank']}, coprime minors {cert['coprime_minors']}, "
        f"seed {cert['seed']}, retries {cert['retries']}",
        file=out,
    )
    return EXIT_OK


def cmd_check_p(args, out, err) -> int:
    try:
        p = CharFunction.from_json(json.loads(args.p))
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"malformed p: {exc}") from exc
    matrix = _load_matrix(args)
    _certify_hypotheses(matrix, args, err)
    profile = _profile_for(matrix, args)
    ok, reason = qprofile.check_p_admissible(p, profile)
    if ok:
        deg_n = families.sheaf_degree(matrix, profile)
        shift = deg_n + p.weighted_sum()
        print(f"admissible; implied shift h = {shift}", file=out)
        return EXIT_OK
    print(f"rejected: {reason}", file=out)
    return EXIT_MISMATCH


def _expected_checks(desc, profile, report) -> List[Tuple[str, object, object]]:
    exp = desc.expected
    q = profile.q_function()
    checks: List[Tuple[str, object, object]] = []
    for n, val in sorted(exp.get("alpha", {}).items()):
        checks.append((f"alpha_{n}", val, profile.alpha(n)))
    for n, val in sorted(exp.get("beta", {}).items()):
        rec = profile.record(n)
        checks.append((f"beta_{n}", val, rec.beta if rec else None))
    checks.append(("b0", exp["b0"], profile.b0))
    checks.append(("q", exp["q"], {d: q(d) for d in q.support}))
    checks.append(("stable_rank", exp["stable_rank"], profile.stable_rank))
    if report is not None:
        checks.append(("deg_N", exp["deg_N"], report.deg_N))
        checks.append(("h0", exp["h0"], report.h0))
        checks.append(("d0", exp["d0"], report.d0))
        checks.append(("g0", exp["g0"], report.g0))
    return checks


def cmd_examples(args, out, err) -> int:
    field = _parse_field(args)
    all_ok = True
    results = {}
    for name in fixtures.FIXTURE_NAMES:
        try:
            desc = fixtures.example(name, field)
            profile = qprofile.compute_q_profile(desc.matrix, seed=args.seed)
            report = families.minimal_family(desc.matrix, seed=args.seed, profile=profile)
            checks = _expected_checks(desc, profile, report)
        except Exception as exc:  # noqa: BLE001 - negative controls must surface as failures
            print(f"[FAIL] {name}: {type(exc).__name__}: {exc}", file=out)
            results[name] = {"error": f"{type(exc).__name__}: {exc}"}
            all_ok = False
            continue
        bad = [(label, want, got) for label, want, got in checks if want != got]
        results[name] = {
            "pass": not bad,
            "checks": {label: {"expected": want, "got": got} for label, want, got in checks},
        }
        if bad:
            all_ok = False
            print(f"[FAIL] {name}:", file=out)
            for label, want, got in bad:
                print(f"       {label}: expected {want}, got {got}", file=out)
        else:
            print(f"[PASS] {name}: all {len(checks)} expected values match", file=out)
        for note in desc.notes:
            print(f"       note: {note}", file=out)
    if args.format == "json":
        print(json.dumps(results, sort_keys=True, indent=1, default=str), file=out)
    return EXIT_OK if all_ok else EXIT_MISMATCH


# the exit code of each typed error a command lets escape, printed as "error: ..."
_EXIT_CODES = {
    qprofile.DissociatedSheafError: EXIT_DISSOCIATED,
    qprofile.WindowExhaustedError: EXIT_BUDGET,
    modgb.BudgetExhaustedError: EXIT_BUDGET,
    families.RetryExhaustedError: EXIT_BUDGET,
    GcdNodesExhaustedError: EXIT_BUDGET,
    qprofile.MassMismatchError: EXIT_PARSE,
    qprofile.ProfileConsistencyError: EXIT_HYPOTHESIS,
    RankBoundError: EXIT_HYPOTHESIS,
    families.ConservationError: EXIT_HYPOTHESIS,
    families.PresentationError: EXIT_HYPOTHESIS,
    families.ShapeMismatchError: EXIT_HYPOTHESIS,
}


def main(argv: Optional[List[str]] = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    handlers = {
        "qprofile": cmd_qprofile,
        "minimal-family": cmd_minimal_family,
        "check-p": cmd_check_p,
        "examples": cmd_examples,
    }
    try:
        return handlers[args.command](args, out, err)
    except CliError as exc:
        print(f"error: {exc}", file=out)
        return exc.code
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=out)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
