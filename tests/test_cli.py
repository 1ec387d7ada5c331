from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from biliaison import cli, families, fixtures, grmatrix, modgb, polyring, qprofile
from biliaison.cli import main
from biliaison.grmatrix import GradedMatrix
from biliaison.polyring import FieldSpec, MultiPoly

F = FieldSpec.prime()


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# qprofile


def test_qprofile_table_32():
    code, out, _ = run(["qprofile", "--fixture", "3.2"])
    assert code == 0
    assert "  2 |     4 |    4 |     3 |   3" in out
    assert "b0 : 0" in out
    assert "r  : 4" in out


def test_qprofile_table_33():
    code, out, _ = run(["qprofile", "--fixture", "3.3"])
    assert code == 0
    assert "b0 : 1" in out
    # q(2) = 2 and q(3) = 3 in the last column
    assert "  2 |     3 |    3 |     2 |   2" in out
    assert "  3 |     6 |    6 |     5 |   3" in out


def test_qprofile_json_matches_table_values():
    code, out, _ = run(["qprofile", "--fixture", "3.3", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["b0"] == 1
    assert obj["stable_rank"] == 6
    assert obj["q"] == {"2": 2, "3": 3}


def test_qprofile_empty_matrix(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "field": {"kind": "prime", "characteristic": 32003},
        "row_degrees": [0],
        "col_degrees": [],
        "entries": [[]],
    }))
    code, out, _ = run(["qprofile", "--input", str(path)])
    assert code == 0
    assert "r  : 0" in out


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, _ = run(["qprofile", "--input", str(path)])
    assert code == 2
    missing = tmp_path / "nonexistent.json"
    code, out, _ = run(["qprofile", "--input", str(missing)])
    assert code == 2
    code, out, _ = run(["qprofile"])
    assert code == 2
    # F_p is the only coefficient field: the rationals are a parse error
    for field in ("rationals", "q"):
        for command in ("qprofile", "minimal-family", "examples"):
            argv = [command, "--field", field]
            if command != "examples":
                argv += ["--fixture", "3.2"]
            code, out, _ = run(argv)
            assert code == 2, (command, field)
            assert "bad --field" in out
    over_q = tmp_path / "over_q.json"
    over_q.write_text(json.dumps({
        "field": {"kind": "rationals", "characteristic": 0},
        "row_degrees": [0],
        "col_degrees": [1],
        "entries": [["X"]],
    }))
    code, out, _ = run(["qprofile", "--input", str(over_q)])
    assert code == 2
    assert "rationals" in out
    # entries must be lists of strings: a number or a bare row is refused
    for entries in ([[5]], ["X"]):
        bad = tmp_path / "bad_entries.json"
        bad.write_text(json.dumps({
            "field": {"kind": "prime", "characteristic": 32003},
            "row_degrees": [0],
            "col_degrees": [1],
            "entries": entries,
        }))
        code, out, _ = run(["qprofile", "--input", str(bad)])
        assert code == 2, entries
        assert "list of polynomial strings" in out


def test_prime_beyond_int64_kernels_is_parse_error():
    code, out, _ = run(["qprofile", "--fixture", "3.2", "--field", "prime:4294967311"])
    assert code == 2
    assert "2^31" in out


def test_inhomogeneous_input_is_parse_error(tmp_path):
    path = tmp_path / "inhom.json"
    path.write_text(json.dumps({
        "field": {"kind": "prime", "characteristic": 32003},
        "row_degrees": [0],
        "col_degrees": [1],
        "entries": [["X^2"]],
    }))
    code, out, _ = run(["qprofile", "--input", str(path)])
    assert code == 2


def test_hypothesis_failure_without_trust_flag(tmp_path):
    # two planes through a common line: the rank-level minors vanish on it
    path = tmp_path / "nonfree.json"
    path.write_text(json.dumps({
        "field": {"kind": "prime", "characteristic": 32003},
        "row_degrees": [0],
        "col_degrees": [1, 1],
        "entries": [["X", "Y"]],
    }))
    code, out, _ = run(["qprofile", "--input", str(path)])
    assert code == 3
    code, out, _ = run(["qprofile", "--input", str(path), "--assume-locally-free"])
    assert code == 0


def test_profile_law_violation_exit_code(tmp_path, monkeypatch):
    # a minor analysis claiming beta > alpha breaks 0 <= q# <= beta <= alpha;
    # compute_q_profile checks the laws on every profile it builds, and a
    # matrix read from a file is a new object with no profile kept on it
    def inflated(w, seed=qprofile.DEFAULT_SEED):
        k = qprofile.rank_fraction_field(w)
        return qprofile.MinorAnalysis(k, k + 1, None, [])

    path = tmp_path / "32.json"
    fixtures.example("3.2").matrix.save(str(path))
    monkeypatch.setattr(qprofile, "coprime_minor_analysis", inflated)
    code, out, _ = run(["qprofile", "--input", str(path)])
    assert code == 3
    assert "expected 0 <= q# <= beta <= alpha" in out


def test_rank_above_its_bound_exit_code(tmp_path, monkeypatch):
    # a product patched to zero pairs a 3 x 5 block of rank 3 with the 5 x 10
    # syzygies of another matrix, of rank 3: the bound 5 - 3 is broken
    rng = random.Random(5)
    psi = families.random_matrix(F, [0] * 3, [1] * 5, rng)
    phi = modgb.syzygies(families.random_matrix(F, [0, 0], [1] * 5, rng), 3)
    path = tmp_path / "pair.json"
    grmatrix.stack_blocks([[psi, None], [None, phi]]).save(str(path))

    def zero_product(a, b):
        empty = np.zeros(0, dtype=np.int64)
        return GradedMatrix.from_terms(a.field, a.row_degrees, b.col_degrees,
                                       empty, empty.reshape(0, 5), empty)

    monkeypatch.setattr(GradedMatrix, "__matmul__", zero_product)
    code, out, _ = run(["qprofile", "--input", str(path)])
    assert code == 3
    assert "rank 3, above its bound 2" in out


def test_vanishing_combinations_leave_the_report_unchanged(monkeypatch):
    # determinants that all read 0 make every plane certificate give up after
    # three lines; the honest fallback then decides every block, and the
    # report is the same
    argv = ["qprofile", "--fixture", "3.2", "--format", "json", "--assume-locally-free"]
    expected = run(argv)
    monkeypatch.setattr(qprofile._linalg, "det_mod_p", lambda stack, p: 0 * stack[:, 0, 0])
    assert run(argv) == expected
    assert expected[0] == 0


def test_gcd_node_exhaustion_exit_code(tmp_path, monkeypatch):
    path = tmp_path / "32.json"
    fixtures.example("3.2").matrix.save(str(path))

    def exhausted(*args, **kwargs):
        raise polyring.GcdNodesExhaustedError("no certified gcd from the 32002 nodes of F_32003")

    monkeypatch.setattr(qprofile, "coprime_minor_analysis", exhausted)
    code, out, _ = run(["qprofile", "--input", str(path), "--assume-locally-free"])
    assert code == 4
    assert "no certified gcd" in out


def test_window_exhaustion_exit_code():
    code, out, _ = run(["qprofile", "--fixture", "3.2", "--window", "0:1"])
    assert code == 4


def test_window_outside_range_is_parse_error():
    # 5:5 starts above inf L2 - 1 = 0, where q# is no longer known to be 0;
    # 8:2 ends below its start
    for command in ("qprofile", "minimal-family"):
        for window in ("5:5", "8:2"):
            code, out, _ = run([command, "--fixture", "3.2", "--window", window])
            assert code == 2, (command, window)
            assert "bad --window" in out


def test_minor_limit_exit_code(tmp_path, monkeypatch):
    # fixture 3.4 read as plain input: its 17x34 block of rank 15 has far
    # more rank-level minors than are enumerated
    path = tmp_path / "ex34.json"
    fixtures.example("3.4").matrix.save(str(path))
    sizes = {"certificate": [], "minors": []}

    def spy(name, fn):
        def record(m, k):
            sizes[name].append((m.nrows, m.ncols, k))
            return fn(m, k)
        return record

    monkeypatch.setattr(modgb, "minors", spy("minors", modgb.minors))
    monkeypatch.setattr(modgb, "_minors_fill_top_degree",
                        spy("certificate", modgb._minors_fill_top_degree))
    code, out, _ = run(["qprofile", "--input", str(path)])
    assert code == 3
    assert "rank-level minors" in out and "--assume-locally-free" in out
    # the small block is certified from minor values; the large one is
    # refused before any certificate or minor work
    assert sizes == {"certificate": [(2, 17, 2)], "minors": []}


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, profile_calls", [("3.2", 2), ("3.3", 2), ("3.4", 3)])
def test_blocks_kept_as_locally_free_skip_the_plane_certificate(name, profile_calls, monkeypatch):
    # each command on a freshly built fixture; the plane certificates it
    # makes, as pinned in plane-certificates.json, of which the first
    # `profile_calls` are the profile's and the rest the family's.  The
    # local-freeness check certifies every block of 3.2 and 3.3, so their
    # profiles make none; 3.4 asserts local freeness and keeps every one, as
    # does --assume-locally-free
    monkeypatch.setattr(fixtures, "example", fixtures.example.__wrapped__)
    calls = []
    certify = qprofile._restricted_minor_gcd

    def spy(block, k, block_seed):
        certificate = certify(block, k, block_seed)
        calls.append([block.nrows, block.ncols, k, block_seed, *certificate])
        return certificate

    monkeypatch.setattr(qprofile, "_restricted_minor_gcd", spy)
    pinned = json.loads((GOLDEN / "plane-certificates.json").read_text())[
        f"{name} seed {qprofile.DEFAULT_SEED}"]
    checked = name != "3.4"
    for command, trusted in (("qprofile", False), ("minimal-family", False),
                             ("qprofile", True), ("minimal-family", True)):
        calls.clear()
        code, out, err = run([command, "--fixture", name, "--format", "json"]
                             + ["--assume-locally-free"] * trusted)
        assert code == 0
        assert out == (GOLDEN / f"{command}-{name}.json").read_text()
        if not trusted:
            assert err == (GOLDEN / f"{command}-{name}.stderr").read_text()
        made = pinned if command == "minimal-family" else pinned[:profile_calls]
        assert calls == (made[profile_calls:] if checked and not trusted else made)


def test_profile_budget_error_exit_code(tmp_path):
    # the 2-minor X*T^1010 - Y*Z^1010 has degree 1011: interpolating it on a
    # plane needs 1012 points, more than F_1009 has
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "field": {"kind": "prime", "characteristic": 1009},
        "row_degrees": [0, 0],
        "col_degrees": [1, 1010],
        "entries": [["X", "Z^1010"], ["Y", "T^1010"]],
    }))
    common = ["--input", str(path), "--assume-locally-free"]
    for argv in (["qprofile"], ["minimal-family"], ["check-p", "--p", '{"1": 1}']):
        code, out, _ = run(argv + common)
        assert code == 4, argv
        assert "more than F_1009 has" in out, argv


# ---------------------------------------------------------------------------
# minimal-family


def test_commands_load_no_openssl():
    # the digests come from the interpreter's built-in SHA-256, so neither
    # command imports hashlib, which would load OpenSSL's libcrypto
    script = (
        "import io, sys\n"
        "from biliaison.cli import main\n"
        "for argv in (['qprofile', '--fixture', '3.2'], ['minimal-family', '--fixture', '3.2']):\n"
        "    assert main(argv, out=io.StringIO(), err=io.StringIO()) == 0, argv\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_minimal_family_values():
    code, out, _ = run(["minimal-family", "--fixture", "3.2"])
    assert code == 0
    assert "h0     : 2" in out
    assert "d0     : 6" in out
    assert "g0     : 3" in out


def test_minimal_family_deterministic_output():
    _, out1, _ = run(["minimal-family", "--fixture", "3.2", "--seed", "7"])
    _, out2, _ = run(["minimal-family", "--fixture", "3.2", "--seed", "7"])
    assert out1 == out2


def test_cold_runs_build_no_entries_from_a_table(monkeypatch):
    # the term table is the stored form: a cold qprofile and minimal-family
    # of every fixture, each on a freshly built fixture, reach no symbolic
    # path, so no matrix builds its MultiPoly grid from its table
    built = []
    grid = GradedMatrix._grid

    def spy(m):
        built.append(repr(m))
        return grid(m)

    monkeypatch.setattr(GradedMatrix, "_grid", spy)
    monkeypatch.setattr(fixtures, "example", fixtures.example.__wrapped__)
    for name in fixtures.FIXTURE_NAMES:
        for command in ("qprofile", "minimal-family"):
            assert run([command, "--fixture", name, "--format", "json"])[0] == 0
    assert built == []


def test_minimal_family_json_roundtrip():
    code, out, _ = run(["minimal-family", "--fixture", "3.3", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["d0"] == 6 and obj["g0"] == 3 and obj["h0"] == 1
    assert obj["q"] == {"2": 2, "3": 3}
    assert len(obj["hilbert_polynomial"]) == 4


SURJECTIVITY_NOTE = ("note: surjectivity onto the section module is assumed "
                     "(built-in examples satisfy it by construction)\n")


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
@pytest.mark.parametrize("command", ["qprofile", "minimal-family"])
def test_assume_surjective_drops_only_the_surjectivity_note(command, name):
    argv = [command, "--fixture", name, "--format", "json"]
    code, out, err = run(argv)
    assert SURJECTIVITY_NOTE in err
    assert run(argv + ["--assume-surjective"]) == (code, out, err.replace(SURJECTIVITY_NOTE, ""))


def test_retry_exhaustion_exit_code(monkeypatch):
    def torsion(*args, **kwargs):
        raise families.TorsionError("forced degeneracy")

    monkeypatch.setattr(families, "verify_general_morphism", torsion)
    code, out, _ = run(["minimal-family", "--fixture", "3.2"])
    assert code == 4
    assert "no general morphism found in 10 attempts" in out


def test_shape_mismatch_exits_after_one_lift(monkeypatch):
    # P_Q does not depend on the lift, so a P_Q that is no twisted curve
    # ideal's for the shift h0 + 1 is not retried: exit 3 on the first lift
    real_shift, real_sample = families.minimal_shift, families.sample_general_morphism
    lifts = []

    def sample(*args, **kwargs):
        lifts.append(None)
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(families, "minimal_shift", lambda profile, deg_n: real_shift(profile, deg_n) + 1)
    monkeypatch.setattr(families, "sample_general_morphism", sample)
    code, out, _ = run(["minimal-family", "--fixture", "3.2"])
    assert code == 3
    assert "residual" in out
    assert len(lifts) == 1


def test_broken_hilbert_laws_exit_code(monkeypatch):
    # a lift with two equal columns past a rank certificate that wrongly
    # claims full rank breaks P_Q + P_P = P_N, and a non-integral sheaf
    # degree breaks the presentation: both exit 3 with their message
    real = families.sample_general_morphism

    def equal_columns(s, p, profile, seed):
        v = real(s, p, profile=profile, seed=seed)
        rows = [[row[0], row[0], *row[2:]] for row in v.entries]
        return GradedMatrix(F, v.row_degrees, v.col_degrees, rows)

    monkeypatch.setattr(families, "sample_general_morphism", equal_columns)
    monkeypatch.setattr(families, "rank_fraction_field", lambda m: m.ncols)
    code, out, _ = run(["minimal-family", "--fixture", "3.2"])
    assert code == 3
    assert "degree-2 span has rank 2 < 3" in out
    monkeypatch.undo()

    def fractional(s, profile=None):
        raise families.PresentationError("sheaf degree 1/2 is not an integer")

    monkeypatch.setattr(families, "sheaf_degree", fractional)
    code, out, _ = run(["minimal-family", "--fixture", "3.2"])
    assert code == 3
    assert "error: sheaf degree 1/2 is not an integer" in out


def test_minimal_family_dissociated_exit_code(tmp_path):
    path = tmp_path / "free.json"
    path.write_text(json.dumps({
        "field": {"kind": "prime", "characteristic": 32003},
        "row_degrees": [1, 2],
        "col_degrees": [1, 2],
        "entries": [["1", "0"], ["0", "1"]],
    }))
    code, out, _ = run(["minimal-family", "--input", str(path)])
    assert code == 5


# ---------------------------------------------------------------------------
# check-p


def test_check_p_accepts_q():
    code, out, _ = run(["check-p", "--fixture", "3.2", "--p", '{"2": 3}'])
    assert code == 0
    assert "shift h = 2" in out


def test_check_p_rejects_with_witness():
    code, out, _ = run(["check-p", "--fixture", "3.2", "--p", '{"1": 1, "2": 2}'])
    assert code == 1
    assert "q#(1)" in out


def test_check_p_wrong_mass():
    code, out, _ = run(["check-p", "--fixture", "3.2", "--p", '{"2": 2}'])
    assert code == 2


@pytest.mark.parametrize("error, code", [
    (modgb.BudgetExhaustedError("degree budget spent"), 4),
    (families.PresentationError("sheaf degree 1/2 is not an integer"), 3),
], ids=["budget", "presentation"])
def test_check_p_maps_sheaf_degree_errors(monkeypatch, error, code):
    # 3.2 admits {2: 2, 3: 1}, so check-p goes on to the sheaf degree; an
    # error raised there exits with its code and message, not a traceback
    def failing(s, profile=None):
        raise error

    monkeypatch.setattr(families, "sheaf_degree", failing)
    got, out, _ = run(["check-p", "--fixture", "3.2", "--p", '{"2": 2, "3": 1}'])
    assert (got, out) == (code, f"error: {error}\n")


def test_check_p_malformed():
    code, out, _ = run(["check-p", "--fixture", "3.2", "--p", "not json"])
    assert code == 2


@pytest.mark.parametrize("p", ['{"2": 3.7}', '{"2": true, "3": 2}', '{"2.0": 3}', '[3]'],
                         ids=["float", "bool", "float-degree", "not-an-object"])
def test_check_p_refuses_what_is_not_an_integer(p):
    # a float or a bool is refused, never truncated to an admissible shape
    code, out, _ = run(["check-p", "--fixture", "3.2", "--p", p])
    assert code == 2
    assert out.startswith("error: malformed p")


def test_check_p_reads_p_before_the_local_freeness_check(monkeypatch):
    def refuse(m):
        raise AssertionError("local freeness was checked first")

    monkeypatch.setattr(modgb, "has_constant_rank", refuse)
    code, out, _ = run(["check-p", "--fixture", "3.2", "--p", '{"2": 3.7}'])
    assert code == 2
    assert out.startswith("error: malformed p")


@pytest.mark.parametrize("key, value", [
    ("row_degrees", [0.9]), ("row_degrees", [False]), ("col_degrees", [1, 1, 1.0, 1]),
    ("field", {"kind": "prime", "characteristic": 32003.0}),
], ids=["float-row", "bool-row", "float-column", "float-characteristic"])
def test_matrix_json_numbers_must_be_integers(tmp_path, key, value):
    obj = {"field": {"kind": "prime", "characteristic": 32003}, "row_degrees": [0],
           "col_degrees": [1, 1, 1, 1], "entries": [["X", "Y", "Z", "T"]]}
    obj[key] = value
    path = tmp_path / "degrees.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(["qprofile", "--input", str(path)])
    assert code == 2
    assert "is not an integer" in out or "must be lists of integers" in out


# ---------------------------------------------------------------------------
# examples


def test_examples_all_pass():
    code, out, _ = run(["examples"])
    assert code == 0
    for name in ("3.2", "3.3", "3.4"):
        assert f"[PASS] {name}" in out


def test_examples_negative_control(monkeypatch):
    # 3.2 with the Y of its top row dropped fails its expected values
    example = fixtures.example

    def perturbed(name, field=FieldSpec.prime()):
        desc = example(name, field)
        if name != "3.2":
            return desc
        m = desc.matrix
        cells, exps, coefs = m.term_table()
        keep = cells != 1
        matrix = GradedMatrix.from_terms(field, m.row_degrees, m.col_degrees,
                                         cells[keep], exps[keep], coefs[keep])
        return dataclasses.replace(desc, matrix=matrix)

    monkeypatch.setattr(cli.fixtures, "example", perturbed)
    code, out, _ = run(["examples"])
    assert code == 1
    assert "[FAIL] 3.2" in out


def test_examples_refuses_the_matrix_options():
    # examples runs the built-in fixtures only: a matrix, window or trust
    # option would be ignored, so argparse refuses it
    for extra in (["--input", "x.json"], ["--fixture", "3.2"], ["--window", "5:1"],
                  ["--assume-locally-free"], ["--export-matrix", "x.json"]):
        with pytest.raises(SystemExit) as exc:
            run(["examples"] + extra)
        assert exc.value.code == 2, extra


def test_examples_json_export():
    code, out, _ = run(["examples", "--format", "json"])
    assert code == 0
    obj = json.loads(out[out.index("{"):])
    assert obj["3.2"]["pass"] is True
    assert obj["3.4"]["checks"]["d0"]["got"] == 120


# ---------------------------------------------------------------------------
# fixture export


def test_export_matrix_flag(tmp_path):
    path = tmp_path / "fixture32.json"
    code, _, _ = run(["qprofile", "--fixture", "3.2", "--export-matrix", str(path)])
    assert code == 0
    m = GradedMatrix.load(str(path))
    assert (m.nrows, m.ncols) == (5, 10)


def test_export_matrix_to_unwritable_path_is_parse_error(tmp_path):
    path = tmp_path / "nonexistent" / "x.json"
    code, out, _ = run(["qprofile", "--fixture", "3.2", "--export-matrix", str(path)])
    assert code == 2
    assert "cannot write --export-matrix" in out


# ---------------------------------------------------------------------------
# the parser

COMMANDS = ("qprofile", "minimal-family", "check-p", "examples")


def _printed(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, capsys.readouterr()


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_prints_what_the_full_parser_does(command, capsys, monkeypatch):
    # the command's help, and an unrecognized argument, whose error shows
    # the usage that names every command
    monkeypatch.setenv("COLUMNS", "80")
    for argv in ([command, "--help"], [command, "--unknown"]):
        alone = _printed(cli._build_parser(command), argv, capsys)
        assert alone == _printed(cli._build_parser(), argv, capsys)
        assert alone[0] == (0 if argv[1] == "--help" else 2)


@pytest.mark.parametrize("argv, built", [
    (["qprofile", "--fixture", "3.2"], ["qprofile"]),
    (["check-p", "--fixture", "3.2", "--p", '{"2": 3}'], ["check-p"]),
    (["--help"], list(COMMANDS)),
    (["unknown"], list(COMMANDS)),
    ([], list(COMMANDS)),
])
def test_main_builds_the_subparser_of_the_named_command(argv, built, monkeypatch, capsys):
    made = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        made.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    try:
        run(argv)
    except SystemExit:
        pass
    assert made == built
