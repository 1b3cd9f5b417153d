import hashlib
import pathlib
import subprocess
import sys

import pytest

import gtt.cli
from gtt.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*argv, capsys=None):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out if capsys else ""
    return code, out


def test_check_prints_type(capsys):
    code, out = run_cli("check", FIXTURES / "id_fn.gtt", capsys=capsys)
    assert code == 0
    assert out.strip() == "Nat -> Nat"


def test_prove_errbot(capsys):
    code, out = run_cli("prove", FIXTURES / "errbot.gttd", capsys=capsys)
    assert code == 0
    assert out.startswith("RESULT PASS")


def test_prove_galois_fixture(capsys):
    code, _ = run_cli("prove", FIXTURES / "galois_unit.gttd", capsys=capsys)
    assert code == 0


def test_compare_semantic_counterexample(capsys):
    code, out = run_cli("compare", "--semantic",
                        FIXTURES / "zero.gtt", FIXTURES / "err_nat.gtt",
                        capsys=capsys)
    assert code == 1
    assert "COUNTEREXAMPLE" in out


def test_compare_semantic_pass(capsys):
    code, out = run_cli("compare", "--semantic",
                        FIXTURES / "err_nat.gtt", FIXTURES / "zero.gtt",
                        capsys=capsys)
    assert code == 0
    assert "RESULT PASS" in out


def test_compare_syntactic(capsys):
    code, _ = run_cli("compare", "--syntactic",
                      FIXTURES / "zero.gtt", FIXTURES / "err_nat.gtt",
                      capsys=capsys)
    assert code == 1


def test_parse_error_is_exit_2(capsys):
    code, _ = run_cli("check", FIXTURES / "bad_syntax.gtt", capsys=capsys)
    assert code == 2


def test_missing_file_is_exit_2(capsys):
    code, _ = run_cli("check", FIXTURES / "no_such_file.gtt", capsys=capsys)
    assert code == 2


@pytest.mark.parametrize("sig, pairs, code, lines", [
    ((), "dyn_pairs.txt", 0, [
        "RESULT PASS Nat -> Nat <= ?",
        "RESULT PASS Nat -> Nat <= ? -> ?",
        "RESULT PASS Nat * (1 -> ?) <= ?",
    ]),
    (("--sig", FIXTURES / "two_bases.gttsig"), "dyn_pairs_bases.txt", 1, [
        "RESULT PASS Even <= Nat",
        "RESULT FAIL Nat <= Even",
        "RESULT PASS Even -> Even <= Nat -> ?",
        "RESULT FAIL ? -> Even <= Even -> Nat",
        "RESULT PASS Even * 1 <= ?",
    ]),
], ids=["default", "two_bases"])
def test_dyncheck(capsys, sig, pairs, code, lines):
    got, out = run_cli(*sig, "dyncheck", FIXTURES / pairs, capsys=capsys)
    assert got == code
    assert out.splitlines() == lines


def test_flag_override_changes_normalization(capsys):
    code, out = run_cli("normalize", FIXTURES / "cross_tag.gtt", capsys=capsys)
    assert code == 0 and out.strip() == "(err[?], err[?])"
    code, out = run_cli("--disjointness", "off", "normalize",
                        FIXTURES / "cross_tag.gtt", capsys=capsys)
    assert code == 0 and "dn[? => ? * ?]" in out


def test_eval_tree_output(capsys):
    code, out = run_cli("eval", FIXTURES / "cross_tag.gtt", capsys=capsys)
    assert code == 0
    assert out.strip() == "(err , err)"


def test_signature_flags_respected(capsys):
    code, _ = run_cli("--sig", FIXTURES / "two_bases.gttsig", "check",
                      FIXTURES / "zero.gtt", capsys=capsys)
    assert code == 0


def test_derive_emits_checkable_file(tmp_path, capsys):
    out_file = tmp_path / "identity.gttd"
    code, _ = run_cli("--out", out_file, "derive", "identity_up", "Nat",
                      capsys=capsys)
    assert code == 0
    code, out = run_cli("prove", out_file, capsys=capsys)
    assert code == 0
    assert out.count("RESULT PASS") == 2


def test_reports_are_deterministic(capsys):
    _, first = run_cli("test-theorems", "--size", "1", capsys=capsys)
    _, second = run_cli("test-theorems", "--size", "1", capsys=capsys)
    assert first == second
    assert "RESULT PASS theorems" in first


def test_theorems_skip_marker_with_retract_off(capsys):
    code, out = run_cli("--retract", "off", "test-theorems", "--size", "1",
                        capsys=capsys)
    assert code == 0
    assert "SKIPPED strict_dn SKIPPED(flag)" in out


def test_theorems_battery_size2(capsys):
    code, out = run_cli("test-theorems", "--size", "2", capsys=capsys)
    assert code == 0
    assert "0 failed" in out


def test_model_battery(capsys):
    code, out = run_cli("test-model", "--bound", "2", "--size", "2",
                        capsys=capsys)
    assert code == 0
    assert out.strip().endswith("pairs")


def test_entry_point_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gtt.cli", "check", str(FIXTURES / "id_fn.gtt")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "Nat -> Nat"


def run_cli_err(*argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    return code, captured.err


@pytest.mark.parametrize("text", [
    # a (mid ...) aux with nothing inside
    "(trans (concl (ctx) {0} {0} {Nat} {Nat}) (aux (mid)))",
    # a chunk where a context entry names its variable
    "(var (concl (ctx ({x} x' {Nat} {Nat})) {x} {x'} {Nat} {Nat}) (aux 0))",
    # a chunk where a substitution names its variable
    "(comp (concl (ctx) {0} {0} {Nat} {Nat}) (aux (sub ({x} {0})) (sub (x' {0}))))",
    # a chunk where the stored middle context names its variable
    "(trans (concl (ctx) {0} {0} {Nat} {Nat}) (aux (mid (ctx ({x} {Nat})) {0} {Nat})))",
])
def test_malformed_derivation_file_is_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.gttd"
    path.write_text(text)
    code, err = run_cli_err("prove", path, capsys=capsys)
    assert code == 2
    assert err.startswith("error: ")


def test_non_numeric_basecodes_is_exit_2(tmp_path, capsys):
    sig = tmp_path / "bad.gttsig"
    sig.write_text("basetypes: Nat\nbasecodes:\n  Nat a b\n")
    code, err = run_cli_err("--sig", sig, "check", FIXTURES / "zero.gtt",
                            capsys=capsys)
    assert code == 2
    assert "bad basecodes line" in err


def test_composite_type_dynamism_axiom_is_exit_2(tmp_path, capsys):
    sig = tmp_path / "composite.gttsig"
    sig.write_text("basetypes: Nat\ntydyn:\n  1 * 1 <= 1\n")
    term = tmp_path / "cast.gtt"
    term.write_text("up[(1 * 1) * (1 * 1) => 1] (((), ()), ((), ()))")
    code, err = run_cli_err("--sig", sig, "check", term, capsys=capsys)
    assert code == 2
    assert err.startswith("error: ") and "1 * 1 <= 1" in err


def test_prove_error_lines_print_types_as_text(tmp_path, capsys):
    path = tmp_path / "refl.gttd"
    path.write_text("(refl (concl (ctx) {0} {0} {?} {Nat}))")
    code, out = run_cli("prove", path, capsys=capsys)
    assert code == 1
    assert out.splitlines() == [
        "RESULT FAIL derivation 0 (refl)",
        "  root: refl: left term has type Nat, judgment claims ?",
        "  root: refl: type dynamism presupposition fails: ? <= Nat not derivable",
    ]


def test_deeply_nested_term_is_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.gtt"
    path.write_text("fst " * 3000 + "(0, 0)")
    code, err = run_cli_err("check", path, capsys=capsys)
    assert code == 2
    assert err == "error: input nested too deeply\n"


def test_deeply_nested_derivation_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.gttd"
    path.write_text("(" * 5000 + ")" * 5000)
    code, err = run_cli_err("prove", path, capsys=capsys)
    assert code == 2
    assert "derivation must be" in err


@pytest.mark.parametrize("aux", ["fwd", "1"])
def test_transitivity_with_a_foreign_aux_is_rejected(tmp_path, capsys, aux):
    leaf = "(refl (concl (ctx) {0} {0} {Nat} {Nat}))"
    path = tmp_path / "trans.gttd"
    path.write_text(f"(trans (concl (ctx) {{0}} {{0}} {{Nat}} {{Nat}}) "
                    f"(aux {aux}) {leaf} {leaf})")
    code = main(["prove", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "aux must be the stored middle judgment" in out


def test_derive_with_the_wrong_number_of_parameters_is_exit_2(capsys):
    code, err = run_cli_err("derive", "galois_unit", "Nat", capsys=capsys)
    assert code == 2
    assert err == ("cannot derive galois_unit: galois_unit expects 2 "
                   "parameters, got 1\n")


def test_unexpected_exception_is_exit_2_with_its_traceback(monkeypatch, capsys):
    def crash(args, sig):
        raise KeyError("boom")
    monkeypatch.setattr(gtt.cli, "_cmd_check", crash)
    code = main(["check", str(FIXTURES / "zero.gtt")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("internal error: KeyError: 'boom'\n")
    assert "Traceback" in captured.err


# SHA-256 of whole reports, pinned when the catalog was still enumerated by
# generate-then-filter and the model still walked each term per environment
@pytest.mark.parametrize("argv, lines, digest", [
    (("--retract", "off", "test-theorems", "--size", "3"), 759,
     "8916761e43ee49d81eeff137dee56b0855b5ed504f93c5813f0074d8a3853fb8"),
    (("test-model", "--bound", "2", "--size", "3"), 40,
     "897d7a1b67e3a387fb425a0f0215fa47f7e242e1324fe3c2f7467728e4717f73"),
], ids=["test-theorems", "test-model"])
def test_battery_reports_are_pinned(capsys, argv, lines, digest):
    code, out = run_cli(*argv, capsys=capsys)
    assert code == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest
