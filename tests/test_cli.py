import contextlib
import hashlib
import io
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import gtt.cli
import gtt.grammar
from gtt.cli import main
from gtt.elaborate import equal_terms
from gtt.model import Coreflection, NatVal
from gtt.syntax import App, DYN, FnApp, NAT, Proj, Upcast, Var
from gtt.typecheck import SignatureError, default_signature

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


def test_prove_tells_a_mutated_copy_from_the_fixture(capsys, tmp_path):
    # the fixture, then a copy whose var leaf at root.1.0.0 has the right
    # side err[Nat]; every other node of the copy is a node of the fixture,
    # so a verdict that leaks between the two trees changes the report
    pair = tmp_path / "pair.gttd"
    pair.write_text((FIXTURES / "galois_unit.gttd").read_text()
                    + (FIXTURES / "galois_unit_var_err.gttd").read_text())
    code, out = run_cli("prove", pair, capsys=capsys)
    assert code == 1
    assert out == (
        "RESULT PASS derivation 0 (comp): "
        "x <= dn[? => Nat] up[Nat => ?] x' : Nat <= Nat\n"
        "RESULT FAIL derivation 1 (comp)\n"
        "  root.1.0.0: var: conclusion is not a context entry\n"
        "  root.1.0: trans: premises do not share the middle term\n"
        "  root.1.0: trans: stored middle judgment disagrees with the premises\n")


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


def test_dyncheck_rejects_an_undeclared_base_type(capsys):
    code, err = run_cli_err("dyncheck", FIXTURES / "dyn_pairs_bases.txt",
                            capsys=capsys)
    assert code == 2
    assert err == "unknown base type Even in 'Even <= Nat'\n"


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


@pytest.mark.parametrize("argv, option", [
    (("compare", "--semantic", "--bound", "-1", FIXTURES / "zero.gtt",
      FIXTURES / "zero.gtt"), "--bound"),
    (("test-model", "--bound", "-1", "--size", "2"), "--bound"),
    (("test-theorems", "--size", "-1"), "--size"),
], ids=["compare", "test-model", "test-theorems"])
def test_a_negative_bound_or_size_is_a_usage_error(capsys, argv, option):
    with pytest.raises(SystemExit) as exit_:
        run_cli(*argv)
    captured = capsys.readouterr()
    assert exit_.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"error: argument {option}: must not be negative: -1\n")


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


@pytest.mark.parametrize("text, message", [
    ("7 0", "applying a non-function of type Nat"),
    ("() 0", "applying a non-function of type 1"),
    ("snd 7", "projecting from a non-product of type Nat"),
    ("fst ()", "projecting from a non-product of type 1"),
    ("fst (\\y:Nat -> Nat. y)",
     "projecting from a non-product of type (Nat -> Nat) -> Nat -> Nat"),
    ("dn[? => ? * ?] up[Nat => ?] ()", "cast body has type 1, expected Nat"),
])
def test_eval_of_an_ill_typed_term_is_a_type_error(tmp_path, capsys, text, message):
    # typed before it is evaluated, so the model never applies a number
    path = tmp_path / "bad.gtt"
    path.write_text(text)
    code, err = run_cli_err("eval", path, capsys=capsys)
    assert (code, err) == (2, f"error: {message}\n")


def test_an_aux_of_a_non_ascii_digit_is_a_parse_error(tmp_path, capsys):
    # '²' is a digit to str.isdigit but not to int()
    path = tmp_path / "aux.gttd"
    path.write_text("(ax (concl (ctx) {0} {0} {Nat} {Nat}) (aux \u00b2))")
    code, err = run_cli_err("prove", path, capsys=capsys)
    assert (code, err) == (2, "error: bad aux atom '\u00b2'\n")


def test_non_numeric_basecodes_is_exit_2(tmp_path, capsys):
    sig = tmp_path / "bad.gttsig"
    sig.write_text("basetypes: Nat\nbasecodes:\n  Nat a b\n")
    code, err = run_cli_err("--sig", sig, "check", FIXTURES / "zero.gtt",
                            capsys=capsys)
    assert code == 2
    assert "bad basecodes line" in err


@pytest.mark.parametrize("name", ["?", "1", "->", "x:y"])
def test_a_base_type_name_that_is_not_an_identifier_is_exit_2(tmp_path, capsys, name):
    # the grammar could never write such a base type back
    sig = tmp_path / "bad.gttsig"
    sig.write_text(f"basetypes: Nat {name}\n")
    code, err = run_cli_err("--sig", sig, "check", FIXTURES / "zero.gtt",
                            capsys=capsys)
    assert code == 2
    assert err == f"error: base type name {name!r} is not an identifier\n"


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


# Omega through ``? -> ?``: the dynamic type embeds the untyped lambda
# calculus, so normalization is not total
OMEGA = ("(\\x:?. (dn[? => ? -> ?] x) x) "
         "(up[? -> ? => ?] (\\x:?. (dn[? => ? -> ?] x) x))")


@pytest.mark.parametrize("argv", [
    ("normalize", "{}"), ("compare", "--syntactic", "{}", "{}"),
], ids=["normalize", "compare"])
def test_a_diverging_term_is_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "omega.gtt"
    path.write_text(OMEGA)
    code, err = run_cli_err(*(a.format(path) for a in argv), capsys=capsys)
    assert code == 2
    assert err == "error: input nested too deeply\n"


def test_deeply_nested_derivation_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.gttd"
    path.write_text("(" * 5000 + ")" * 5000)
    code, err = run_cli_err("prove", path, capsys=capsys)
    assert code == 2
    assert "derivation must be" in err


def test_a_deep_derivation_chain_is_exit_2(tmp_path, capsys):
    judgment = "(concl (ctx) {0} {0} {Nat} {Nat})"
    path = tmp_path / "deep.gttd"
    path.write_text(f"(trans {judgment} " * 2000 + f"(refl {judgment})" + ")" * 2000)
    code, err = run_cli_err("prove", path, capsys=capsys)
    assert (code, err) == (2, "error: input nested too deeply\n")


def test_a_valid_800_deep_derivation_chain_proves(tmp_path, capsys):
    # the checker takes one frame per level, as the reader does, so a
    # chain of 800 levels is well within the interpreter's stack
    judgment = "(concl (ctx) {0} {0} {Nat} {Nat})"
    path = tmp_path / "deep.gttd"
    path.write_text(f"(trans {judgment} (refl {judgment}) " * 800
                    + f"(refl {judgment})" + ")" * 800)
    code, out = run_cli("prove", path, capsys=capsys)
    assert (code, out) == (
        0, "RESULT PASS derivation 0 (trans): 0 <= 0 : Nat <= Nat\n")


@pytest.mark.parametrize("text, err", [
    ("(r (concl (ctx (x y {Nat})) {0} {0} {Nat} {Nat}))",
     "error: context entry must be (x x' {A} {A'})\n"),
    ("(ax (concl (ctx) {0} {0} {Nat} {Nat}) (aux))",
     "error: unrecognized aux form: ['aux']\n"),
    ("(r) )", "error: unbalanced ')' (at offset 4)\n"),
    ("(r (concl (ctx) {0} {0} {Nat} {?})#))",
     "error: unexpected end of input in s-expression (at offset 37)\n"),
    # the file is read without newline translation: '\r\n' is two characters
    ("(r (concl (ctx) {0} {0} {Nat} {Nat}))\r\n)",
     "error: unbalanced ')' (at offset 39)\n"),
])
def test_prove_prints_the_reader_error_exactly(tmp_path, capsys, text, err):
    # the full table of reader messages is in test_grammar.py
    path = tmp_path / "bad.gttd"
    path.write_bytes(text.encode())
    code = main(["prove", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err)


def test_a_term_error_offset_counts_each_crlf_as_two_characters(tmp_path, capsys):
    path = tmp_path / "crlf.gtt"
    path.write_bytes(b"[x : Nat]\r\n  x )")
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", "error: trailing input: ')' (at offset 15)\n")


def test_crlf_signature_and_pair_files_read_like_lf_ones(tmp_path, capsys):
    reports = []
    for tag, newline in (("lf", "\n"), ("crlf", "\r\n")):
        paths = []
        for name in ("two_bases.gttsig", "dyn_pairs_bases.txt"):
            path = tmp_path / f"{tag}-{name}"
            lines = (FIXTURES / name).read_text().splitlines()
            path.write_bytes(newline.join(lines).encode() + newline.encode())
            paths.append(str(path))
        code = main(["--sig", paths[0], "dyncheck", paths[1]])
        captured = capsys.readouterr()
        reports.append((code, captured.out, captured.err))
    assert reports[0] == reports[1]
    assert reports[0][0] == 1 and "RESULT FAIL Nat <= Even" in reports[0][1]


@pytest.mark.parametrize("sig_text, pairs, err", [
    # the second pair line, read in one walk: the offset counts from the
    # start of the line, and the message names it
    ("basetypes: Nat\n", "Nat <= ?\n  ? <= Nat ->  # cut short\n",
     "error: dyncheck line '? <= Nat ->': expected a type, found '' (at offset 11)\n"),
    ("basetypes: Nat\n", "Nat <= ?\nNat ?\n",
     "error: dyncheck line 'Nat ?': expected '<=', found '?' (at offset 4)\n"),
    ("basetypes: Nat\ntydyn:\n  Nat <= Nat ->\n", "Nat <= ?\n",
     "error: tydyn line 'Nat <= Nat ->': expected a type, found '' (at offset 13)\n"),
    ("basetypes: Nat\nfnsyms: g : Nat\n", "Nat <= ?\n",
     "error: fnsyms line 'g : Nat': expected '(', found 'Nat' (at offset 4)\n"),
    ("basetypes: Nat\ntmdyn:\n  [x : Nat] x <= [y : ?] y )\n", "Nat <= ?\n",
     "error: tmdyn line '[x : Nat] x <= [y : ?] y )': trailing input: ')' "
     "(at offset 25)\n"),
    ("basetypes: Nat\ntydyn:\n  Nat <= \u00e9 ->\n", "Nat <= ?\n",
     "error: tydyn line 'Nat <= \u00e9 ->': unexpected character '\u00e9' "
     "(at offset 7)\n"),
], ids=["dyncheck", "no-leq", "tydyn", "fnsyms", "tmdyn", "character"])
def test_a_pair_or_signature_line_error_names_its_line(tmp_path, capsys, sig_text,
                                                       pairs, err):
    sig, path = tmp_path / "s.gttsig", tmp_path / "pairs.txt"
    sig.write_text(sig_text)
    path.write_text(pairs)
    code = main(["--sig", str(sig), "dyncheck", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err)


@pytest.mark.parametrize("text", ["", "  \n\t\n", "# a comment\n# another\n"],
                         ids=["empty", "blank", "comments"])
@pytest.mark.parametrize("command, err", [
    ("prove", "error: no derivation in file\n"),
    ("dyncheck", "error: no 'A <= B' line in file\n"),
])
def test_a_file_with_nothing_to_check_is_exit_2(tmp_path, capsys, text, command, err):
    # a truncated `gtt derive > f.gttd` must not read as a pass
    path = tmp_path / "empty.txt"
    path.write_text(text)
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err)


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


def test_transitivity_over_premises_that_repeat_a_name_is_rejected(
        tmp_path, capsys):
    # a premise context that repeats a name fails its presupposition, and
    # the schema compares contexts without requiring distinct names
    leaf = "(var (concl (ctx (x x {Nat} {Nat}) (x y {Nat} {?})) {x} {x} {Nat} {Nat}))"
    path = tmp_path / "trans.gttd"
    path.write_text(f"(trans (concl (ctx (x x {{Nat}} {{Nat}})) {{x}} {{x}} "
                    f"{{Nat}} {{Nat}}) {leaf} {leaf})")
    code, out = run_cli("prove", path, capsys=capsys)
    assert code == 1
    assert out.splitlines() == [
        "RESULT FAIL derivation 0 (trans)",
        "  root.0: var: context dynamism presupposition fails",
        "  root.1: var: context dynamism presupposition fails",
        "  root: trans: left context does not match first premise",
        "  root: trans: right context does not match second premise",
        "  root: trans: premises do not share the middle context",
    ]


def test_stored_middle_context_that_repeats_a_name_is_rejected(
        tmp_path, capsys):
    # the reader keeps the stored middle context as (name, type) entries, so
    # the repeated name reaches the checker instead of failing to parse
    text = (FIXTURES / "galois_unit.gttd").read_text()
    mid = "        (ctx\n          (z {Nat}))"
    assert text.count(mid) == 1
    path = tmp_path / "dup_mid.gttd"
    path.write_text(text.replace(mid, mid[:-1] + "\n          (z {Nat}))"))
    code, out = run_cli("prove", path, capsys=capsys)
    assert code == 1
    assert out.splitlines() == [
        "RESULT FAIL derivation 0 (comp)",
        "  root.0: trans: stored middle judgment disagrees with the premises",
    ]


_WRONG_AUX = {
    "ur": ((FIXTURES / "stray_aux.gttd").read_text(), "takes no aux"),
    "err-bot": ("(err-bot (concl (ctx) {err[Nat]} {0} {Nat} {Nat}) (aux 7))",
                "takes no aux"),
    "prj-mon": ("(prj-mon (concl (ctx) {fst (0, 0)} {fst (0, 0)} {Nat} {Nat})"
                " (aux 3) (refl (concl (ctx) {(0, 0)} {(0, 0)} {Nat * Nat}"
                " {Nat * Nat})))", "aux must be 1 or 2"),
    "ax": ("(ax (concl (ctx (x y {Nat} {Nat})) {x} {y} {Nat} {Nat}) (aux fwd))",
           "aux must be an axiom index"),
    # dict() of the left substitution would keep only its last binding
    "comp": ("(comp (concl (ctx) {0} {0} {Nat} {Nat})"
             " (aux (sub (x {1}) (x {0})) (sub (x {0})))"
             " (var (concl (ctx (x x {Nat} {Nat})) {x} {x} {Nat} {Nat}))"
             " (refl (concl (ctx) {0} {0} {Nat} {Nat})))",
             "substitution binds a name twice"),
}


@pytest.mark.parametrize("rule", _WRONG_AUX)
def test_an_aux_of_the_wrong_form_is_rejected(tmp_path, capsys, rule):
    text, msg = _WRONG_AUX[rule]
    path = tmp_path / f"{rule}.gttd"
    path.write_text(text)
    sig = tmp_path / "ax.gttsig"
    sig.write_text("basetypes: Nat\ntmdyn:\n  [x : Nat] x <= [y : Nat] y\n")
    code = main(["prove", "--sig", str(sig), str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert captured.out.splitlines() == [
        f"RESULT FAIL derivation 0 ({rule})", f"  root: {rule}: {msg}"]


def test_derive_with_the_wrong_number_of_parameters_is_exit_2(capsys):
    code, err = run_cli_err("derive", "galois_unit", "Nat", capsys=capsys)
    assert code == 2
    assert err == ("cannot derive galois_unit: galois_unit expects 2 "
                   "parameters, got 1\n")


@pytest.mark.parametrize("params, err", [
    # a shape word is a parameter of err_elim only
    (["identity_up", "app"], "unknown base type app in 'app'\n"),
    (["galois_unit", "Foo", "Foo"], "unknown base type Foo in 'Foo'\n"),
    (["err_elim", "Nat", "Nat", "Nat"],
     "cannot derive err_elim: unknown err_elim shape 'Nat'\n"),
], ids=["shape-word", "undeclared-base", "err_elim-type-as-shape"])
def test_derive_with_an_unusable_parameter_is_exit_2(capsys, params, err):
    code, got = run_cli_err("derive", *params, capsys=capsys)
    assert code == 2
    assert got == err


def test_a_value_that_is_not_a_type_has_no_text():
    with pytest.raises(TypeError, match="not a type: 'app'"):
        gtt.grammar.type_to_text("app")


def test_a_projection_index_other_than_1_or_2_has_no_text():
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"projection index must be 1 or 2, not {i}$"):
            gtt.grammar.term_to_text(Proj(i, Var("x")))
    with pytest.raises(TypeError, match="not a term: 'app'"):
        gtt.grammar.term_to_text(App(Var("f"), "app"))


@pytest.mark.parametrize("codes, err", [
    # Nat and Foo are unrelated, so their tags in ? must not share a code
    ("  Nat 0 10\n  Foo 5 15\n",
     "error: base-code ranges of unrelated base types overlap: "
     "Nat [0, 10) and Foo [5, 15)\n"),
    ("  Nat 0 10\n  Foo 10 15\n  Bar 15 20\n",
     "error: base codes for unknown base type: Bar\n"),
], ids=["overlap", "undeclared"])
def test_a_bad_basecodes_section_is_exit_2(tmp_path, capsys, codes, err):
    sig = tmp_path / "codes.gttsig"
    sig.write_text("basetypes: Nat Foo\nbasecodes:\n" + codes)
    # a cross-tag cast between the two tags, which the model refutes when
    # the ranges overlap
    proof = tmp_path / "disjoint.gttd"
    proof.write_text(
        "(disjoint (concl (ctx (x x {Nat} {Nat})) {dn[? => Foo] up[Nat => ?] x}"
        " {err[Foo]} {Foo} {Foo}))\n")
    code, got = run_cli_err("--sig", sig, "prove", proof, capsys=capsys)
    assert code == 2
    assert got == err


def test_derive_err_elim_takes_a_shape_word(tmp_path, capsys):
    out_file = tmp_path / "err_elim.gttd"
    code, _ = run_cli("--out", out_file, "derive", "err_elim", "prj2", "Nat",
                      "?", capsys=capsys)
    assert code == 0
    code, out = run_cli("prove", out_file, capsys=capsys)
    assert code == 0
    assert out.count("RESULT PASS") == 2


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


# -- contexts must be well formed --------------------------------------------

@pytest.mark.parametrize("argv, code, out, err", [
    (("check", "{t}"), 1,
     "RESULT FAIL ill-typed: ill-formed context entry x : Even\n", ""),
    (("elaborate", "{t}"), 2, "", "error: ill-formed context entry x : Even\n"),
    (("normalize", "{t}"), 2, "", "error: ill-formed context entry x : Even\n"),
    (("compare", "--syntactic", "{t}", "{t}"), 2, "",
     "error: ill-formed context entry x : Even\n"),
    (("compare", "--semantic", "{t}", "{t}"), 2, "",
     "error: ill-formed context entry x : Even\n"),
], ids=["check", "elaborate", "normalize", "compare-syntactic", "compare-semantic"])
def test_an_undeclared_base_type_in_the_context(tmp_path, capsys, argv, code, out, err):
    path = tmp_path / "even.gtt"
    path.write_text("[x : Even] x\n")
    assert main([a.format(t=path) for a in argv]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("command", ["elaborate", "normalize"])
def test_an_ill_typed_term_is_exit_2_with_its_typing_error(tmp_path, capsys, command):
    path = tmp_path / "ill.gtt"
    path.write_text("[x : Nat] up[Nat => ?] (x, x)\n")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: cast body has type Nat * Nat, expected Nat\n")


def test_tmdyn_context_with_an_undeclared_base_type_is_exit_2(tmp_path, capsys):
    sig = tmp_path / "bad.gttsig"
    sig.write_text("basetypes: Nat\ntmdyn:\n  [x : Even] x <= [y : Even] y\n")
    code, err = run_cli_err("--sig", sig, "check", FIXTURES / "zero.gtt",
                            capsys=capsys)
    assert code == 2
    assert err == ("error: term-dynamism axiom 0 does not type check: "
                   "ill-formed context entry x : Even\n")


# -- fuzzing the readers through the command line ------------------------------

def test_a_file_that_is_not_utf8_is_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.gtt"
    path.write_bytes(b"\\x:Nat. x \xff")
    code, err = run_cli_err("check", path, capsys=capsys)
    assert code == 2
    assert err.startswith(f"error: {path} is not UTF-8 text: ")


def test_a_directory_as_input_is_exit_2(tmp_path, capsys):
    for argv in (("check", tmp_path), ("--sig", tmp_path, "check", FIXTURES / "zero.gtt")):
        code, err = run_cli_err(*argv, capsys=capsys)
        assert code == 2
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def _soup(tokens, max_size=12):
    """Text glued from grammar tokens, spaces and arbitrary characters."""
    return st.lists(st.one_of(st.sampled_from(tokens), st.sampled_from(" \n\t"),
                              st.text(max_size=2)),
                    max_size=max_size).map("".join)


_TYPE_TOKENS = ["Nat", "Even", "?", "1", "->", "*", "(", ")", "X"]
_TERM_TOKENS = _TYPE_TOKENS + [
    "\\", "x", "y", "f", ":", ".", ",", "fst", "snd", "()", "up", "dn",
    "[", "]", "=>", "err", "0", "12", "double", "#"]
_SIG_TOKENS = _TYPE_TOKENS + [
    "basetypes:", "tydyn:", "fnsyms:", "tmdyn:", "flags:", "basecodes:",
    "flags", "retract", "disjointness", "=", "on", "off", "<=", ":", "[",
    "]", "x", "0", "1000", "-5", "double", "#", "\n  "]


def _run_fuzzed(argv, files):
    """Run the CLI on ``files`` (name -> text or bytes), each named in
    ``argv`` by its name, and check that it answered without crashing."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths[name] = pathlib.Path(tmp) / name
            paths[name].write_bytes(
                text if isinstance(text, bytes) else text.encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([str(paths.get(a, a)) for a in argv])
            except SystemExit as e:  # argparse rejects the command line
                code = e.code
    printed = out.getvalue() + err.getvalue()
    assert code in (0, 1, 2), printed
    assert "Traceback" not in printed and "internal error" not in printed, printed


FUZZ = settings(max_examples=150, deadline=None)


@FUZZ
@given(_soup(_TYPE_TOKENS))
def test_fuzzed_types(text):
    _run_fuzzed(["derive", "identity_up", "--", text], {})


@FUZZ
@given(st.one_of(_soup(_TERM_TOKENS, max_size=20), st.binary(max_size=12)))
def test_fuzzed_terms(text):
    _run_fuzzed(["check", "TERM"], {"TERM": text})


@FUZZ
@given(st.lists(st.tuples(_soup(["x", "y", "f", "a'"], 2), _soup(_TYPE_TOKENS, 6)),
                max_size=3),
       _soup(_TERM_TOKENS, max_size=12), st.sampled_from(["[{}]", "[{}", "{}]"]))
def test_fuzzed_term_files(entries, body, brackets):
    ctx = brackets.format(", ".join(f"{x} : {ty}" for x, ty in entries))
    _run_fuzzed(["elaborate", "TERM"], {"TERM": ctx + " " + body})


@FUZZ
@given(_soup(_SIG_TOKENS, max_size=25))
def test_fuzzed_signatures(text):
    _run_fuzzed(["--sig", "SIG", "check", "TERM"], {"SIG": text, "TERM": "0"})


@FUZZ
@given(st.lists(st.one_of(
    st.tuples(_soup(_TYPE_TOKENS, 6), _soup(_TYPE_TOKENS, 6)).map(" <= ".join),
    _soup(_TYPE_TOKENS + ["<=", "#"])), max_size=4).map("\n".join))
def test_fuzzed_dyncheck_lines(text):
    _run_fuzzed(["dyncheck", "PAIRS"], {"PAIRS": text})


@pytest.mark.parametrize("sig_text, argv, err", [
    # kept, the second line would replace the first and make f(0) ill-typed
    ("basetypes: Nat\nfnsyms:\n  f : (Nat) -> Nat\n  f : () -> Nat\n",
     ("check", "f(0)"), "error: repeated function symbol 'f'\n"),
    # kept, the second Nat line would hide the first one's overlap with Foo
    ("basetypes: Nat Foo\nbasecodes:\n  Nat 0 10\n  Nat 50 60\n  Foo 5 8\n",
     ("test-model", "--bound", "2", "--size", "1"),
     "error: repeated basecodes line for 'Nat'\n"),
    ("basetypes: Nat\nflags:\n  retract = on\n  retract = off\n",
     ("check", "0"), "error: repeated flag 'retract'\n"),
], ids=["fnsyms", "basecodes", "flags"])
def test_a_repeated_signature_declaration_is_exit_2(tmp_path, capsys, sig_text,
                                                    argv, err):
    sig = tmp_path / "twice.gttsig"
    sig.write_text(sig_text)
    command, *rest = argv
    if command == "check":
        term = tmp_path / "term.gtt"
        term.write_text(rest.pop() + "\n")
        rest.append(term)
    code, got = run_cli_err("--sig", sig, command, *rest, capsys=capsys)
    assert (code, got) == (2, err)


@pytest.mark.parametrize("word", ["fst", "snd", "up", "dn", "err"])
def test_a_function_symbol_named_by_a_reserved_word_is_exit_2(tmp_path, capsys, word):
    # fst(0) would parse as a projection of 0
    sig = tmp_path / "reserved.gttsig"
    sig.write_text(f"basetypes: Nat\nfnsyms:\n  {word} : (Nat) -> Nat\n")
    term = tmp_path / "term.gtt"
    term.write_text(f"{word}(0)\n")
    code, err = run_cli_err("--sig", sig, "check", term, capsys=capsys)
    assert (code, err) == (
        2, f"error: function symbol name {word!r} is a reserved word\n")


@pytest.mark.parametrize("name", ["5", "g h", "?"], ids=["numeral", "two-words", "dyn"])
def test_a_function_symbol_name_that_is_no_identifier_is_exit_2(tmp_path, capsys, name):
    # `5` would type as the declared symbol but evaluate as the numeral;
    # no term could call the other two
    sig = tmp_path / "name.gttsig"
    sig.write_text(f"basetypes: Nat\nfnsyms:\n  {name} : () -> Nat * Nat\n")
    code, err = run_cli_err("--sig", sig, "check", FIXTURES / "zero.gtt",
                            capsys=capsys)
    assert (code, err) == (
        2, f"error: function symbol name {name!r} is not an identifier\n")


# each signature the checks of ``Signature`` refuse after it has parsed, and
# the message they give
SIGNATURE_ERRORS = [
    ("basetypes: Nat\ntydyn:\n  Nat <= Foo\n",
     "type-dynamism axiom mentions unknown base type: Foo"),
    ("basetypes: Nat\nfnsyms:\n  f : (Foo) -> Nat\n",
     "function symbol f mentions unknown base type: Foo"),
    ("basetypes: Nat\nbasecodes:\n  Nat 5 5\n", "empty base-code range: [5, 5)"),
    ("basetypes: Nat\ntmdyn:\n  [x : ?] x <= [y : ?] dn[? => Nat] y\n",
     "term-dynamism axiom 0: result types are not related"),
]


@pytest.mark.parametrize("sig_text, message", SIGNATURE_ERRORS,
                         ids=["tydyn", "fnsyms", "basecodes", "tmdyn"])
def test_a_signature_that_fails_its_checks_is_exit_2(tmp_path, capsys, sig_text,
                                                     message):
    with pytest.raises(SignatureError) as caught:
        gtt.grammar.parse_signature(sig_text)
    assert str(caught.value) == message
    sig = tmp_path / "bad.gttsig"
    sig.write_text(sig_text)
    assert main(["--sig", str(sig), "check", str(FIXTURES / "zero.gtt")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# -- test-theorems reports a failing theorem ------------------------------------

def test_a_broken_coreflection_fails_test_theorems_in_the_model(monkeypatch, capsys):
    # casts between Nat and ? that send every value to err: two theorems
    # fail in the model, each after its judgment and counterexample
    def signature():
        sig = default_signature()
        sig._model_cache[("coref", NAT, DYN)] = Coreflection(
            lambda v: NatVal(None), lambda w: NatVal(None))
        return sig

    monkeypatch.setattr(gtt.cli, "default_signature", signature)
    assert main(["test-theorems", "--size", "2"]) == 1
    assert capsys.readouterr() == (
        "RESULT FAIL judgment x <= dn[? => Nat] up[Nat => ?] x' : Nat <= Nat (bound 2)\n"
        "COUNTEREXAMPLE [x=0, x''=0] gives 0 not below err\n"
        "RESULT FAIL galois_unit (Base(name='Nat'), Dyn())\n"
        "RESULT FAIL judgment x1 <= dn[? => Nat] up[Nat => ?] x2 : Nat <= Nat (bound 2)\n"
        "COUNTEREXAMPLE [x1=0, x2'=0] gives 0 not below err\n"
        "RESULT FAIL cast_r (Base(name='Nat'), Base(name='Nat'), Base(name='Nat'))\n"
        "RESULT FAIL theorems: 86 passed, 2 failed, 0 skipped\n", "")


def test_a_reduction_theorem_whose_sides_differ_fails_test_theorems(monkeypatch,
                                                                   capsys):
    # elaboration refuses identity_up at Nat, up[Nat => Nat] x = x, alone
    def refuse(sig, lhs, rhs, ctx):
        return ((lhs, rhs) != (Upcast(NAT, NAT, Var("x")), Var("x"))
                and equal_terms(sig, lhs, rhs, ctx))

    monkeypatch.setattr(gtt.cli, "equal_terms", refuse)
    assert main(["test-theorems", "--size", "2"]) == 1
    assert capsys.readouterr() == (
        "RESULT FAIL identity_up (Base(name='Nat'),): sides differ after elaboration\n"
        "RESULT FAIL identity_up (Base(name='Nat'),)\n"
        "RESULT FAIL theorems: 87 passed, 1 failed, 0 skipped\n", "")


# -- paths pinned byte for byte ----------------------------------------------

SYMBOLS = "basetypes: Nat\nfnsyms:\n  f : (Nat) -> Nat\n  add : (Nat, Nat) -> Nat\n"


@pytest.mark.parametrize("argv, code, out, err", [
    (("eval", FIXTURES / "id_fn.gtt"), 0, "<fun>\n", ""),
    (("eval", FIXTURES / "wrap.gtt"), 2, "", "eval expects a closed term\n"),
    (("--sig", "{sig}", "eval", "{t}"), 2, "",
     "not evaluable: function symbol f is not evaluable\n"),
    (("elaborate", FIXTURES / "wrap.gtt"), 0,
     "up[? -> ? => ?] (\\x:?. up[Nat => ?] (f dn[? => Nat] x))\n", ""),
    (("compare", "--syntactic", FIXTURES / "wrap.gtt", FIXTURES / "zero.gtt"),
     2, "", "compared terms must share one context\n"),
    (("compare", "--semantic", FIXTURES / "zero.gtt", FIXTURES / "id_fn.gtt"),
     2, "", "types not related: Nat <= Nat -> Nat fails\n"),
    (("derive", "ur-s"), 2, "",
     "sequent rules need a premise derivation; use the library API for those\n"),
    (("derive", "nope", "Nat"), 2, "", "cannot derive nope: unknown theorem 'nope'\n"),
], ids=["eval-fun", "eval-open", "eval-symbol", "elaborate", "compare-contexts",
        "compare-unrelated", "derive-sequent", "derive-unknown"])
def test_a_command_path_prints_exactly(tmp_path, capsys, argv, code, out, err):
    names = {"sig": tmp_path / "sig.gttsig", "t": tmp_path / "t.gtt"}
    names["sig"].write_text(SYMBOLS)
    names["t"].write_text("f(0)\n")
    assert main([str(a).format(**names) for a in argv]) == code
    assert capsys.readouterr() == (out, err)


def test_a_symbol_application_prints_as_it_parses(tmp_path, capsys):
    (tmp_path / "sig.gttsig").write_text(SYMBOLS)
    (tmp_path / "t.gtt").write_text("[x : Nat] add(1, f(x))\n")
    assert main(["--sig", str(tmp_path / "sig.gttsig"), "normalize",
                 str(tmp_path / "t.gtt")]) == 0
    assert capsys.readouterr() == ("add(1, f(x))\n", "")
    sig = gtt.grammar.parse_signature(SYMBOLS)
    assert gtt.grammar.parse_term("add(1, f(x))", sig) == FnApp(
        "add", (FnApp("1"), FnApp("f", (Var("x"),))))


def test_a_bound_that_is_no_number_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["compare", "--semantic", "--bound", "x", str(FIXTURES / "zero.gtt"),
              str(FIXTURES / "zero.gtt")])
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out) == (2, "")
    assert captured.err.startswith("usage: gtt compare ")
    assert captured.err.endswith(
        "\ngtt compare: error: argument --bound: invalid int value: 'x'\n")


def test_a_long_product_cast_chain_normalizes(tmp_path, capsys):
    # each level's two components share one subject; evaluated once per
    # component, the chain would cost 4**100 steps
    term = "p"
    for _ in range(100):
        term = f"dn[? * ? => Nat * Nat] up[Nat * Nat => ? * ?] ({term})"
    path = tmp_path / "chain.gtt"
    path.write_text(f"[p : Nat * Nat] {term}\n")
    assert main(["normalize", str(path)]) == 0
    assert capsys.readouterr() == ("(fst p, snd p)\n", "")
