"""Imports: every imported name is used (an ``ast`` scan of the package
and tests), each command loads only the layers it runs, and ``gtt``
exports the same names, each loaded on first use."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import gtt

ROOT = pathlib.Path(__file__).resolve().parent.parent
# ``gtt/__init__.py`` imports names only to re-export them
FILES = sorted(p for p in [*(ROOT / "src" / "gtt").glob("*.py"),
                           *(ROOT / "tests").glob("*.py")]
               if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and not (
                        isinstance(node, ast.ImportFrom)
                        and node.module == "__future__"):
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


# -- what loads when: ``import gtt`` and each CLI command --------------------

SRC = ROOT / "src"

# each public name of ``gtt`` by the layer that defines it; ``elaborate``
# names the function, which shadows its module
HOMES = {
    "syntax": (
        "App", "Base", "Bound", "Context", "Downcast", "DYN", "Err", "Fn",
        "FnApp", "GttError", "Lam", "NAT", "Pair", "Prod", "Proj", "Term",
        "Type", "Unit", "UNIT", "UnitVal", "UNITVAL", "Upcast", "Var",
        "free_vars", "instantiate", "num", "substitute"),
    "typecheck": (
        "DynCtx", "Signature", "check_type_wf", "default_signature",
        "infer_type", "tydyn_holds"),
    "dynamism": (
        "Derivation", "DynJudgment", "check_derivation", "derivation_errors"),
    "theorems": ("derive_sequent", "derive_theorem", "theorem_instances"),
    "elaborate": ("elaborate", "equal_terms", "normalize", "oblique_cast"),
    "model": (
        "Coreflection", "check_equipment", "check_judgment_semantics",
        "denote_coreflection"),
}
SUBMODULES = ("syntax", "typecheck", "dynamism", "theorems", "model")
PUBLIC = sorted([*SUBMODULES, *(n for names in HOMES.values() for n in names)])


def _fresh(code: str, *argv: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter from the repo root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = ("import sys\n"
          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'gtt'))\n")


def test_import_gtt_loads_syntax_typecheck_and_elaborate_only():
    assert _fresh("import gtt\n" + LOADED) == str(
        ["gtt", "gtt.elaborate", "gtt.syntax", "gtt.typecheck"]) + "\n"


CLI_BASE = ("cli", "elaborate", "grammar", "syntax", "typecheck")
CLI_LAYERS = {
    "check fixtures/id_fn.gtt": (),
    "dyncheck fixtures/dyn_pairs.txt": (),
    "elaborate fixtures/wrap.gtt": (),
    "normalize fixtures/wrap.gtt": (),
    "compare --syntactic fixtures/wrap.gtt fixtures/wrap.gtt": (),
    "prove fixtures/galois_unit.gttd": ("dynamism", "derivio"),
    "derive galois_unit Nat ?": ("dynamism", "theorems", "derivio"),
    "eval fixtures/cross_tag.gtt": ("model",),
    "test-model --bound 1 --size 1": ("model",),
    "compare --semantic fixtures/err_nat.gtt fixtures/zero.gtt": ("model", "dynamism"),
    "test-theorems --size 1": ("dynamism", "theorems", "model"),
}


@pytest.mark.parametrize("command", CLI_LAYERS)
def test_each_command_loads_only_the_layers_it_runs(command):
    # a passing run, so that every import the command makes has been made
    code = ("import contextlib, io, sys\n"
            "from gtt.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(sys.argv[1:]) == 0\n" + LOADED)
    expected = ["gtt", *(f"gtt.{m}" for m in {*CLI_BASE, *CLI_LAYERS[command]})]
    assert _fresh(code, *command.split()) == str(sorted(expected)) + "\n"


# -- the export surface -------------------------------------------------------

def test_gtt_exports_each_public_name_from_its_layer():
    assert sorted(gtt.__all__) == PUBLIC
    for home, names in HOMES.items():
        for name in names:
            assert getattr(gtt, name) is getattr(sys.modules[f"gtt.{home}"], name)
    for name in SUBMODULES:
        assert getattr(gtt, name) is importlib.import_module(f"gtt.{name}")
    scope = {}
    exec("from gtt import *", scope)
    del scope["__builtins__"]
    assert sorted(scope) == PUBLIC
    assert all(scope[name] is getattr(gtt, name) for name in PUBLIC)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as error:
        gtt.nope
    assert str(error.value) == "module 'gtt' has no attribute 'nope'"


def test_dir_lists_the_public_names_before_any_is_used():
    public = _fresh("import gtt\nprint([n for n in dir(gtt) if not n.startswith('_')])")
    assert public == str(PUBLIC) + "\n"


@pytest.mark.parametrize("statement", [
    "import gtt", "import gtt.cli", "import gtt.elaborate",
    "from gtt.elaborate import normalize", "from gtt import model",
])
def test_gtt_elaborate_is_the_function_in_every_import_order(statement):
    code = f"{statement}\nimport gtt\nprint(gtt.elaborate.__module__, gtt.elaborate.__name__)"
    assert _fresh(code) == "gtt.elaborate elaborate\n"


def test_import_gtt_elaborate_as_a_name_binds_the_function():
    assert _fresh("import gtt.elaborate as m\nprint(type(m).__name__)") == "function\n"
