"""The public namespace, and which modules importing the package and each verb load."""

from __future__ import annotations

import argparse
import ast
import importlib
import subprocess
import sys
import typing
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import plesken_lab
import plesken_lab.functor as functor
from plesken_lab.cli import _build_parser, main
from conftest import CHILD_ENV

PUBLIC_NAMES = {
    "algebra": (
        "AlgebraElement", "BarLift", "Scalar", "convolve", "element_to_json", "lie_bracket",
        "lift_hom_bar", "parse_element",
    ),
    "errors": (
        "DomainMismatch", "GroupMismatch", "IndexOutOfRange", "InvalidHom", "InvalidPrime",
        "InvalidSpec", "ParseError", "PleskenLabError", "SearchTooLarge",
    ),
    "functor": (
        "FaithfulnessClass", "FullnessReport", "LawReport", "SubgroupCategory", "check_full",
        "check_functor_laws", "find_faithfulness_counterexample", "morphism_map", "object_map",
        "subgroup_category",
    ),
    "groups": (
        "FiniteGroup", "GroupHom", "build_group", "compose_homs", "enumerate_homs",
        "enumerate_subgroups", "group_from_name", "identity_hom", "trivial_hom", "validate_hom",
    ),
    "plesken": (
        "PleskenBasis", "canonical_basis", "hat", "heisenberg_hat_closed_form", "lift_hom_hat",
        "structure_constants",
    ),
}
ALL_NAMES = sorted(name for names in PUBLIC_NAMES.values() for name in names)
HEAVY = ("plesken_lab.algebra", "plesken_lab.plesken", "plesken_lab.functor", "fractions")

# runs `python -m plesken_lab <argv>`, then writes the loaded module names to stderr
RUN_VERB = """
import runpy, sys
sys.argv[1:] = {argv!r}
try:
    runpy.run_module("plesken_lab", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    assert exit.code == 0, exit.code
sys.stderr.write(" ".join(sorted(sys.modules)))
"""


def loaded_by(code: str) -> set[str]:
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=False, env=CHILD_ENV
    )
    assert child.returncode == 0, child.stderr
    return set(child.stderr.split())


def test_pinned_list_has_43_names():
    assert len(ALL_NAMES) == len(set(ALL_NAMES)) == 43


def test_group_from_name_is_build_group():
    # a second binding of the one name reader, never a second path to a group
    assert plesken_lab.group_from_name is plesken_lab.build_group


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_each_public_name_is_its_module_attribute(module):
    source = importlib.import_module(f"plesken_lab.{module}")
    for name in PUBLIC_NAMES[module]:
        assert getattr(plesken_lab, name) is getattr(source, name), name


def test_all_and_dir_list_every_public_name():
    assert sorted(plesken_lab.__all__) == ALL_NAMES
    assert set(ALL_NAMES) <= set(dir(plesken_lab))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from plesken_lab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == ALL_NAMES


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'plesken_lab' has no attribute 'no_such_name'"):
        plesken_lab.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from plesken_lab import no_such_name", {})


def _own_methods(cls):
    """``__init__``, ``__call__`` and the public methods that ``cls`` itself defines."""
    for name, attr in vars(cls).items():
        if name not in ("__init__", "__call__") and name.startswith("_"):
            continue
        if isinstance(attr, property):
            attr = attr.fget
        elif isinstance(attr, cached_property):
            attr = attr.func
        elif isinstance(attr, (classmethod, staticmethod)):
            attr = attr.__func__
        if callable(attr):
            yield f"{cls.__name__}.{name}", attr


def test_type_hints_resolve_on_every_public_callable():
    methods = 0
    for name in ALL_NAMES:
        assert callable(obj := getattr(plesken_lab, name)), name
        typing.get_type_hints(obj)
        if isinstance(obj, type):
            for _, method in _own_methods(obj):
                typing.get_type_hints(method)
                methods += 1
    assert methods >= 22
    hints = typing.get_type_hints(plesken_lab.Scalar.__init__)
    assert hints["re"] == hints["im"] == int | Fraction
    # `functor` names these two classes of `algebra` without importing it
    assert typing.get_type_hints(functor.object_map)["x"] is plesken_lab.AlgebraElement
    assert typing.get_type_hints(functor.morphism_map)["fbar"] is plesken_lab.BarLift


# every option string of each verb: a new flag must change this map on purpose
VERB_OPTIONS = {
    "group": {"-h", "--help"},
    "bracket": {"-h", "--help"},
    "plesken": {"-h", "--help"},
    "homs": {"-h", "--help"},
    "functor": {"-h", "--help", "--ambient"},
}


def test_cli_options_are_pinned(capsys):
    parser = _build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: set(p._option_string_actions) for name, p in verbs.choices.items()} == (
        VERB_OPTIONS
    )
    for argv in (
        ("group", "C2"), ("bracket", "C2", "e", "a"), ("plesken", "C2", "dim"),
        ("homs", "C2", "C2"), ("functor", "check", "--ambient", "C2"),
    ):
        assert main(list(argv)) == 0
        capsys.readouterr()
        # retired options: --convention (schema 5) and --format (schema 6)
        for retired in (("--convention", "literal"), ("--format", "text"), ("--format", "json")):
            with pytest.raises(SystemExit) as raised:
                main([*argv, *retired])
            assert raised.value.code == 2, (argv, retired)
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join(retired)}" in err, (argv, retired)


def test_import_loads_no_submodule():
    loaded = loaded_by("import sys, plesken_lab; sys.stderr.write(' '.join(sys.modules))")
    assert {m for m in loaded if m.startswith("plesken_lab.")} == set()


def test_library_modules_load_as_attributes():
    loaded = loaded_by(
        "import sys, plesken_lab\n"
        "assert plesken_lab.functor is sys.modules['plesken_lab.functor']\n"
        "sys.stderr.write(' '.join(sys.modules))"
    )
    assert "plesken_lab.plesken" in loaded and "plesken_lab.cli" not in loaded


def test_every_module_loads_no_numpy_dataclasses_or_inspect():
    loaded = loaded_by(
        "import sys\nfrom plesken_lab import *\nimport plesken_lab.cli\n"
        "sys.stderr.write(' '.join(sys.modules))"
    )
    assert "plesken_lab.functor" in loaded
    assert {"numpy", "dataclasses", "inspect"}.isdisjoint(loaded)


@pytest.mark.parametrize("argv,unused", [
    (["group", "C2"], (*HEAVY, "json", "json.decoder")),
    (["homs", "C3", "C3"], (*HEAVY, "json", "json.decoder")),
    (["plesken", "S3", "dim"], ("plesken_lab.functor", "plesken_lab.algebra", "fractions")),
    (["bracket", "C3", "e+a", "e+a^2"], ("plesken_lab.functor",)),
    (["functor", "full", "--ambient", "C6"], ("plesken_lab.algebra", "fractions")),
    (["functor", "counterexample", "--ambient", "K4"], ("plesken_lab.algebra", "fractions")),
])
def test_each_verb_loads_only_its_modules(argv, unused):
    loaded = loaded_by(RUN_VERB.format(argv=argv))
    assert "plesken_lab.cli" in loaded
    assert set(unused).isdisjoint(loaded), sorted(set(unused) & loaded)



def _unread_imports(source: str) -> list[str]:
    """Names a module-level import binds that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_unread_imports_are_found():
    assert _unread_imports("from __future__ import annotations\nimport a.b\nimport c as d") == [
        "a", "d"
    ]
    assert _unread_imports("from x import y, z as w\ndef f():\n    import q\n    return w") == [
        "y"
    ]
    assert _unread_imports("import a.b\nfrom x import y\na.b.c(y)") == []


@pytest.mark.parametrize(
    "path", sorted(Path(plesken_lab.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_every_module_level_import_is_read(path):
    # each command pays for every import of each module it loads
    assert _unread_imports(path.read_text()) == []


def test_pyproject_declares_python_3_10():
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    assert 'requires-python = ">=3.10"' in pyproject.read_text().splitlines()


@pytest.mark.parametrize(
    "path", sorted(Path(plesken_lab.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_every_module_parses_as_python_3_10(path):
    # the grammar of the oldest interpreter pyproject.toml admits
    ast.parse(path.read_text(), filename=path.name, feature_version=(3, 10))
