from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import plesken_lab.groups as groups
from plesken_lab import (
    element_to_json, group_from_name, lie_bracket, parse_element, subgroup_category,
)
from plesken_lab.cli import _json_text, _Rows, main
from conftest import CHILD_ENV
from test_acceptance import ACCEPTANCE_COMMANDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_group_command_k4(capsys):
    code, report = run_json(capsys, "group", "K4")
    assert code == 0
    assert report["schema_version"] == "1"
    assert report["exit_code"] == 0
    payload = report["payload"]
    assert payload["order"] == 4
    assert payload["involution_count"] == 4
    assert payload["labels"] == ["e", "a", "b", "c"]


@pytest.mark.parametrize("spec,order,involutions", [
    ("S3", 6, 4),
    ("H3", 27, 1),
    ("k4", 4, 4),  # case-insensitive specs
])
def test_group_command_counts(capsys, spec, order, involutions):
    code, report = run_json(capsys, "group", spec)
    assert code == 0
    assert report["payload"]["order"] == order
    assert report["payload"]["involution_count"] == involutions


@pytest.mark.parametrize("spec,dim", [("S3", 1), ("K4", 0), ("H3", 13)])
def test_plesken_dim(capsys, spec, dim):
    code, report = run_json(capsys, "plesken", spec, "dim")
    assert code == 0
    assert report["payload"] == {"group": spec.upper(), "dim": dim}


def test_plesken_basis_and_sc(capsys):
    code, report = run_json(capsys, "plesken", "S3", "sc")
    assert code == 0
    assert report["payload"]["basis"] == ["(123)"]
    assert report["payload"]["sc"] == []
    code, report = run_json(capsys, "plesken", "H3", "sc")
    assert code == 0
    entries = report["payload"]["sc"]
    assert entries and all(e["k"] < e["l"] for e in entries)
    assert all(set(e) == {"k", "l", "m", "re", "im"} for e in entries)


def test_bracket_abelian_is_zero(capsys):
    code, report = run_json(capsys, "bracket", "C3", "e+a", "e+a^2")
    assert code == 0
    assert report["payload"] == {"group": "C3", "terms": []}


def test_bracket_matches_library_oracle(capsys):
    S3 = group_from_name("S3")
    expected = element_to_json(
        lie_bracket(parse_element(S3, "(12)"), parse_element(S3, "(123)"))
    )
    code, report = run_json(capsys, "bracket", "S3", "(12)", "(123)")
    assert code == 0
    assert report["payload"] == expected


def test_homs_command(capsys):
    code, report = run_json(capsys, "homs", "C3", "C3")
    assert code == 0
    assert report["payload"]["count"] == 3
    images = [h["image"] for h in report["payload"]["homs"]]
    assert images == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]


def test_functor_check_s3(capsys):
    code, report = run_json(capsys, "functor", "check", "--ambient", "S3")
    assert code == 0
    payload = report["payload"]
    assert payload["all_hold"] is True
    assert all(entry["ok"] for entry in payload["identity_law"])
    assert all(entry["ok"] for entry in payload["composition_law"])
    assert payload["object_map"]["linear_ok"] is True
    assert payload["object_map"]["in_span_ok"] is True
    assert payload["object_map"]["convention"] == "literal"


def test_functor_check_respects_convention_flag(capsys):
    code, report = run_json(
        capsys, "functor", "check", "--ambient", "C3", "--convention", "pairwise"
    )
    assert code == 0
    assert report["payload"]["object_map"]["convention"] == "pairwise"
    assert report["command"]["convention"] == "pairwise"


def test_functor_counterexample_k4(capsys):
    code, report = run_json(capsys, "functor", "counterexample", "--ambient", "K4")
    assert code == 0
    payload = report["payload"]
    assert payload["count"] == len(payload["witnesses"]) > 0
    assert {"image_a": [0, 0, 0, 0], "image_b": [0, 1, 2, 3], "source": 4,
            "target": 4} in payload["witnesses"]


def test_functor_full_c6(capsys):
    code, report = run_json(capsys, "functor", "full", "--ambient", "C6")
    assert code == 0
    assert report["payload"]["all_full"] is True


@pytest.mark.parametrize("argv", [
    ("group", "Q8"),
    ("group", "H4"),
    ("bracket", "C3", "e+q", "a"),
    ("bracket", "C3", "e+", "a"),
    ("bracket", "S3", "1/0*e", "e"),
])
def test_usage_errors_exit_2(capsys, argv):
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["exit_code"] == 2
    assert "error" in report and "payload" not in report


def test_guard_exit_3(capsys):
    code, report = run_json(capsys, "functor", "check", "--ambient", "D33")
    assert code == 3
    assert report["exit_code"] == 3


@pytest.mark.parametrize("spec,order", [
    ("S8", "8!"), ("C100000", "100000"), ("H101", "1030301"),
])
def test_group_order_guard_exits_3_before_building(capsys, monkeypatch, spec, order):
    def refuse(built):
        raise AssertionError(f"{built} was built")

    for builder in ("_cyclic_group", "_symmetric_group", "_heisenberg_group"):
        monkeypatch.setattr(groups, builder, refuse)
    code, report = run_json(capsys, "group", spec)
    assert code == 3 == report["exit_code"]
    assert f"group {spec} has order {order}," in report["error"]
    assert "payload" not in report


def test_large_heisenberg_spec_reaches_the_order_guard():
    # the guard compares p**3 with the order limit before any primality test of p
    for p in (
        2**61 - 1,
        2**9941 - 1,  # a prime: Miller-Rabin on it takes tens of seconds
        10**3000 + 1,  # a composite: exit 3 for its order, not exit 2 for its factors
    ):
        child = subprocess.run(
            [sys.executable, "-m", "plesken_lab", "group", f"H{p}"],
            capture_output=True, env=CHILD_ENV, timeout=10,
        )
        assert child.returncode == 3, child.stderr
        error = json.loads(child.stdout)["error"]
        assert error.startswith(f"group H{p} has order ")
        assert error.endswith(", above the limit 2048")


def test_spec_parameter_too_long_to_read_exits_2(capsys):
    code, report = run_json(capsys, "group", "C" + "9" * 5000)
    assert code == 2 == report["exit_code"]
    assert report["error"].startswith("cannot parse group spec 'C999")


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "functor", "check", "--ambient", "S3")
    _, second = run_cli(capsys, "functor", "check", "--ambient", "S3")
    assert first == second


def test_workload_commands_print_the_frozen_bytes(capsys):
    # exit code and stdout sha256 of every benchmark command, as frozen by the benchmark
    expected = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
    )["commands"]
    assert len(expected) == 25
    for key, frozen in expected.items():
        code, out = run_cli(capsys, *key.split(" "))
        assert code == frozen["exit_code"], key
        assert hashlib.sha256(out.encode()).hexdigest() == frozen["stdout_sha256"], key


# stdout sha256 of functor commands that perfbench/expected.json does not cover, frozen
# before homsets shared one hom search per pair of distinct tables
FROZEN_FUNCTOR_STDOUT = {
    "functor check --ambient S4":
        "256e402afcdd98fdd666ee9c84b4978ce64320c42f2b4fa334b606fa0ed68899",
    "functor check --ambient H3":
        "1133adccf6d04422502d1d4a604ed5d3b215db7f9ab7d703ace15009f60090f9",
    "functor counterexample --ambient D6":
        "146d903208869dca3bf8239d50761966704552e4c4078e8b88cb7adad20fb016",
    "functor counterexample --ambient H3":
        "ec36aa98ea95b5c9cc5cd012dcbb309ce4685472c458074383e1e5f37592698f",
}


@pytest.mark.parametrize("command", list(FROZEN_FUNCTOR_STDOUT))
def test_functor_commands_print_the_frozen_bytes(capsys, command):
    code, out = run_cli(capsys, *command.split(" "))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_FUNCTOR_STDOUT[command]


@pytest.mark.parametrize("argv,read_first", [
    (("group", "C2"), 0),  # stdout closed before the child writes: the flush fails
    (("plesken", "H5", "sc"), 100),  # 630 kB, more than a pipe holds: a write fails
])
def test_broken_pipe_exits_141_without_a_traceback(argv, read_first):
    env = dict(CHILD_ENV)
    env.pop("PYTHONUNBUFFERED", None)  # buffered stdout, as by default
    read_end, write_end = os.pipe()
    if not read_first:
        os.close(read_end)
    child = subprocess.Popen(
        [sys.executable, "-m", "plesken_lab", *argv],
        stdout=write_end, stderr=subprocess.PIPE, env=env,
    )
    os.close(write_end)
    if read_first:
        assert os.read(read_end, read_first).startswith(b"{")
        os.close(read_end)
    _, stderr = child.communicate(timeout=60)
    assert child.returncode == 141
    assert stderr == b""


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    # the benchmark's tracer wraps these functions by name in each layer module
    tracing = _load_tracing()
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"plesken_lab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def _package_functions():
    """Every callable bound in a loaded ``plesken_lab`` namespace, and FiniteGroup's init."""
    bound = {
        (m.__name__, attr): value
        for m in list(sys.modules.values())
        if m.__name__.startswith("plesken_lab")
        for attr, value in vars(m).items()
        if callable(value)
    }
    bound["FiniteGroup.__init__"] = groups.FiniteGroup.__init__
    return bound


def test_traced_functor_replay(capsys):
    # the benchmark's traced pass replays commands through main with every layer wrapped
    tracer = _load_tracing().Tracer()
    before = _package_functions()
    tracer.install()
    try:
        tracer.begin_command()
        code, out = run_cli(capsys, "functor", "check", "--ambient", "S3")
    finally:
        tracer.uninstall()
    after = _package_functions()
    assert code == 0 and json.loads(out)["payload"]["all_hold"]
    assert tracer.calls["functor.subgroup_category"] == 1
    category = subgroup_category(group_from_name("S3"))
    assert tracer.morphisms == sum(map(len, category.homsets.values())) == 34  # per table pair
    assert all(after[key] is value for key, value in before.items())


def test_json_round_trips_through_schema(capsys):
    for argv in ACCEPTANCE_COMMANDS + (
        ("group", "\u03a33"),  # error report with a non-ASCII spec
        ("plesken", "H5", "sc"),
    ):
        _, out = run_cli(capsys, *argv)
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out, argv


_odd_strings = st.sampled_from(
    ["", "\"", "\\", "\x00\x1f\x7f", "\n\t", "\u03a33", "\U0001f600", "\ud800", "\u2028"]
)
_keys = st.text() | _odd_strings | st.sampled_from(["%", "%s", "%%", "a%(x)sb", "%d"])


def _records(children):
    """Lists of dicts with one shared key set, which the writer takes as plain lists.

    Record lists in payloads are ``_Rows``; a list of dicts must still come out
    exactly as ``json.dumps`` writes it.
    """
    column = children | st.integers(0, 2) | st.booleans() | st.lists(st.integers(0, 3))
    return st.lists(_keys, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(
            st.fixed_dictionaries({k: column for k in keys}), min_size=1, max_size=6
        )
    )


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
    | st.text()
    | _odd_strings
    | st.just([]) | st.just({}),
    lambda children: st.lists(children)
    | st.lists(st.integers() | st.booleans())
    | st.dictionaries(_keys, children)
    | _records(children),
    max_leaves=30,
)


@given(_json_values)
@example([{}, {}])
@example([{"a": 1}])
@example({"%": 1, "%s": "%d", "a%(x)sb": [True, 1], "b": {}})
@example([{"a": []}, {"a": [0]}])
@example([{"%s": 1}, {"%s": True}])
@example([{"k": [1]}, {"k": [True]}])
@example([{"k": [[1]], "l": {"m": [2]}}, {"k": [[1]], "l": {"m": [2]}}])
def test_json_text_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


# one column each: the writer takes its fast path when a column has one kind of value
_row_columns = st.sampled_from([
    st.integers(),
    st.text() | _odd_strings,
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 3)).map(tuple),
    st.lists(st.integers(0, 3)),
    st.dictionaries(_keys, st.integers() | st.lists(st.integers(0, 3)), max_size=2),
    st.integers(0, 2) | st.booleans() | st.none() | st.text() | st.lists(st.booleans()),
])


@st.composite
def _rows(draw):
    """A ``_Rows`` value and the list of dicts it stands for."""
    fields = tuple(draw(st.lists(_keys, max_size=4, unique=True)))
    columns = [draw(_row_columns) for _ in fields]
    rows = draw(st.lists(st.tuples(*columns), max_size=6))
    return _Rows(fields, rows), [dict(zip(fields, row)) for row in rows]


@given(_rows())
@example((_Rows(("k", "%s"), [(1, (0, 1)), (2, (0, 1)), (3, ())]),
          [{"k": 1, "%s": (0, 1)}, {"k": 2, "%s": (0, 1)}, {"k": 3, "%s": ()}]))
@example((_Rows((), [(), ()]), [{}, {}]))
@example((_Rows(("k",), [(1,), (True,)]), [{"k": 1}, {"k": True}]))
@example((_Rows(("k",), [([1],), ((1,),)]), [{"k": [1]}, {"k": (1,)}]))
def test_json_text_writes_rows_as_their_dicts(rows_and_dicts):
    rows, dicts = rows_and_dicts
    assert len(rows) == len(dicts)
    for wrap in (lambda v: v, lambda v: {"payload": v, "count": 1}, lambda v: [v, [v]]):
        assert _json_text(wrap(rows)) == json.dumps(wrap(dicts), indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    1.5,
    (1, 2),
    {1, 2},
    {1: "a"},
    {"rows": [0, 1, 2.0]},
    {"k": 1.5},
    {"%s": [1.0]},
    {"k": 1, 2: "a"},
    [{"k": 0, "re": 0.5}],
    [{"k": 0, "re": 0.5}, {"k": 1, "re": "1"}],
    [{"k": 1}, {"k": 1.0}],
    [{"k": 1.0}, {"k": 1}],
    [{"k": [1]}, {"k": [1.0]}],
    [{"k": {"a": 1}}, {"k": {"a": 0.5}}],
    [{"k": 0}, {"k": (1,)}],
    [{1: "a"}, {1: "b"}],
    _Rows(("k",), [(1,), (1.5,)]),
    _Rows(("k",), [((0, 1),), ((0, 1.0),)]),
    _Rows(("k",), [((0, True),)]),
    _Rows(("k",), [((0, 1),), (2,)]),
    _Rows(("k", "l"), [(0, {"a": [0.5]})]),
    _Rows(("k",), [({"a": (1,)},)]),
    {"payload": _Rows(("k",), [([1.0],)])},
])
def test_json_text_refuses_types_outside_the_schema(value):
    with pytest.raises(TypeError):
        _json_text(value)


@pytest.mark.parametrize("bad", [[True], (1, 2.0), [[1.5]], (True,)])
def test_int_list_column_checks_each_shared_value(bad):
    # the exact-int check reads each distinct value object once, however often rows share it
    good = (0, 1)
    with pytest.raises(TypeError):
        _json_text(_Rows(("k",), [(good,), (bad,), (bad,), (good,)]))


def test_int_list_column_writes_shared_bools_as_bools():
    bools = [True]
    records = [{"k": [0, 1]}, {"k": bools}, {"k": bools}]
    assert _json_text(records) == json.dumps(records, indent=2, sort_keys=True)


def test_text_mode(capsys):
    code, out = run_cli(capsys, "group", "S3", "--format", "text")
    assert code == 0
    assert "order: 6" in out
    code, out = run_cli(capsys, "plesken", "S3", "dim", "--format", "text")
    assert "dim: 1" in out
    code, out = run_cli(capsys, "group", "Q8", "--format", "text")
    assert code == 2 and "error" in out


def test_text_mode_homs(capsys):
    code, out = run_cli(capsys, "homs", "C3", "C3", "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        "plesken-lab homs", "count: 3", "image: 0 0 0", "image: 0 1 2", "image: 0 2 1", "exit: 0"
    ]


def test_text_mode_functor_full(capsys):
    code, out = run_cli(capsys, "functor", "full", "--ambient", "C6", "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        "plesken-lab functor", "ambient: C6", "objects: 4", "full: True", "exit: 0"
    ]
