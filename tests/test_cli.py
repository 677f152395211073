from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import plesken_lab.cli as cli
import plesken_lab.functor as functor
import plesken_lab.groups as groups
import plesken_lab.plesken as plesken
from plesken_lab import (
    canonical_basis, element_to_json, group_from_name, lie_bracket, parse_element,
    structure_constants, subgroup_category,
)
from plesken_lab.cli import _Constants, _json_text, main
from plesken_lab.errors import ParseError
from conftest import CATALOG_SPECS, CHILD_ENV
from oracles import hom_from_generator_images, report_layout, span
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
    assert report["schema_version"] == "11"
    assert report["command"] == {"verb": "group", "args": {"spec": "K4"}}
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


@pytest.mark.parametrize("spec", (*CATALOG_SPECS, "H5", "S5"))
def test_sc_records_are_the_structure_constants_in_order(capsys, spec):
    # the records are written through fixed `%` templates: a wrong key order, spacing or
    # quoting in them changes the layout or the values read back
    code, out = run_cli(capsys, "plesken", spec, "sc")
    assert code == 0
    report = json.loads(out)
    # line by line: a failure names its first wrong line without diffing the whole report
    lines = out.splitlines(keepends=True)
    layout = (report_layout(report) + "\n").splitlines(keepends=True)
    assert len(lines) == len(layout)
    assert next(((a, b) for a, b in zip(lines, layout) if a != b), None) is None
    table = structure_constants(canonical_basis(group_from_name(spec)))
    sc = report["payload"]["sc"]
    assert sc == [
        {"k": k, "l": l, "m": m, "re": str(c), "im": "0"}
        for (k, l), row in table.items()
        for m, c in row.items()
    ]
    keys = [(r["k"], r["l"], r["m"]) for r in sc]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("c", [1.5, True, Fraction(3, 2)])
def test_sc_refuses_a_constant_that_is_not_an_int(capsys, monkeypatch, c):
    # `%d` would write each of these as 1
    monkeypatch.setattr(plesken, "structure_constants", lambda basis: {(0, 1): {2: 1, 3: c}})
    with pytest.raises(TypeError, match="not an int"):
        main(["plesken", "H3", "sc"])
    assert capsys.readouterr().out == ""


def test_bracket_abelian_is_zero(capsys):
    code, report = run_json(capsys, "bracket", "C3", "e+a", "e+a^2")
    assert code == 0
    assert report["payload"] == {"group": "C3", "terms": []}


def test_bracket_expression_starting_with_minus_goes_after_double_dash(capsys):
    # argparse takes an argument that starts with '-' for an option, so y is missing
    with pytest.raises(SystemExit) as raised:
        main(["bracket", "C3", "a", "-(1/2)*a"])
    assert raised.value.code == 2
    captured = capsys.readouterr()
    assert "the following arguments are required: y" in captured.err
    assert captured.out == ""
    # after '--' it is an expression: [x, -y] is -[x, y]
    code, negated = run_json(capsys, "bracket", "S3", "(12)", "--", "-(123)")
    assert code == 0
    assert negated["command"]["args"]["y"] == "-(123)"
    _, plain = run_json(capsys, "bracket", "S3", "(12)", "(123)")
    terms = plain["payload"]["terms"]
    assert terms and negated["payload"]["terms"] == [
        dict(t, re=str(-Fraction(t["re"])), im=str(-Fraction(t["im"]))) for t in terms
    ]


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


@pytest.mark.parametrize("domain,codomain,builds", [
    ("S5", "S5", 1), ("s5", "S5", 1), ("S4", "S5", 2), ("C3", "C3", 1), (" S5", "s5", 1),
])
def test_homs_builds_a_group_named_twice_once(capsys, monkeypatch, domain, codomain, builds):
    specs = []

    def counting(spec):
        specs.append(spec)
        return groups.build_group(spec)

    monkeypatch.setattr(cli, "build_group", counting)
    code, report = run_json(capsys, "homs", domain, codomain)
    assert code == 0
    assert len(specs) == builds
    expected = groups.enumerate_homs(group_from_name(domain), group_from_name(codomain))
    assert [h["image"] for h in report["payload"]["homs"]] == [list(f.image) for f in expected]


def test_functor_check_s3(capsys):
    code, report = run_json(capsys, "functor", "check", "--ambient", "S3")
    assert code == 0
    payload = report["payload"]
    assert payload["all_hold"] is True
    assert all(entry["ok"] for entry in payload["identity_law"])
    assert all(entry["ok"] for entry in payload["composition_law"])
    # one verdict: object_map sends every g of S3 to 2(g - g^-1)
    assert payload["object_map"] is True


def test_functor_check_respects_convention_flag(capsys):
    # --convention is no longer an option: it is a usage error, and the check gives
    # one verdict for the one object map
    with pytest.raises(SystemExit) as raised:
        main(["functor", "check", "--ambient", "C3", "--convention", "pairwise"])
    assert raised.value.code == 2
    assert "unrecognized arguments: --convention pairwise" in capsys.readouterr().err
    code, report = run_json(capsys, "functor", "check", "--ambient", "C3")
    assert code == 0
    assert report["payload"]["object_map"] is True
    assert "convention" not in report["command"]


def test_functor_check_object_map_holds_on_every_catalog_ambient(capsys, catalog):
    for spec in catalog:
        code, report = run_json(capsys, "functor", "check", "--ambient", spec)
        assert code == 0, spec
        assert report["payload"]["object_map"] is True, spec


@pytest.mark.parametrize("factor", [Fraction(1, 2), -1, 2], ids=["half", "negated", "doubled"])
def test_functor_check_exits_1_on_a_wrong_object_map_factor(capsys, monkeypatch, factor):
    # the check writes the factor 2 itself, so an object_map off by any other factor fails
    right = functor.object_map
    monkeypatch.setattr(functor, "object_map", lambda x: factor * right(x))
    code, report = run_json(capsys, "functor", "check", "--ambient", "S3")
    assert code == 1 == report["exit_code"]
    assert report["payload"]["object_map"] is False
    assert report["payload"]["all_hold"] is True


def test_functor_check_maps_each_element_of_the_ambient_group_once(capsys, monkeypatch):
    # object_map is linear, so its values on the |G| basis elements decide it
    calls = []
    right = functor.object_map
    monkeypatch.setattr(functor, "object_map", lambda x: calls.append(x) or right(x))
    code, _ = run_json(capsys, "functor", "check", "--ambient", "S3")
    assert code == 0
    assert len(calls) == 6
    assert {g for x in calls for g in x.coeffs} == set(range(6))


def test_grep_finds_the_one_failing_law_row(capsys, monkeypatch):
    # README: `grep '"ok":false'` finds a whole failing row, so with one composition row
    # made to fail, exactly one line matches, and it parses to that row and its middles
    right = functor.check_functor_laws

    def one_fails(category):
        report = right(category)
        rows = list(report.composition)
        rows[5] = rows[5]._replace(failing_middles=[0, 2], ok=False)
        return report._replace(composition=tuple(rows))

    monkeypatch.setattr(functor, "check_functor_laws", one_fails)
    code, out = run_cli(capsys, "functor", "check", "--ambient", "S3")
    assert code == 1
    (line,) = [line for line in out.splitlines() if '"ok":false' in line]
    failing = json.loads(out)["payload"]["composition_law"][5]
    assert failing["ok"] is False and failing["failing_middles"] == [0, 2]
    assert json.loads(line.strip().removesuffix(",")) == failing


def test_functor_full_exits_1_on_a_pair_that_is_not_full(capsys, monkeypatch):
    # check_full cannot fail yet, as each distinct lift is read from a morphism, so one
    # pair is made to fail: the report says so, exits 1, and grep finds that one row
    right = functor.check_full

    def one_fails(category):
        report = right(category)
        pairs = list(report.pairs)
        pairs[3] = pairs[3]._replace(witnessed=pairs[3].witnessed - 1, ok=False)
        return report._replace(pairs=tuple(pairs))

    monkeypatch.setattr(functor, "check_full", one_fails)
    code, out = run_cli(capsys, "functor", "full", "--ambient", "S3")
    report = json.loads(out)
    assert code == 1 == report["exit_code"]
    assert report["payload"]["all_full"] is False
    (line,) = [line for line in out.splitlines() if '"ok":false' in line]
    assert json.loads(line.strip().removesuffix(",")) == report["payload"]["pairs"][3]


def test_seed_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["functor", "check", "--ambient", "S3", "--seed", "3"])
    assert raised.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_functor_counterexample_k4(capsys):
    code, report = run_json(capsys, "functor", "counterexample", "--ambient", "K4")
    assert code == 0
    payload = report["payload"]
    classes = payload["classes"]
    assert all(set(c) == {"generators", "images", "source", "target"} for c in classes)
    # count stays the number of object pairs: a class of m morphisms on tables (a, b)
    # stands for m(m-1)/2 on each of the n_a·n_b object pairs on them
    n = Counter(obj["table"] for obj in payload["objects"])
    assert n == {0: 1, 1: 3, 2: 1}
    assert payload["count"] == sum(
        n[c["source"]] * n[c["target"]] * len(c["images"]) * (len(c["images"]) - 1) // 2
        for c in classes
    ) == 165
    # a member is written as its images of the generators a and b: the trivial hom and
    # the identity of K4 induce one map
    k4 = payload["objects"][4]["table"]
    (row,) = [c for c in classes if (c["source"], c["target"]) == (k4, k4)]
    assert row["generators"] == [1, 2]
    assert [0, 0] in row["images"] and [1, 2] in row["images"]


@pytest.mark.parametrize("spec", (*CATALOG_SPECS, "D6", "D32"))
def test_counterexample_rows_decode_to_the_library_classes(capsys, spec):
    # each row names the source table's generators and each member by its images of them;
    # the oracle walk of the table turns those images back into the full image table
    code, report = run_json(capsys, "functor", "counterexample", "--ambient", spec)
    assert code == 0
    category = subgroup_category(group_from_name(spec))
    rows = report["payload"]["classes"]
    decoded = []
    for row in rows:
        a, b, gens = row["source"], row["target"], row["generators"]
        A, B = category.bases[a].group, category.bases[b].group
        assert gens == list(A.generators)
        assert span(A.cayley, gens) == set(range(A.order))
        assert row["images"] == sorted(row["images"])
        members = [hom_from_generator_images(A.cayley, B.cayley, gens, m) for m in row["images"]]
        assert None not in members
        decoded.append((a, b, tuple(sorted(members))))
    assert sorted(decoded) == functor.find_faithfulness_counterexample(category)
    keys = [(row["source"], row["target"], row["images"]) for row in rows]
    assert all(x < y for x, y in zip(keys, keys[1:]))


def test_counterexample_d32_writes_generator_images_only(capsys):
    # a member is |generators| ints, not |source| ints: schema 8 wrote 632,308 bytes here
    code, out = run_cli(capsys, "functor", "counterexample", "--ambient", "D32")
    assert code == 0
    assert len(out.encode()) <= 70_000
    assert json.loads(out)["payload"]["count"] == 1_348_204


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
    ("bracket", "S3", "(12)", "zz"),
])
def test_usage_errors_exit_2(capsys, argv):
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["exit_code"] == 2
    assert "error" in report and "payload" not in report
    if argv[0] == "bracket":
        # the parser's message for the first argument that fails, prefixed by its name
        G = group_from_name(argv[1])
        for name, text in zip("xy", argv[2:]):
            try:
                parse_element(G, text)
            except ParseError as exc:
                assert report["error"] == f"{name}: {exc}"
                break
        else:
            pytest.fail(f"{argv} parses")


def test_guard_exit_3(capsys):
    code, report = run_json(capsys, "functor", "check", "--ambient", "D33")
    assert code == 3
    assert report["exit_code"] == 3
    assert "subgroup enumeration of FiniteGroup(D33) needs" in report["error"]


def test_hom_search_guard_exits_3_on_table_fills(capsys, monkeypatch):
    # 1000 * 502 choices of generator images, each filling a table of 1000 entries; a guard
    # that let it through would print 1.23 GB, so the first table checked stops the test
    def refuse(*args):
        raise AssertionError("the hom search ran past its guard")

    monkeypatch.setattr(groups, "_is_hom", refuse)
    code, report = run_json(capsys, "homs", "D500", "D500")
    assert code == 3 == report["exit_code"]
    assert "FiniteGroup(D500) -> FiniteGroup(D500) fills 502000000 table" in report["error"]
    assert "payload" not in report


@pytest.mark.parametrize("spec,order", [
    ("S8", "8!"), ("C100000", "100000"), ("H101", "101^3"),
])
def test_group_order_guard_exits_3_before_building(capsys, monkeypatch, spec, order):
    def refuse(built):
        raise AssertionError(f"{built} was built")

    for builder in ("_cyclic_group", "_symmetric_group", "_heisenberg_group", "_dihedral_group"):
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


NINES = "9" * 4300  # as many digits as int() reads
GROUP_NAMES = [  # a name, its exit code, and its canonical echo or the exact refusal
    ("c3", 0, "C3"),
    (" S4 ", 0, "S4"),
    ("C06", 0, "C6"),
    ("k4", 0, "K4"),
    *((name, 2, f"cannot parse group spec {name!r}") for name in (
        "", "Q8", "C", "K5", "K04", "3C", "S-1",
        "\u017f3",  # LATIN SMALL LETTER LONG S, which folds to s outside ASCII
    )),
    ("C0", 2, "cyclic needs a positive integer parameter"),
    ("H4", 2, "heisenberg parameter must be an odd prime, got 4"),
    ("H9", 2, "heisenberg parameter must be an odd prime, got 9"),
    ("C" + "9" * 5000, 2, f"cannot parse group spec 'C{'9' * 5000}': parameter too long"),
    ("H13", 3, "group H13 has order 13^3, above the limit 2048"),
    ("D1025", 3, "group D1025 has order 2*1025, above the limit 2048"),
    ("S7", 3, "group S7 has order 7!, above the limit 2048"),
    (f"D{NINES}", 3, f"group D{NINES} has order 2*{NINES}, above the limit 2048"),
]


@pytest.mark.parametrize(
    "name,code,text", GROUP_NAMES,
    ids=[ascii(n) if len(n) < 9 else f"{n[0]}9x{len(n) - 1}" for n, _, _ in GROUP_NAMES],
)
def test_every_verb_reads_a_group_name_alike(capsys, name, code, text):
    # every verb reads its group names with build_group; S3 is the other name of `homs`
    if code == 0:
        assert run_json(capsys, "group", name)[1]["payload"]["spec"] == text
        homs = run_json(capsys, "homs", name, name.upper())[1]["payload"]
        assert homs["domain"] == homs["codomain"] == text
        return
    for argv in (
        ("group", name), ("bracket", name, "e", "e"), ("plesken", name, "dim"),
        ("homs", name, "S3"), ("homs", "S3", name), ("functor", "full", "--ambient", name),
    ):
        got_code, report = run_json(capsys, *argv)
        assert (got_code, report["exit_code"], report["error"]) == (code, code, text), argv
        assert "payload" not in report


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "functor", "check", "--ambient", "S3")
    _, second = run_cli(capsys, "functor", "check", "--ambient", "S3")
    assert first == second


COUNTEREXAMPLE = "functor counterexample "

# the `object_map` block of a `check` report in the indent=2 layout, and the schema 2
# sampled block it replaced
OBJECT_MAP_CHECKED = '"object_map": true'
OBJECT_MAP_SAMPLED = (
    '"object_map": {\n      "convention": "literal",\n      "in_span_ok": true,\n'
    '      "linear_ok": true,\n      "samples": 20,\n      "seed": 0\n    }'
)


def _expand_to_objects(payload: dict) -> None:
    """Rewrite a functor payload as schema 6 wrote it: a row per object, pair or triple.

    Each table or table pair row is copied to every object or object pair on
    its tables, with the object indices in place of the table ids.  A
    composition row (a, c) becomes a row per object triple (i, j, k) on
    tables a and c: its `pairs` is |Hom(a, b)|·|Hom(b, c)| for the table b of
    j, read from the ambient's subgroup category, and it holds unless b is
    among the row's `failing_middles`.  The table pair rows' `pairs` must
    sum those counts, and their `ok` must say that no middle fails.
    """
    table = [obj.pop("table") for obj in payload["objects"]]
    objects = range(len(table))
    if "identity_law" in payload:
        ok = {r["table"]: r["ok"] for r in payload["identity_law"]}
        payload["identity_law"] = [{"object": i, "ok": ok[table[i]]} for i in objects]
        homsets = subgroup_category(group_from_name(payload["ambient"])).homsets
        rows = {(r["source"], r["target"]): r for r in payload["composition_law"]}
        pairs = dict.fromkeys(rows, 0)
        payload["composition_law"] = []
        for i, j, k in product(objects, repeat=3):
            a, b, c = table[i], table[j], table[k]
            n = len(homsets[a, b]) * len(homsets[b, c])
            pairs[a, c] += n
            payload["composition_law"].append({
                "source": i, "middle": j, "target": k, "pairs": n,
                "ok": b not in rows[a, c]["failing_middles"],
            })
        assert pairs == {ac: r["pairs"] for ac, r in rows.items()}
        assert all(r["ok"] is (r["failing_middles"] == []) for r in rows.values())
    if "pairs" in payload:
        rows = {(r["source"], r["target"]): r for r in payload["pairs"]}
        payload["pairs"] = [
            dict(rows[table[i], table[j]], source=i, target=j)
            for i, j in product(objects, repeat=2)
        ]
    if "classes" in payload:
        classes = defaultdict(list)
        for c in payload["classes"]:
            classes[c["source"], c["target"]].append(c["images"])
        payload["classes"] = [
            {"source": i, "target": j, "images": images}
            for i, j in product(objects, repeat=2)
            for images in classes[table[i], table[j]]
        ]


def _full_image_classes(payload: dict) -> None:
    """Rewrite counterexample classes as schema 8 wrote them: full image tables, sorted.

    Each member, written as its images of the source table's generators, is
    looked up by those images in its homset of the ambient's subgroup category.
    """
    category = subgroup_category(group_from_name(payload["ambient"]))
    classes = []
    for c in payload["classes"]:
        a, b, gens = c["source"], c["target"], c.pop("generators")
        full = {tuple(f.image[g] for g in gens): list(f.image) for f in category.homsets[a, b]}
        classes.append(dict(c, images=sorted(full[tuple(m)] for m in c["images"])))
    payload["classes"] = sorted(classes, key=lambda c: (c["source"], c["target"], c["images"]))


def _frozen_form(command: str, out: str) -> str:
    """The bytes a frozen hash covers: the report as printed under its frozen schema.

    Schema 11 wrote the composition law once per table pair, schema 10
    each record with no space after its `,` and `:`,
    schema 9 each counterexample member as its generator images, schema 8
    `check`'s object-map block as one verdict, schema 7 the functor records
    once per table, pair or triple, schema 6 dropped the `"format": "json"`
    echo line, schema 5 the `"convention": "literal"` one and checked the
    object map under both conventions, schema 4 wrote each dict item of a
    list on one line, schema 3 dropped the `"seed": 0` echo line and made
    `check`'s object-map block exact, and schema 2 changed only the
    counterexample payload.  So every
    counterexample report gets its full image tables back
    (`_full_image_classes`), every functor report its object rows
    (`_expand_to_objects`), every report is re-rendered with `indent=2` and
    gets its three echo lines back, a `check` report its sampled block, a
    counterexample report the schema 2 digit and any other report the schema
    1 digit, which it was frozen under, and must then be byte-identical.
    """
    report = json.loads(out)
    assert report_layout(report) + "\n" == out, command
    if command.startswith(COUNTEREXAMPLE):
        _full_image_classes(report["payload"])
    if command.startswith("functor "):
        _expand_to_objects(report["payload"])
    out = json.dumps(report, indent=2, sort_keys=True) + "\n"
    tail = '\n  "schema_version": "11"\n}\n'
    assert out.endswith(tail), command
    digit = "2" if command.startswith(COUNTEREXAMPLE) else "1"
    out = out[: -len(tail)] + f'\n  "schema_version": "{digit}"\n}}\n'
    verb = '\n    "verb": '
    out = _replace_once(
        out, verb, '\n    "convention": "literal",\n    "format": "json",\n    "seed": 0,' + verb
    )
    if command.startswith("functor check "):
        out = _replace_once(out, OBJECT_MAP_CHECKED, OBJECT_MAP_SAMPLED)
    return out


def _replace_once(text: str, old: str, new: str) -> str:
    assert text.count(old) == 1, old
    return text.replace(old, new)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def workload_outputs():
    """{workload: {command key: (exit code, stdout)}} for every benchmark command."""
    workloads = _load_perfbench("workloads")
    outputs = {}
    for name, workload in workloads.WORKLOADS.items():
        outputs[name] = {}
        for args in workload.commands:
            with redirect_stdout(io.StringIO()) as buf:
                code = main(list(args))
            outputs[name][workloads.command_key(args)] = code, buf.getvalue()
    return outputs


def test_workload_commands_print_the_frozen_bytes(workload_outputs):
    # every benchmark command passes the benchmark's own check, which a run it fails
    # reports as incorrect output, and prints its frozen bytes once mapped back by
    # _frozen_form: the schema 1 sha256 frozen by the benchmark, or the schema 2 one
    # frozen below for a counterexample
    workloads = _load_perfbench("workloads")
    expected = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
    )["commands"]
    assert len(expected) == 25
    outputs = {key: run for runs in workload_outputs.values() for key, run in runs.items()}
    assert set(expected) == set(outputs)
    for key, frozen in expected.items():
        code, out = outputs[key]
        assert code == frozen["exit_code"], key
        assert workloads.check_output(frozen, code, out.encode()) is None, key
        if key.startswith(COUNTEREXAMPLE):
            frozen = {"stdout_sha256": FROZEN_FUNCTOR_STDOUT[key]}
        assert _sha256(_frozen_form(key, out)) == frozen["stdout_sha256"], key


# the stdout bytes of each workload's commands, summed: a layout that writes more fails here
# before the benchmark's output_mb reads it
WORKLOAD_STDOUT_BYTES = {"startup_groups": 109_378, "lie_sc": 2_904_057, "functor_laws": 47_119}


def test_workload_report_sizes_are_frozen(workload_outputs):
    sizes = {
        name: sum(len(out.encode()) for _, out in runs.values())
        for name, runs in workload_outputs.items()
    }
    assert sizes == WORKLOAD_STDOUT_BYTES


# stdout sha256 of functor commands: `check` frozen under schema 1 before homsets shared
# one hom search per pair of distinct tables, `counterexample` under schema 2
FROZEN_FUNCTOR_STDOUT = {
    "functor check --ambient S4":
        "256e402afcdd98fdd666ee9c84b4978ce64320c42f2b4fa334b606fa0ed68899",
    "functor check --ambient H3":
        "1133adccf6d04422502d1d4a604ed5d3b215db7f9ab7d703ace15009f60090f9",
    "functor counterexample --ambient K4":
        "cf8ca77e5d8412c2210d69da10338ca3c9eb1b40b0811163f7ecb0f72a1434ad",
    "functor counterexample --ambient S4":
        "cfc21f0e65c5f0119a7c1f58c6936c5d868c47743b5916d1b6b57bfd04244116",
    "functor counterexample --ambient D6":
        "b5ef732daac6276b1a86e6f97941815a0de26f07e1fcd7f343ea623df972658a",
    "functor counterexample --ambient H3":
        "3d5f3fb37d392d33160c982944084769e066f47c59819cd145d200c5a558699e",
}


@pytest.mark.parametrize("command", list(FROZEN_FUNCTOR_STDOUT))
def test_functor_commands_print_the_frozen_bytes(capsys, command):
    code, out = run_cli(capsys, *command.split(" "))
    assert code == 0
    assert _sha256(_frozen_form(command, out)) == FROZEN_FUNCTOR_STDOUT[command]


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


def _load_perfbench(name: str):
    """A module of the benchmark, which is not a package, loaded by its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass reads its module from sys.modules
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    # the benchmark's tracer wraps these functions by name in each layer module
    tracing = _load_perfbench("tracing")
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
    tracer = _load_perfbench("tracing").Tracer()
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
        assert report_layout(json.loads(out)) + "\n" == out, argv


def _written(value) -> str:
    return "".join(_json_text(value))


_odd_strings = st.sampled_from(
    ["", "\"", "\\", "\x00\x1f\x7f", "\n\t", "\u03a33", "\U0001f600", "\ud800", "\u2028"]
)
_keys = st.text() | _odd_strings | st.sampled_from(["%", "%s", "%%", "a%(x)sb", "%d"])


def _records(children):
    """Lists of dicts with one shared key set, the shape of every record list in a payload."""
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
# the record shapes of the reports: a hom, a composition row, an object and a class
@example({"homs": [{"image": [0, 2, 1]}, {"image": [0, 1, 2]}]})
@example([{"failing_middles": [1, 3], "ok": False, "pairs": 12, "source": 0, "target": 2}])
@example([{"elements": ["e", "(12)"], "index": 1, "order": 2, "table": 1}])
@example([{"generators": [1], "images": [[1], [2]], "source": 1, "target": 1}])
def test_json_text_matches_json_dumps(value):
    assert _written(value) == report_layout(value)


# sparse structure-constant tables {(k, l): {m: c}}: k < l, indices of up to four digits
_sc_tables = st.dictionaries(
    st.tuples(st.integers(0, 9999), st.integers(0, 9999)).filter(lambda kl: kl[0] < kl[1]),
    st.dictionaries(st.integers(0, 9999), st.sampled_from([-2, -1, 1, 2]), min_size=1),
)
_SC_COMMA = ",\n    "  # between the records of a report's `sc` list


@given(_sc_tables)
@example({})
@example({(0, 4): {5: 1, 6: -1}, (12, 345): {6789: -2}, (3, 7): {0: 2}})
def test_constants_write_each_record_as_compact_json_in_table_order(table):
    text = _Constants(table).text(_SC_COMMA)
    written = text.split(_SC_COMMA) if text else []
    records = [
        {"im": "0", "k": k, "l": l, "m": m, "re": str(c)}
        for (k, l), row in table.items()
        for m, c in row.items()
    ]
    assert written == [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
    assert [json.loads(line) for line in written] == records


_NOT_INTS = st.sampled_from([True, False, 1.0, -2.0, Fraction(3, 2), Fraction(2)])


@given(_sc_tables.filter(bool), _NOT_INTS, st.data())
def test_constants_refuse_a_value_that_is_not_an_int(table, c, data):
    # `%d` would write each of these as an int
    pair = data.draw(st.sampled_from(sorted(table)))
    m = data.draw(st.sampled_from(sorted(table[pair])))
    bad = {kl: dict(row) for kl, row in table.items()}
    bad[pair][m] = c
    with pytest.raises(TypeError, match="not an int"):
        _Constants(bad).text(_SC_COMMA)


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
    [{"k": 1}, {"k": 1.5}],
    [{"k": (0, 1)}, {"k": (0, 1.0)}],
    [{"k": (0, True)}],
    [{"k": (0, 1)}, {"k": 2}],
    [{"k": 0, "l": {"a": [0.5]}}],
    [{"k": {"a": (1,)}}],
    {"payload": [{"k": [1.0]}]},
    # a dict item of a list, written on one line
    [[{"k": 0.5}]],
    {"terms": [{"re": (1,)}]},
    [{"k": {"a": 1.5}}],
    [{"k": [1, (2,)]}],
    [{"k": {1, 2}}],
    [{"k": {1: "a"}}],
    [{"k": {"a": [1, 2.5]}}],
    [{"k": [{"a": (1,)}]}],
    # a tuple in a record, or a float in a list that several records share
    [{"k": 1, "%s": (0, 1)}, {"k": 2, "%s": (0, 1)}, {"k": 3, "%s": ()}],
    [{"k": [1]}, {"k": (1,)}],
    [{"k": (0, 1)}, {"k": [True]}, {"k": [True]}, {"k": (0, 1)}],
    [{"k": [0, 1]}, {"k": (1, 2.0)}, {"k": (1, 2.0)}],
    [{"k": [0, 1]}, {"k": [[1.5]]}, {"k": [[1.5]]}],
    [{"k": [0, 1]}, {"k": (True,)}, {"k": (True,)}],
])
def test_json_text_refuses_types_outside_the_schema(value):
    with pytest.raises(TypeError):
        _written(value)
