"""docs/schema.md names the current schema and shows the records the CLI writes."""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

from plesken_lab.cli import SCHEMA_VERSION, main

SCHEMA = (Path(__file__).resolve().parents[1] / "docs" / "schema.md").read_text()


def json_texts(text: str) -> list[str]:
    return re.findall(r"^```json\n(.*?)^```$", text, re.M | re.S)


def json_blocks(text: str) -> list:
    return [json.loads(block) for block in json_texts(text)]


def section(heading: str) -> str:
    """The text under ``heading`` up to the next heading."""
    rest = SCHEMA[SCHEMA.index(heading + "\n") + len(heading) :]
    end = re.search(r"^#+ ", rest, re.M)
    return rest[: end.start() if end else len(rest)]


def payload(*argv: str) -> dict:
    with redirect_stdout(io.StringIO()) as out:
        assert main(list(argv)) == 0, argv
    return json.loads(out.getvalue())["payload"]


def test_envelope_example_names_the_schema_version():
    (envelope,) = json_blocks(section("## Report envelope"))
    assert envelope["schema_version"] == SCHEMA_VERSION


def test_example_records_are_in_the_written_layout():
    # a record is an object that is an item of an array: the CLI writes each on a line
    # of its own, with no space after its `,` and `:`
    lines = [line.strip() for block in json_texts(SCHEMA) for line in block.splitlines()]
    assert not [line for line in lines if "[{" in line]  # a record after its key
    records = [
        line.removesuffix(",") for line in lines
        if line.startswith("{") and line.removesuffix(",").endswith("}")
    ]
    assert len(records) >= 10
    for record in records:
        assert record == json.dumps(json.loads(record), sort_keys=True, separators=(",", ":"))


def test_functor_examples_carry_the_keys_the_cli_writes():
    payloads = {
        action: payload("functor", action, "--ambient", "S3")
        for action in ("check", "full", "counterexample")
    }
    written = {}  # each record list of a real report: the keys of its records
    for p in payloads.values():
        for key, value in p.items():
            if isinstance(value, list) and value and isinstance(value[0], dict):
                assert all(set(r) == set(value[0]) for r in value), key
                written[key] = set(value[0])
    shown = {}  # each record list of the examples: the keys of its example record
    examples = json_blocks(section("### `functor <check|counterexample|full> --ambient <spec>`"))
    for example in examples:
        for key, value in example.items():
            if isinstance(value, list) and value and isinstance(value[0], dict):
                shown[key] = set(value[0])
    assert shown == written
    # the example of each action shows its payload's keys, less the two all three carry
    shared = {"ambient", "objects"}
    shown_payloads = [set(example) for example in examples if set(example) - shared]
    assert sorted(map(sorted, shown_payloads)) == sorted(
        sorted(set(p) - shared) for p in payloads.values()
    )


def test_every_schema_bump_says_what_changed():
    # each schema v from 2 on has a section saying what changed from schema v-1
    headings = set(re.findall(r"^## .*$", SCHEMA, re.M))
    versions = range(2, int(SCHEMA_VERSION) + 1)
    missing = [v for v in versions if f"## Changes from schema {v - 1}" not in headings]
    assert missing == []


def test_newest_size_table_gives_the_bytes_the_cli_writes():
    # each command in the size table of the newest "Changes from schema N" section,
    # run through the CLI, writes exactly the byte count of the table's last column
    newest = section(f"## Changes from schema {int(SCHEMA_VERSION) - 1}")
    rows = re.findall(r"^\| `([^`]+)` \|.*\| ([\d,]+) \|$", newest, re.M)
    assert len(rows) >= 3
    for command, size in rows:
        with redirect_stdout(io.StringIO()) as out:
            main(command.split())
        written = len(out.getvalue().encode())
        assert written == int(size.replace(",", "")), command


def test_group_names_the_doc_cites_exit_as_it_states():
    # the name table of "Group specs" gives each name's exit code and its echo or error;
    # the guard paragraph quotes refusals, each exit 3; a name cited anywhere else in the
    # two passages is a canonical name that `group` echoes as it is
    exits = section("### Exit codes")
    guard = exits[exits.index("The group-order guard") :]
    specs = section("### Group specs")
    stated = {name: (int(code), text) for name, code, text in re.findall(
        r"^\| `([^`]+)` \| (\d) \| `([^`]+)` \|$", specs, re.M
    )}
    stated.update(
        (name, (3, text)) for text, name in re.findall(r'"(group (\w+) has order [^"]+)"', guard)
    )
    assert len(stated) >= 10 and {2, 3} < {code for code, _ in stated.values()}
    for name in re.findall(r"`(\w\d+)`", specs + guard):
        stated.setdefault(name, (0, name))
    for name, (code, text) in stated.items():
        with redirect_stdout(io.StringIO()) as out:
            written = main(["group", name])
        report = json.loads(out.getvalue())
        got = report["payload"]["spec"] if written == 0 else report["error"]
        assert (written, got) == (code, text), name
