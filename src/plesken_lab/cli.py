"""Command-line front end with stable JSON output.

Every command emits a single report object: schema_version, an echo of the
parsed command, the payload, and the exit code.  JSON output is deterministic
for fixed arguments; text mode is human-oriented and not schema-stable.
"""

from __future__ import annotations

import argparse
import os
import sys
from _json import encode_basestring_ascii as _quote  # the C function json.encoder exports
from functools import cache
from itertools import chain, repeat
from operator import itemgetter

from .errors import InvalidSpec, ParseError, PleskenLabError, SearchTooLarge
from .groups import CONVENTIONS, GroupSpec, build_group, enumerate_homs

# Each verb imports what it needs beyond `groups` inside its _run_* function, so
# `group` and `homs` load no other module, and only `functor` loads `functor`.

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_LAW_VIOLATION = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    shared.add_argument(
        "--convention",
        choices=CONVENTIONS,
        default="literal",
        help="object-map convention",
    )
    shared.add_argument(
        "--seed", type=int, default=0, help="seed for property-sample commands"
    )

    parser = argparse.ArgumentParser(
        prog="plesken-lab",
        description="Exact finite-group algebra and hat-span Lie algebra toolkit",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("group", parents=[shared], help="describe a group")
    p.add_argument("spec", help="group spec, e.g. C6, S3, D4, K4, H3")

    p = sub.add_parser("bracket", parents=[shared], help="commutator of two elements")
    p.add_argument("spec")
    p.add_argument("x", help="element expression, e.g. '2*e + (1/2)*a - i*a^2'")
    p.add_argument("y")

    p = sub.add_parser("plesken", parents=[shared], help="hat basis data")
    p.add_argument("spec")
    p.add_argument("what", choices=("basis", "dim", "sc"))

    p = sub.add_parser("homs", parents=[shared], help="enumerate homomorphisms")
    p.add_argument("domain")
    p.add_argument("codomain")

    p = sub.add_parser("functor", parents=[shared], help="verify the lifting functor")
    p.add_argument("action", choices=("check", "counterexample", "full"))
    p.add_argument("--ambient", required=True, help="ambient group spec")

    return parser


def _echo(args: argparse.Namespace) -> dict:
    skip = {"verb", "format", "convention", "seed"}
    return {
        "verb": args.verb,
        "args": {k: v for k, v in sorted(vars(args).items()) if k not in skip},
        "format": args.format,
        "convention": args.convention,
        "seed": args.seed,
    }


def _run_group(args) -> tuple[dict, int]:
    spec = GroupSpec.parse(args.spec)
    G = build_group(spec)
    payload = {
        "spec": str(spec),
        "order": G.order,
        "identity": G.identity,
        "involution_count": G.involution_count(),
        "labels": list(G.labels),
    }
    return payload, EXIT_OK


def _run_bracket(args) -> tuple[dict, int]:
    from .algebra import element_to_json, lie_bracket, parse_element

    spec = GroupSpec.parse(args.spec)
    G = build_group(spec)
    x = parse_element(G, args.x)
    y = parse_element(G, args.y)
    return element_to_json(lie_bracket(x, y)), EXIT_OK


def _run_plesken(args) -> tuple[dict, int]:
    from .plesken import canonical_basis, structure_constants

    spec = GroupSpec.parse(args.spec)
    G = build_group(spec)
    basis = canonical_basis(G)
    payload = {"group": str(spec), "dim": basis.dimension}
    if args.what in ("basis", "sc"):
        payload["basis"] = [G.labels[g] for g in basis.reps]
    if args.what == "sc":
        table = structure_constants(basis)
        rows = [
            (k, l, m, str(c), "0") for (k, l), row in sorted(table.items()) for m, c in row.items()
        ]
        payload["sc"] = _Rows(("k", "l", "m", "re", "im"), rows)
    return payload, EXIT_OK


def _run_homs(args) -> tuple[dict, int]:
    dom_spec = GroupSpec.parse(args.domain)
    cod_spec = GroupSpec.parse(args.codomain)
    homs = enumerate_homs(build_group(dom_spec), build_group(cod_spec))
    payload = {
        "domain": str(dom_spec),
        "codomain": str(cod_spec),
        "count": len(homs),
        "homs": _Rows(("image",), ((f.image,) for f in homs)),
    }
    return payload, EXIT_OK


def _object_map_samples(G, convention: str, seed: int, samples: int = 20) -> dict:
    from random import Random

    from .algebra import random_element, random_scalar
    from .functor import object_map
    from .plesken import canonical_basis, reduce

    rng = Random(seed)
    basis = canonical_basis(G)
    linear_ok = True
    in_span_ok = True
    for _ in range(samples):
        x = random_element(G, rng)
        y = random_element(G, rng)
        a = random_scalar(rng)
        b = random_scalar(rng)
        lhs = object_map(a * x + b * y, convention)
        rhs = a * object_map(x, convention) + b * object_map(y, convention)
        if lhs != rhs:
            linear_ok = False
        try:
            reduce(object_map(x, convention), basis)
        except PleskenLabError:
            in_span_ok = False
    return {
        "convention": convention,
        "seed": seed,
        "samples": samples,
        "linear_ok": linear_ok,
        "in_span_ok": in_span_ok,
    }


def _run_functor(args) -> tuple[dict, int]:
    from .functor import (
        CompositionLawResult,
        FaithfulnessWitness,
        FullnessPairResult,
        check_full,
        check_functor_laws,
        find_faithfulness_counterexample,
        subgroup_category,
    )

    spec = GroupSpec.parse(args.ambient)
    ambient = build_group(spec)
    category = subgroup_category(ambient)
    objects = _Rows(
        ("index", "order", "elements"),
        ((i, obj.order, list(obj.labels)) for i, obj in enumerate(category.objects)),
    )
    payload: dict = {"ambient": str(spec), "objects": objects}
    code = EXIT_OK
    if args.action == "check":
        report = check_functor_laws(category)
        samples = _object_map_samples(ambient, args.convention, args.seed)
        payload["identity_law"] = _Rows(("object", "ok"), report.identity)
        payload["composition_law"] = _Rows(CompositionLawResult._fields, report.composition)
        payload["object_map"] = samples
        payload["all_hold"] = report.all_hold
        if not (report.all_hold and samples["linear_ok"] and samples["in_span_ok"]):
            code = EXIT_LAW_VIOLATION
    elif args.action == "full":
        report = check_full(category)
        payload["pairs"] = _Rows(FullnessPairResult._fields, report.pairs)
        payload["all_full"] = report.all_full
        if not report.all_full:
            code = EXIT_LAW_VIOLATION
    else:
        witnesses = find_faithfulness_counterexample(category)
        payload["witnesses"] = _Rows(FaithfulnessWitness._fields, witnesses)
        payload["count"] = len(witnesses)
    return payload, code


_DISPATCH = {
    "group": _run_group,
    "bracket": _run_bracket,
    "plesken": _run_plesken,
    "homs": _run_homs,
    "functor": _run_functor,
}


def _format_text(report: dict) -> str:
    lines = [f"plesken-lab {report['command']['verb']}"]
    if "error" in report:
        lines.append(f"error: {report['error']}")
    else:
        lines.extend(_text_payload(report["command"]["verb"], report["payload"]))
    lines.append(f"exit: {report['exit_code']}")
    return "\n".join(lines)


def _text_payload(verb: str, payload: dict) -> list[str]:
    if verb == "group":
        return [
            f"spec: {payload['spec']}",
            f"order: {payload['order']}",
            f"involutions: {payload['involution_count']}",
            "elements: " + " ".join(payload["labels"]),
        ]
    if verb == "bracket":
        from .algebra import Scalar, parse_fraction

        terms = payload["terms"]
        if not terms:
            return ["result: 0"]
        body = " + ".join(
            f"({Scalar(parse_fraction(t['re']), parse_fraction(t['im']))})*{t['elem']}"
            for t in terms
        )
        return [f"result: {body}"]
    if verb == "plesken":
        lines = [f"group: {payload['group']}", f"dim: {payload['dim']}"]
        if "basis" in payload:
            lines.append("basis: " + " ".join(payload["basis"]))
        if "sc" in payload:
            lines.append(f"nonzero structure constants: {len(payload['sc'])}")
        return lines
    if verb == "homs":
        return [f"count: {payload['count']}"] + [
            "image: " + " ".join(map(str, image)) for (image,) in payload["homs"]
        ]
    lines = [f"ambient: {payload['ambient']}", f"objects: {len(payload['objects'])}"]
    if "all_hold" in payload:
        lines.append(f"laws hold: {payload['all_hold']}")
    if "all_full" in payload:
        lines.append(f"full: {payload['all_full']}")
    if "count" in payload:
        lines.append(f"witness pairs: {payload['count']}")
    return lines


class _Rows(list):
    """Records given as tuples of values under one tuple of field names.

    Every record list in a payload is one.  ``_json_text`` writes it exactly
    as the list of ``dict(zip(fields, row))``, without building those dicts;
    only here may a column of int lists hold tuples of ints.
    """

    def __init__(self, fields: tuple[str, ...], rows) -> None:
        super().__init__(rows)
        self.fields = fields


def _json_text(value, newline: str = "\n") -> str:
    """Exactly ``json.dumps(value, indent=2, sort_keys=True)``, one join per list.

    A ``_Rows`` value is written as its list of dicts, each record through one
    ``%`` template (``_records_text``); a dict is written item by item.

    ``json`` never uses its C encoder when ``indent`` is set, and its Python
    encoder yields one small string per token.  Only ``dict`` with ``str``
    keys, ``list``, ``_Rows``, ``str``, ``int``, ``bool`` and ``None`` are
    written; any other type, ``float`` and ``tuple`` included, raises
    ``TypeError`` (for a key, from ``encode_basestring_ascii``).
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    inner = newline + "  "
    if kind is list or kind is _Rows:
        if not value:
            return "[]"
        if kind is _Rows:
            parts = _records_text(value, inner)
        elif set(map(type, value)) == {int}:
            parts = map(int.__repr__, value)
        else:
            parts = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if kind is not dict:
        raise TypeError(f"cannot write {kind.__name__} as JSON")
    if not value:
        return "{}"
    items = [_quote(k) + ": " + _json_text(value[k], inner) for k in sorted(value)]
    return "{" + inner + ("," + inner).join(items) + newline + "}"


def _records_text(rows: _Rows, newline: str) -> list[str]:
    """``_json_text`` of each record of ``rows``, a tuple under ``rows.fields``.

    Each record fills one ``%`` template, so the per-record work runs in C.
    Each field's values are streamed, never stored as a column, and written
    by their exact types: an int column through ``%d``, a str column through
    ``encode_basestring_ascii``, a column of int lists or tuples through a
    memo that writes each distinct one once, and any other column (bools,
    mixed types, nesting) through ``_json_text``, which refuses every type
    outside the schema.
    """
    getters = {k: itemgetter(p) for p, k in enumerate(rows.fields)}
    if not getters:
        return ["{}"] * len(rows)
    inner = newline + "  "
    slots = []
    texts = []
    for k in sorted(getters):
        get = getters[k]
        types = set(map(type, map(get, rows)))
        slot = "%s"
        if types == {int}:
            slot = "%d"
            texts.append(map(get, rows))
        elif types == {str}:
            texts.append(map(_quote, map(get, rows)))
        elif types <= {list, tuple} and {int}.issuperset(
            map(type, chain.from_iterable({id(v): v for v in map(get, rows)}.values()))
        ):
            # exact ints only: a tuple key would let [True] reuse the text of [1];
            # rows share a few value objects, so each distinct object is read once
            int_list_text = cache(lambda items: _json_text(list(items), inner))
            texts.append(map(int_list_text, map(tuple, map(get, rows))))
        else:
            texts.append(map(_json_text, map(get, rows), repeat(inner)))
        slots.append(_quote(k).replace("%", "%%") + ": " + slot)
    template = "{" + inner + ("," + inner).join(slots) + newline + "}"
    return list(map(template.__mod__, zip(*texts)))


def _emit(report: dict, fmt: str) -> None:
    text = _json_text(report) if fmt == "json" else _format_text(report)
    sys.stdout.write(text)
    sys.stdout.write("\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    report = {"schema_version": SCHEMA_VERSION, "command": _echo(args)}
    try:
        report["payload"], code = _DISPATCH[args.verb](args)
    except (ParseError, InvalidSpec) as exc:
        report["error"] = str(exc)
        code = EXIT_USAGE
    except SearchTooLarge as exc:
        report["error"] = str(exc)
        code = EXIT_GUARD
    report["exit_code"] = code
    try:
        _emit(report, args.format)
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): exit as a shell reports a writer killed by
        # SIGPIPE, without a traceback; stdout goes to devnull, or the interpreter's last
        # flush of the unwritten buffer fails again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
