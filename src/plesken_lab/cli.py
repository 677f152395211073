"""Command-line front end: one JSON report per command, the only output.

Every command that parses writes a single report object (docs/schema.md):
schema_version, an echo of the parsed command, the payload or an error, and
the exit code.  The bytes are deterministic for fixed arguments.  A command
line that argparse refuses gets argparse's usage message on stderr, exit 2,
and no report.
"""

from __future__ import annotations

import argparse
import os
import sys
from _json import encode_basestring_ascii as _quote  # the C function json.encoder exports
from functools import cache
from itertools import chain, repeat

from .errors import InvalidSpec, ParseError, SearchTooLarge
from .groups import build_group, enumerate_homs

# Each verb imports what it needs beyond `groups` inside its _run_* function, so
# `group` and `homs` load no other module, and only `functor` loads `functor`.

SCHEMA_VERSION = "11"

EXIT_OK = 0
EXIT_LAW_VIOLATION = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plesken-lab",
        description="Exact finite-group algebra and hat-span Lie algebra toolkit",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("group", help="describe a group")
    p.add_argument("spec", help="group spec, e.g. C6, S3, D4, K4, H3")

    p = sub.add_parser("bracket", help="commutator of two elements")
    p.add_argument("spec")
    p.add_argument(
        "x",
        help="element expression, e.g. '2*e + (1/2)*a - i*a^2'; one that starts with "
        "'-' goes after '--'",
    )
    p.add_argument("y", help="element expression, as x")

    p = sub.add_parser("plesken", help="hat basis data")
    p.add_argument("spec")
    p.add_argument("what", choices=("basis", "dim", "sc"))

    p = sub.add_parser("homs", help="enumerate homomorphisms")
    p.add_argument("domain")
    p.add_argument("codomain")

    p = sub.add_parser("functor", help="verify the lifting functor")
    p.add_argument("action", choices=("check", "counterexample", "full"))
    p.add_argument("--ambient", required=True, help="ambient group spec")

    return parser


def _run_group(args) -> tuple[dict, int]:
    G = build_group(args.spec)
    payload = {
        "spec": G.spec,
        "order": G.order,
        "identity": G.identity,
        "involution_count": G.involution_count(),
        "labels": list(G.labels),
    }
    return payload, EXIT_OK


def _run_bracket(args) -> tuple[dict, int]:
    from .algebra import element_to_json, lie_bracket, parse_element

    G = build_group(args.spec)
    elements = []
    for name in ("x", "y"):
        try:
            elements.append(parse_element(G, getattr(args, name)))
        except ParseError as exc:  # name the argument that failed
            raise ParseError(f"{name}: {exc}") from exc
    return element_to_json(lie_bracket(*elements)), EXIT_OK


def _run_plesken(args) -> tuple[dict, int]:
    from .plesken import canonical_basis, structure_constants

    G = build_group(args.spec)
    basis = canonical_basis(G)
    payload = {"group": G.spec, "dim": basis.dimension}
    if args.what in ("basis", "sc"):
        payload["basis"] = [G.labels[g] for g in basis.reps]
    if args.what == "sc":
        payload["sc"] = _Constants(structure_constants(basis))
    return payload, EXIT_OK


def _run_homs(args) -> tuple[dict, int]:
    domain = build_group(args.domain)
    # a name that reads as the domain's up to ASCII case and outer spaces is built once
    same = args.codomain.isascii() and args.codomain.strip().upper() == domain.spec
    codomain = domain if same else build_group(args.codomain)
    homs = enumerate_homs(domain, codomain)
    payload = {
        "domain": domain.spec,
        "codomain": codomain.spec,
        "count": len(homs),
        "homs": [{"image": list(f.image)} for f in homs],
    }
    return payload, EXIT_OK


def _object_map_check(G) -> bool:
    """Whether ``object_map`` sends each element g of G to 2(g - g^-1), in the group algebra.

    ``object_map`` is linear, so these |G| values decide it.
    """
    from .algebra import AlgebraElement
    from .functor import object_map
    from .plesken import hat

    return all(object_map(AlgebraElement.basis(G, g)) == 2 * hat(G, g) for g in range(G.order))


def _run_functor(args) -> tuple[dict, int]:
    from .functor import (
        check_full,
        check_functor_laws,
        find_faithfulness_counterexample,
        subgroup_category,
    )

    ambient = build_group(args.ambient)
    category = subgroup_category(ambient)
    table = category.table  # every other record names tables, for all the objects on them
    objects = [
        {"index": i, "order": obj.order, "elements": list(obj.labels), "table": table[i]}
        for i, obj in enumerate(category.objects)
    ]
    payload: dict = {"ambient": ambient.spec, "objects": objects}
    code = EXIT_OK
    if args.action == "check":
        report = check_functor_laws(category)
        payload["identity_law"] = [r._asdict() for r in report.identity]
        payload["composition_law"] = [r._asdict() for r in report.composition]
        payload["object_map"] = object_ok = _object_map_check(ambient)
        payload["all_hold"] = report.all_hold
        if not (report.all_hold and object_ok):
            code = EXIT_LAW_VIOLATION
    elif args.action == "full":
        report = check_full(category)
        payload["pairs"] = [r._asdict() for r in report.pairs]
        payload["all_full"] = report.all_full
        if not report.all_full:
            code = EXIT_LAW_VIOLATION
    else:
        classes = find_faithfulness_counterexample(category)
        # a hom is fixed by its images of the source's generators, so a member is written as those
        gens = [list(basis.group.generators) for basis in category.bases]
        rows = sorted(
            (a, b, sorted([image[g] for g in gens[a]] for image in images))
            for a, b, images in classes
        )
        payload["classes"] = [
            {"generators": gens[a], "images": images, "source": a, "target": b}
            for a, b, images in rows
        ]
        n = category.sizes  # a class of m on tables (a, b): m(m-1)/2 pairs per object pair
        payload["count"] = sum(n[a] * n[b] * len(c) * (len(c) - 1) // 2 for a, b, c in classes)
    return payload, code


_DISPATCH = {
    "group": _run_group,
    "bracket": _run_bracket,
    "plesken": _run_plesken,
    "homs": _run_homs,
    "functor": _run_functor,
}


class _Constants(dict):
    """Structure constants ``{(k, l): {m: c}}``, written in the table's order.

    Each term c e_m of [e_k, e_l] is the record
    ``{"im":"0","k":k,"l":l,"m":m,"re":"c"}``: schema 6 writes the integer c
    as the scalar c + 0i.
    The records of a pair share their text up to ``"m"``, and each distinct
    term (m, c) is formatted once, so the work per record runs in C.
    """

    def text(self, comma: str) -> str:
        """The records, joined by ``comma``."""
        rows = self.values()
        # `%d` writes 1.5 and True as 1, so every c must be an int; k, l and m are ints by
        # construction, the positions `structure_constants` counts
        if set(map(type, chain.from_iterable(map(dict.values, rows)))) - {int}:
            raise TypeError("cannot write a structure constant that is not an int as JSON")
        prefixes = list(map('{"im":"0","k":%d,"l":%d,'.__mod__, self))
        terms = map(map, repeat(cache('"m":%d,"re":"%d"}'.__mod__)), map(dict.items, rows))
        # each pair's records, less the prefix of its first
        pairs = map(str.join, map(comma.__add__, prefixes), terms)
        return comma.join(map(str.__add__, prefixes, pairs))


def _json_text(value, newline: str = "\n") -> list[str]:
    """The report layout of ``value``, as pieces to write in order.

    The pieces join to exactly ``json.dumps(value, indent=2, sort_keys=True)``,
    except that each dict that is an item of a list is on one line, exactly
    ``json.dumps(item, sort_keys=True, separators=(",", ":"))``;
    ``newline=""`` writes all of ``value`` that way.  A ``_Constants`` value
    is written as its records (``_Constants.text``).  A list is joined into
    one piece; a dict passes its values' pieces on uncopied.

    Only ``dict`` with ``str`` keys, ``list``, ``_Constants``,
    ``str``, ``int``, ``bool`` and ``None`` are written; any other type,
    ``float`` and ``tuple`` included, raises ``TypeError`` (for a key, from
    ``encode_basestring_ascii``).
    """
    kind = type(value)
    if kind is str:
        return [_quote(value)]
    if kind is int:
        return [int.__repr__(value)]
    if value is None or kind is bool:
        return ["null" if value is None else "true" if value else "false"]
    if kind not in (dict, list, _Constants):
        raise TypeError(f"cannot write {kind.__name__} as JSON")
    if not value:
        return ["{}" if kind is dict else "[]"]
    inner = newline and newline + "  "
    comma = "," + inner
    colon = ": " if newline else ":"
    if kind is dict:
        pieces = []
        prefix = "{" + inner
        for k in sorted(value):
            pieces.append(prefix + _quote(k) + colon)
            pieces += _json_text(value[k], inner)
            prefix = comma
        pieces.append(newline + "}")
        return pieces
    if kind is _Constants:
        items = [value.text(comma)]
    elif set(map(type, value)) == {int}:
        items = map(int.__repr__, value)
    else:
        items = ("".join(_json_text(v, "" if type(v) is dict else inner)) for v in value)
    return ["[" + inner, comma.join(items), newline + "]"]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    echo = {"verb": args.verb, "args": {k: v for k, v in vars(args).items() if k != "verb"}}
    report = {"schema_version": SCHEMA_VERSION, "command": echo}
    try:
        report["payload"], code = _DISPATCH[args.verb](args)
    except (ParseError, InvalidSpec) as exc:
        report["error"] = str(exc)
        code = EXIT_USAGE
    except SearchTooLarge as exc:
        report["error"] = str(exc)
        code = EXIT_GUARD
    report["exit_code"] = code
    pieces = _json_text(report)
    pieces.append("\n")
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): exit as a shell reports a writer killed by
        # SIGPIPE, without a traceback; stdout goes to devnull, or the interpreter's last
        # flush of the unwritten buffer fails again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
