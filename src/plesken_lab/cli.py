"""Command-line front end with stable JSON output.

Every command emits a single report object: schema_version, an echo of the
parsed command, the payload, and the exit code.  JSON output is deterministic
for fixed arguments; text mode is human-oriented and not schema-stable.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii as _quote
from random import Random

from .algebra import (
    Scalar,
    element_to_json,
    lie_bracket,
    parse_element,
    parse_fraction,
    random_element,
    random_scalar,
)
from .errors import InvalidSpec, ParseError, PleskenLabError, SearchTooLarge
from .functor import (
    CONVENTIONS,
    check_full,
    check_functor_laws,
    find_faithfulness_counterexample,
    object_map,
    subgroup_category,
)
from .groups import GroupSpec, build_group, enumerate_homs
from .plesken import canonical_basis, reduce, structure_constants

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_LAW_VIOLATION = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


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
    spec = GroupSpec.parse(args.spec)
    G = build_group(spec)
    x = parse_element(G, args.x)
    y = parse_element(G, args.y)
    return element_to_json(lie_bracket(x, y)), EXIT_OK


def _run_plesken(args) -> tuple[dict, int]:
    spec = GroupSpec.parse(args.spec)
    G = build_group(spec)
    basis = canonical_basis(G)
    payload = {"group": str(spec), "dim": basis.dimension}
    if args.what in ("basis", "sc"):
        payload["basis"] = [G.labels[g] for g in basis.reps]
    if args.what == "sc":
        table = structure_constants(basis)
        entries = [
            {"k": k, "l": l, "m": m, "re": str(c), "im": "0"}
            for (k, l), row in sorted(table.items())
            for m, c in row.items()
        ]
        payload["sc"] = entries
    return payload, EXIT_OK


def _run_homs(args) -> tuple[dict, int]:
    dom_spec = GroupSpec.parse(args.domain)
    cod_spec = GroupSpec.parse(args.codomain)
    homs = enumerate_homs(build_group(dom_spec), build_group(cod_spec))
    payload = {
        "domain": str(dom_spec),
        "codomain": str(cod_spec),
        "count": len(homs),
        "homs": [{"image": list(f.image)} for f in homs],
    }
    return payload, EXIT_OK


def _object_map_samples(G, convention: str, seed: int, samples: int = 20) -> dict:
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
    spec = GroupSpec.parse(args.ambient)
    ambient = build_group(spec)
    category = subgroup_category(ambient)
    objects = [
        {"index": i, "order": obj.order, "elements": list(obj.labels)}
        for i, obj in enumerate(category.objects)
    ]
    payload: dict = {"ambient": str(spec), "objects": objects}
    code = EXIT_OK
    if args.action == "check":
        report = check_functor_laws(category)
        samples = _object_map_samples(ambient, args.convention, args.seed)
        payload["identity_law"] = [
            {"object": r.object_index, "ok": r.ok} for r in report.identity
        ]
        payload["composition_law"] = [
            {"source": r.source, "middle": r.middle, "target": r.target,
             "pairs": r.pairs, "ok": r.ok}
            for r in report.composition
        ]
        payload["object_map"] = samples
        payload["all_hold"] = report.all_hold
        if not (report.all_hold and samples["linear_ok"] and samples["in_span_ok"]):
            code = EXIT_LAW_VIOLATION
    elif args.action == "full":
        report = check_full(category)
        payload["pairs"] = [
            {"source": r.source, "target": r.target, "morphisms": r.morphisms,
             "distinct_images": r.distinct_images, "witnessed": r.witnessed,
             "ok": r.ok}
            for r in report.pairs
        ]
        payload["all_full"] = report.all_full
        if not report.all_full:
            code = EXIT_LAW_VIOLATION
    else:
        witnesses = find_faithfulness_counterexample(category)
        payload["witnesses"] = [
            {"source": w.source, "target": w.target,
             "image_a": list(w.image_a), "image_b": list(w.image_b)}
            for w in witnesses
        ]
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
            "image: " + " ".join(map(str, h["image"])) for h in payload["homs"]
        ]
    lines = [f"ambient: {payload['ambient']}", f"objects: {len(payload['objects'])}"]
    if "all_hold" in payload:
        lines.append(f"laws hold: {payload['all_hold']}")
    if "all_full" in payload:
        lines.append(f"full: {payload['all_full']}")
    if "count" in payload:
        lines.append(f"witness pairs: {payload['count']}")
    return lines


def _json_text(value, newline: str = "\n") -> str:
    """Exactly ``json.dumps(value, indent=2, sort_keys=True)``, one join per container.

    ``json`` never uses its C encoder when ``indent`` is set, and its Python
    encoder yields one small string per token.  Only ``dict`` with ``str``
    keys, ``list``, ``str``, ``int``, ``bool`` and ``None`` are written; any
    other type, ``float`` included, raises ``TypeError`` (for a key, from
    ``encode_basestring_ascii``).
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    inner = newline + "  "
    if kind is list:
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            parts = map(int.__repr__, value)
        else:
            parts = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if kind is not dict:
        raise TypeError(f"cannot write {kind.__name__} as JSON")
    if not value:
        return "{}"
    parts = []
    for k in sorted(value):
        v = value[k]
        t = type(v)
        text = _quote(v) if t is str else int.__repr__(v) if t is int else _json_text(v, inner)
        parts.append(_quote(k) + ": " + text)
    return "{" + inner + ("," + inner).join(parts) + newline + "}"


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json_text(report))
    else:
        print(_format_text(report))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    report = {"schema_version": SCHEMA_VERSION, "command": _echo(args)}
    try:
        payload, code = _DISPATCH[args.verb](args)
    except (ParseError, InvalidSpec) as exc:
        report["error"] = str(exc)
        report["exit_code"] = EXIT_USAGE
        _emit(report, args.format)
        return EXIT_USAGE
    except SearchTooLarge as exc:
        report["error"] = str(exc)
        report["exit_code"] = EXIT_GUARD
        _emit(report, args.format)
        return EXIT_GUARD
    report["payload"] = payload
    report["exit_code"] = code
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
