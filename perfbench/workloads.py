"""The benchmark's workloads and the per-command correctness checks.

A workload is a fixed list of ``plesken-lab`` commands; one pass runs the
list once.  Each command's JSON report is reduced to a few semantic fields
(``summarize``) and compared with the values frozen in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

# Left out of every workload until hat maps become integer tables and the
# hom search is pruned (ROADMAP items 2 and 5); both come back then:
#   functor check --ambient S4   takes about 40 s per command
#   functor check --ambient H3   runs past 600 s because no guard trips


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[tuple[str, ...], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "startup_groups",
            "18 short commands covering every verb: process start, import, "
            "group validation and hom search dominate",
            (
                ("group", "C2"),
                ("group", "K4"),
                ("group", "S3"),
                ("group", "H3"),
                ("group", "S6"),
                ("group", "H7"),
                ("plesken", "S3", "dim"),
                ("plesken", "H3", "dim"),
                ("plesken", "S3", "basis"),
                ("bracket", "C3", "e+a", "e+a^2"),
                ("bracket", "S3", "(12)", "(123)"),
                ("homs", "C3", "C3"),
                ("homs", "S4", "S5"),
                ("homs", "S5", "S5"),
                ("homs", "D6", "S4"),
                ("functor", "check", "--ambient", "S3"),
                ("functor", "counterexample", "--ambient", "K4"),
                ("functor", "full", "--ambient", "C6"),
            ),
        ),
        Workload(
            "lie_sc",
            "hat-span structure constants of H7, H5 and S5: few large calls "
            "into algebra.convolve, plesken.reduce and JSON encoding",
            (
                ("plesken", "H7", "sc"),
                ("plesken", "H5", "sc"),
                ("plesken", "S5", "sc"),
            ),
        ),
        Workload(
            "functor_laws",
            "functor laws, fullness and faithfulness over all subgroups: "
            "hundreds of thousands of tiny validate, basis and lift calls",
            (
                ("functor", "check", "--ambient", "D6"),
                ("functor", "check", "--ambient", "D4"),
                ("functor", "counterexample", "--ambient", "S4"),
                ("functor", "full", "--ambient", "S4"),
            ),
        ),
    )
}


def command_key(args) -> str:
    return " ".join(args)


def digest(value) -> str:
    """sha256 of the canonical JSON form of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def summarize(report: dict) -> dict:
    """The semantic fields of one CLI report that the benchmark checks."""
    verb = report["command"]["verb"]
    action = report["command"]["args"].get("action")
    payload = report.get("payload", {})
    out = {"exit_code": report["exit_code"]}
    if verb == "group":
        out["order"] = payload["order"]
        out["involution_count"] = payload["involution_count"]
    elif verb == "bracket":
        out["terms_sha256"] = digest(payload["terms"])
    elif verb == "plesken":
        out["dim"] = payload["dim"]
        if "basis" in payload:
            out["basis_sha256"] = digest(payload["basis"])
        if "sc" in payload:
            out["sc_count"] = len(payload["sc"])
            out["sc_sha256"] = digest(payload["sc"])
    elif verb == "homs":
        out["count"] = payload["count"]
        out["images_sha256"] = digest([h["image"] for h in payload["homs"]])
    elif verb == "functor":
        out["objects"] = len(payload["objects"])
        if action == "check":
            out["all_hold"] = payload["all_hold"]
            out["pairs"] = sum(r["pairs"] for r in payload["composition_law"])
        elif action == "full":
            out["all_full"] = payload["all_full"]
        else:
            out["witnesses"] = payload["count"]
    return out


def check_output(expected: dict, returncode: int, stdout: bytes) -> str | None:
    """None when the command's output matches ``expected``, else the reason it does not."""
    if returncode != expected["exit_code"]:
        return f"exit code {returncode}, expected {expected['exit_code']}"
    try:
        got = summarize(json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"invalid report: {exc!r}"
    wrong = [
        f"{k}={got.get(k)!r}, expected {v!r}"
        for k, v in expected["fields"].items()
        if got.get(k) != v
    ]
    return "; ".join(wrong) or None
