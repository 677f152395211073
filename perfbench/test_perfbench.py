"""Checks that the benchmark's own correctness gates and accounting can fail.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import sys

import pytest

import run
from tracing import Tracer
from workloads import WORKLOADS, command_key

sys.path.insert(0, str(run.SRC))

GROUP_C2 = ("group", "C2")


@pytest.fixture(scope="module")
def expected():
    return run.load_expected()


def test_every_workload_command_has_a_reference(expected):
    for workload in WORKLOADS.values():
        for args in workload.commands:
            assert command_key(args) in expected


def test_wrong_expected_value_is_reported_as_failure(expected):
    wrong = copy.deepcopy(expected)
    wrong[command_key(GROUP_C2)]["fields"]["order"] = 3
    env = run.child_env()
    deadline = run.time.perf_counter() + 60
    good = run.run_pass([GROUP_C2], expected, env, deadline)["commands"][0]
    bad = run.run_pass([GROUP_C2], wrong, env, deadline)["commands"][0]
    assert good["ok"] and good["reason"] is None
    assert not bad["ok"]
    assert "order=2, expected 3" in bad["reason"]


def test_wrong_exit_code_and_invalid_json_are_failures(expected):
    ref = expected[command_key(GROUP_C2)]
    assert "exit code 1" in run.check_output(ref, 1, b"{}")
    assert "invalid report" in run.check_output(ref, 0, b"not json")


def test_timeout_is_a_failure(expected, monkeypatch):
    monkeypatch.setattr(run, "COMMAND_TIMEOUT_S", 0.01)
    deadline = run.time.perf_counter() + 60
    record = run.run_pass([GROUP_C2], expected, run.child_env(), deadline)["commands"][0]
    assert not record["ok"]
    assert record["reason"].startswith("timeout")


def test_rss_is_accounted_per_child():
    env = run.child_env()
    big = run.run_child(
        [sys.executable, "-c", "b = bytearray(80_000_000); b[::4096] = b'x' * len(b[::4096])"],
        60, env,
    )
    small = run.run_child([sys.executable, "-c", "pass"], 60, env)
    assert big.returncode == 0 and small.returncode == 0
    assert big.maxrss_mb > 80
    assert small.maxrss_mb < 40  # not the running maximum over all children


def test_tracer_counts_spans_and_restores_functions(expected):
    import plesken_lab.algebra
    import plesken_lab.groups

    original = plesken_lab.groups.validate_hom
    original_init = plesken_lab.groups.FiniteGroup.__init__
    tracer = Tracer()
    tracer.install()
    try:
        assert plesken_lab.algebra.validate_hom is not original
        _, records = run.replay([("functor", "check", "--ambient", "S3")], expected, tracer)
    finally:
        tracer.uninstall()
    assert all(r["ok"] for r in records)
    assert plesken_lab.groups.validate_hom is original
    assert plesken_lab.algebra.validate_hom is original
    assert plesken_lab.groups.FiniteGroup.__init__ is original_init
    layers = tracer.layer_metrics()
    assert layers["cli.main.calls"] == 1
    assert layers["groups.validate_hom.calls"] > layers["groups.validate_hom.revalidations"] > 0
    assert layers["functor.lifts_per_morphism"] > 1
    assert all(layers[f"{name}.self_s"] >= 0 for name in ("cli.main", "groups.validate_hom"))
