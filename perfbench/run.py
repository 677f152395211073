#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``plesken-lab`` command line.

    python3 perfbench/run.py --workload lie_sc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all              # every workload
    python3 perfbench/run.py --write-reference           # refreeze expected.json

Untraced (``--trace 0``), one client runs a workload's commands in a closed
loop, each as a fresh ``python -m plesken_lab`` child, and repeats the pass
until ``--seconds`` are used.  Traced (``--trace 1``), the same commands are
replayed in this process through ``plesken_lab.cli.main``, once plain and
once with every layer wrapped by ``tracing.Tracer``.  The seed only shuffles
the order of commands within each pass.  The program is imported from
``src/`` next to this directory; see README.md for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from tracing import Tracer
from workloads import WORKLOADS, check_output, command_key, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
RESULTS = HERE / "results"

COMMAND_TIMEOUT_S = 60.0
# Every child of a workload's run is killed by this time after the run
# starts, so a run ends well within 180 s.
RUN_DEADLINE_S = 150.0
SETUP_REPEATS = 3  # per pass
PROBE_REPEATS = 5
MB = 1e6
TIMING_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}

# The per-layer metrics printed on the result line.  Self times of functions
# that some workload never calls stay in the result file only: they would
# read exactly 0 on every run of that workload.
PER_LAYER_SELF_S = (
    "groups.FiniteGroup",
    "groups.build_group",
    "plesken.canonical_basis",
    "plesken.reduce",
    "cli.main",
    "groups",
    "algebra",
    "plesken",
)
PER_LAYER_EXTRA = {
    "groups.validate_hom.revalidations": "count",
    "plesken.canonical_basis.rebuilds": "count",
    "functor.lifts_per_morphism": "ratio",
    "trace.overhead_ratio": "ratio",
    "process.start_s": "s",
    "process.import_s": "s",
    "process.numpy_import_s": "s",
}


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    timed_out: bool


def child_env() -> dict:
    """The caller's environment with ``src/`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], timeout: float, env: dict) -> Child:
    """Run one child to completion and account its resources with ``os.wait4``.

    ``RUSAGE_CHILDREN`` keeps a running maximum RSS over every child so far,
    so the usage is taken from this child's own wait status instead.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    streams: dict[str, bytes] = {}

    def drain(name, stream):
        streams[name] = stream.read()

    readers = [
        threading.Thread(target=drain, args=("out", proc.stdout)),
        threading.Thread(target=drain, args=("err", proc.stderr)),
    ]
    for r in readers:
        r.start()
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}

    def kill():
        with lock:
            if not state["exited"]:
                state["timed_out"] = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        # Wait without reaping, so the pid cannot be reused before the
        # timer is disarmed.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        raise
    finally:
        wall = time.perf_counter() - t0
        with lock:
            state["exited"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        for r in readers:
            r.join()
        proc.stdout.close()
        proc.stderr.close()
    return Child(
        returncode=proc.returncode,
        stdout=streams.get("out", b""),
        stderr=streams.get("err", b""),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss * 1024 / MB,
        timed_out=state["timed_out"],
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)["commands"]


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "plesken_lab", *args]


# ---------------------------------------------------------------------------
# run record


def probe_program(env: dict) -> str | None:
    """Check that a child imports plesken_lab from src/; the numpy version it gets."""
    code = (
        "import plesken_lab\n"
        "try:\n import numpy; v = numpy.__version__\n"
        "except ImportError:\n v = None\n"
        "print(plesken_lab.__file__); print(v)"
    )
    child = run_child([sys.executable, "-c", code], COMMAND_TIMEOUT_S, env)
    if child.returncode != 0:
        sys.exit("plesken_lab does not import:\n" + child.stderr.decode(errors="replace"))
    path, numpy_version = child.stdout.decode().split("\n")[:2]
    if not Path(path).resolve().is_relative_to(SRC):
        sys.exit(f"plesken_lab imports from {path}, not from {SRC}")
    return None if numpy_version == "None" else numpy_version


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over every file under src/, so a checkout without git is identified."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host_record(numpy_version: str | None) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        # Passed to every child unchanged; each one moves start-up time.
        "env": {k: os.environ.get(k) for k in TIMING_ENV},
    }


# ---------------------------------------------------------------------------
# untraced: fresh child processes


def run_pass(commands, expected: dict, env: dict, deadline: float) -> dict:
    records = []
    for args in commands:
        key = command_key(args)
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            records.append({"command": key, "ok": False,
                            "reason": "not started: run deadline reached"})
            continue
        child = run_child(cli_argv(args), min(COMMAND_TIMEOUT_S, remaining), env)
        if child.timed_out:
            reason = f"timeout after {child.wall_s:.1f} s"
        else:
            reason = check_output(expected[key], child.returncode, child.stdout)
        records.append({
            "command": key,
            "ok": reason is None,
            "reason": reason,
            "wall_s": child.wall_s,
            "cpu_s": child.cpu_s,
            "maxrss_mb": child.maxrss_mb,
            "stdout_bytes": len(child.stdout),
            "stdout_sha256": sha256(child.stdout),
        })
    ran = [r for r in records if "wall_s" in r]
    return {
        "pass_s": sum(r["wall_s"] for r in ran),
        "cpu_s": sum(r["cpu_s"] for r in ran),
        "peak_rss_mb": max((r["maxrss_mb"] for r in ran), default=0.0),
        "output_mb": sum(r["stdout_bytes"] for r in ran) / MB,
        "commands": records,
    }


def repeat_until(seconds: float, deadline: float, step) -> list:
    """Call ``step`` until the next call would end past ``seconds``; at least once."""
    start = time.perf_counter()
    out = []
    while True:
        out.append(step())
        now = time.perf_counter()
        elapsed = now - start
        if elapsed * (len(out) + 1) / len(out) > seconds or now >= deadline:
            return out


def measure(workload, rng, seconds, expected, env, deadline) -> dict:
    setup = []

    def one_pass():
        # Set-up probes run before every pass rather than all at the start, so
        # their median, like the passes', spans the host's speed over the run.
        for _ in range(SETUP_REPEATS):
            child = run_child([sys.executable, "-c", "import plesken_lab"],
                              COMMAND_TIMEOUT_S, env)
            if child.returncode != 0:
                sys.exit("set-up failed:\n" + child.stderr.decode(errors="replace"))
            setup.append(child.wall_s)
        order = list(workload.commands)
        rng.shuffle(order)
        return run_pass(order, expected, env, deadline)

    passes = repeat_until(seconds, deadline, one_pass)
    samples = {"setup_s": setup}
    for name in ("pass_s", "cpu_s", "peak_rss_mb", "output_mb"):
        samples[name] = [p[name] for p in passes]
    records = [c for p in passes for c in p["commands"]]
    return {
        "metrics": {name: (median(samples[name]), END_TO_END[name], len(samples[name]))
                    for name in END_TO_END},
        "samples": samples,
        "records": records,
        "passes": passes,
    }


# ---------------------------------------------------------------------------
# traced: in-process replay


def import_probe(env: dict) -> tuple[float, float]:
    """(plesken_lab, numpy) cumulative import seconds from ``-X importtime``."""
    child = run_child(
        [sys.executable, "-X", "importtime", "-c", "import plesken_lab"],
        COMMAND_TIMEOUT_S, env,
    )
    found = {}
    for line in child.stderr.decode().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("plesken_lab", "numpy"):
            found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return found.get("plesken_lab", 0.0), found.get("numpy", 0.0)


def replay(commands, expected: dict, tracer: Tracer | None) -> tuple[float, list]:
    """Run each command through ``cli.main`` in this process; total seconds and records."""
    import plesken_lab.cli

    total = 0.0
    records = []
    for args in commands:
        key = command_key(args)
        buf = io.StringIO()
        if tracer is not None:
            tracer.begin_command()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = plesken_lab.cli.main(list(args))
        except Exception as exc:  # a crash is this command's failure, not the run's
            total += time.perf_counter() - t0
            records.append({"command": key, "ok": False, "reason": repr(exc)})
            continue
        total += time.perf_counter() - t0
        reason = check_output(expected[key], code, buf.getvalue().encode())
        records.append({"command": key, "ok": reason is None, "reason": reason})
    return total, records


def layer_unit(name: str) -> str:
    return PER_LAYER_EXTRA.get(name) or ("s" if name.endswith("_s") else "count")


def measure_traced(workload, rng, seconds, expected, env, deadline) -> dict:
    start = [run_child([sys.executable, "-c", "pass"], COMMAND_TIMEOUT_S, env).wall_s
             for _ in range(PROBE_REPEATS)]
    imports = [import_probe(env) for _ in range(PROBE_REPEATS)]
    sys.path.insert(0, str(SRC))
    import plesken_lab.cli  # noqa: F401  (imported once, before any timing)

    def one_replay():
        order = list(workload.commands)
        rng.shuffle(order)
        # Plain replays on both sides of the traced one, so warm-up and drift
        # in host speed do not bias the overhead ratio.
        before_s, before = replay(order, expected, None)
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, traced = replay(order, expected, tracer)
        finally:
            tracer.uninstall()
        after_s, after = replay(order, expected, None)
        return {"untraced_s": (before_s + after_s) / 2, "traced_s": traced_s,
                "layers": tracer.layer_metrics(), "records": before + traced + after}

    replays = repeat_until(seconds, deadline, one_replay)
    table = {}
    for name in replays[0]["layers"]:
        values = [r["layers"][name] for r in replays]
        table[name] = values[0] if layer_unit(name) == "count" else median(values)
    table["trace.overhead_ratio"] = median([r["traced_s"] / r["untraced_s"] for r in replays])
    table["process.start_s"] = median(start)
    table["process.import_s"] = median([i[0] for i in imports])
    table["process.numpy_import_s"] = median([i[1] for i in imports])
    calls_repeat = all(
        r["layers"][k] == table[k]
        for r in replays for k in r["layers"] if layer_unit(k) == "count"
    )
    reported = [n for n in table if n.endswith(".calls")]
    reported += [f"{n}.self_s" for n in PER_LAYER_SELF_S] + list(PER_LAYER_EXTRA)
    samples = {name: len(replays) for name in reported}
    samples.update(dict.fromkeys(("process.start_s", "process.import_s",
                                  "process.numpy_import_s"), PROBE_REPEATS))
    return {
        "metrics": {name: (table[name], layer_unit(name), samples[name]) for name in reported},
        "layers": table,
        "calls_repeat": calls_repeat,
        "replays": [{k: v for k, v in r.items() if k != "records"} for r in replays],
        "records": [c for r in replays for c in r["records"]],
    }


# ---------------------------------------------------------------------------
# reference values


def write_reference() -> None:
    """Freeze each command's semantic fields and stdout digest into expected.json.

    Values the oracles in tests/oracles.py give cheaply are confirmed first.
    """
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    env = child_env()
    commands = {}
    for workload in WORKLOADS.values():
        for args in workload.commands:
            child = run_child(cli_argv(args), COMMAND_TIMEOUT_S, env)
            fields = summarize(json.loads(child.stdout))
            if child.returncode != fields["exit_code"]:
                sys.exit(f"{command_key(args)}: exit {child.returncode} disagrees with its report")
            confirm_with_oracles(args, fields)
            commands[command_key(args)] = {
                "exit_code": child.returncode,
                "fields": fields,
                "stdout_sha256": sha256(child.stdout),
            }
            print(f"{command_key(args)}: {fields}", file=sys.stderr)
    with open(EXPECTED, "w") as fh:
        json.dump({"commands": commands}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def confirm_with_oracles(args, fields: dict) -> None:
    import oracles
    from plesken_lab import group_from_name, hat
    from workloads import digest

    verb = args[0]
    checked = None
    if verb == "plesken":
        G = group_from_name(args[1])
        rows = [[hat(G, g).coefficient(x).re for x in range(G.order)] for g in range(G.order)]
        checked = ("dim", oracles.exact_rank(rows))
    elif verb == "homs":
        G, H = group_from_name(args[1]), group_from_name(args[2])
        if H.order ** G.order <= 10**5:
            tables = oracles.all_hom_tables(G, H)
            checked = ("images_sha256", digest([list(t) for t in tables]))
    elif verb == "functor":
        G = group_from_name(args[-1])
        if G.order <= 12:
            checked = ("objects", len(oracles.all_subgroup_sets(G)))
    if checked is not None and fields[checked[0]] != checked[1]:
        sys.exit(f"{command_key(args)}: {checked[0]} {fields[checked[0]]!r} "
                 f"disagrees with the oracle's {checked[1]!r}")


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, expected, env, deadline):
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    if trace:
        result = measure_traced(workload, rng, seconds, expected, env, deadline)
    else:
        result = measure(workload, rng, seconds, expected, env, deadline)
    records = result.pop("records")
    failures = [r for r in records if not r["ok"]]
    changed = sorted({
        r["command"] for r in records
        if "stdout_sha256" in r and r["stdout_sha256"] != expected[r["command"]]["stdout_sha256"]
    })
    result.update(
        workload=name, seed=seed, seconds=seconds, trace=int(trace),
        attempted=len(records), failed=len(failures),
        fail_ratio=len(failures) / len(records), failures=failures,
        stdout_changed=changed,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rerun every command and rewrite expected.json")
    args = parser.parse_args(argv)

    if not (SRC / "plesken_lab" / "__init__.py").is_file():
        print(f"error: no plesken_lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if not EXPECTED.is_file():
        print(f"error: {EXPECTED} is missing; run with --write-reference", file=sys.stderr)
        return 2
    expected = load_expected()
    env = child_env()
    host = host_record(probe_program(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    RESULTS.mkdir(exist_ok=True)
    results = []
    for name in names:
        deadline = time.perf_counter() + RUN_DEADLINE_S
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              expected, env, deadline)
        result["host"] = host
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        for metric, (value, unit, n) in result["metrics"].items():
            print(f"{name:15s} {metric:40s} {value:14.6f} {unit:6s} n={n}")
        print(f"{name:15s} {'fail_ratio':40s} {result['fail_ratio']:14.6f} {'':6s} "
              f"n={result['attempted']}")
        for failure in result["failures"]:
            print(f"FAILED {failure['command']}: {failure['reason']}", file=sys.stderr)
        for key in result["stdout_changed"]:
            print(f"note: stdout of {key!r} differs from the reference digest", file=sys.stderr)
        if not result.get("calls_repeat", True):
            print("note: call counts differ between traced replays", file=sys.stderr)
        results.append(result)

    prefix = len(results) > 1
    line = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{m}" if prefix else m): {"value": v, "unit": u}
            for r in results for m, (v, u, _) in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
