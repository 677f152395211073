"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions of each ``plesken_lab`` layer
and ``FiniteGroup.__init__``.  The package binds many of them with
``from .x import y``, so the wrapper replaces the function object in every
``plesken_lab.*`` namespace that holds it; ``uninstall`` puts the originals
back.  Each span records its call count, its self time (duration minus the
time covered by wrapped calls it made) and the span that called it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

LAYER_FUNCTIONS = {
    "groups": (
        "FiniteGroup",
        "build_group",
        "enumerate_homs",
        "validate_hom",
        "compose_homs",
        "enumerate_subgroups",
        "closure",
    ),
    "algebra": ("convolve", "lie_bracket", "lift_hom_bar"),
    "plesken": (
        "canonical_basis",
        "hat",
        "reduce",
        "embed",
        "plesken_bracket",
        "structure_constants",
        "lift_hom_hat",
    ),
    "functor": (
        "subgroup_category",
        "check_functor_laws",
        "check_full",
        "find_faithfulness_counterexample",
        "morphism_map",
    ),
    "cli": ("main",),
}

SPANS = tuple(f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns)
ROOT_SPAN = "<root>"


class Tracer:
    def __init__(self) -> None:
        self.calls = Counter()
        self.self_s = {name: 0.0 for name in SPANS}
        self.callers = {name: Counter() for name in SPANS}
        self.morphisms = 0  # morphisms in the homsets of every category built
        self.basis_groups = 0  # distinct groups passed to canonical_basis
        self._stack = [[ROOT_SPAN, 0.0]]
        self._seen_groups: dict[int, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    def begin_command(self) -> None:
        """Start a new command: groups seen so far no longer count as repeats."""
        self._seen_groups.clear()

    def install(self) -> None:
        layers = {
            layer: importlib.import_module(f"plesken_lab.{layer}") for layer in LAYER_FUNCTIONS
        }
        modules = [
            m for name, m in sys.modules.items()
            if name == "plesken_lab" or name.startswith("plesken_lab.")
        ]
        for layer, names in LAYER_FUNCTIONS.items():
            module = layers[layer]
            for fn in names:
                key = f"{layer}.{fn}"
                if fn == "FiniteGroup":
                    cls = module.FiniteGroup
                    self._swap(cls, "__init__", self._wrap(key, cls.__init__))
                    continue
                original = getattr(module, fn)
                wrapper = self._wrap(key, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._swap(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _observe(self, key: str, args, result) -> None:
        if key == "plesken.canonical_basis":
            group = args[0]
            if id(group) not in self._seen_groups:
                self._seen_groups[id(group)] = group  # keeps the id unique
                self.basis_groups += 1
        elif key == "functor.subgroup_category":
            self.morphisms += sum(len(h) for h in result.homsets.values())

    def _wrap(self, key: str, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        callers = self.callers[key]
        clock = time.perf_counter
        observed = key in ("plesken.canonical_basis", "functor.subgroup_category")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[key] += 1
                callers[parent[0]] += 1
                self_s[key] += dt - frame[1]
                parent[1] += dt
            if observed:
                self._observe(key, args, result)
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self seconds and waste ratios, keyed by metric name."""
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for layer, fns in LAYER_FUNCTIONS.items():
            if len(fns) > 1:
                out[f"{layer}.self_s"] = sum(self.self_s[f"{layer}.{fn}"] for fn in fns)
        validate = self.callers["groups.validate_hom"]
        out["groups.validate_hom.revalidations"] = (
            sum(validate.values()) - validate["groups.enumerate_homs"]
        )
        out["plesken.canonical_basis.rebuilds"] = (
            self.calls["plesken.canonical_basis"] - self.basis_groups
        )
        lifts = self.calls["plesken.lift_hom_hat"]
        out["functor.lifts_per_morphism"] = lifts / self.morphisms if self.morphisms else 0.0
        return out
