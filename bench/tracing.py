"""Traced-run harness: wraps ckgframes' public functions from outside.

ckgframes binds names with ``from .x import y``, so a wrapper is rebound in
every ``ckgframes.*`` module that holds the original object.  Classes are
traced by wrapping their ``__init__`` in place, so ``isinstance`` keeps
working.  The ``lapack`` layer is ckgframes' own calls into ``numpy.linalg``:
each ckgframes module's ``np`` global is swapped for a copy of numpy whose
``linalg`` carries the wrappers, so numpy calls made by the benchmark itself
stay untraced.

Spans are kept in memory as ``(name, start, end, parent, op)`` tuples.  A
span's self time is its duration minus the time its child spans cover.
The wrappers of the functions in ``RECORDED`` also keep ``(name, first
argument, result)``, so the benchmark can check those results after the
operation, outside the timed region.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

LAYERS = {
    "linalg": ("ckgframes.linalg", ("pseudo_inverse", "operator_norm", "is_psd", "loewner_gap", "range_inclusion")),
    "frames": (
        "ckgframes.frames",
        ("OperatorFamily", "frame_operator", "synthesis_matrix", "optimal_bounds", "verify_frame", "check_synthesis_range"),
    ),
    "measure": ("ckgframes.measure", ("DiscreteMeasureSpace", "refine_space")),
    "duality": ("ckgframes.duality", ("douglas_gamma", "theta_dual", "canonical_dual", "bessel_constant")),
    "perturbation": ("ckgframes.perturbation", ("verify_perturbation", "sample_condition")),
    "scenarios": ("ckgframes.scenarios", ("build_scenario", "run_config")),
    "literals": ("ckgframes.literals", ("family_to_literal", "matrix_to_literal")),
    "cli": ("ckgframes.cli", ("main",)),
}
# numpy.linalg entry points ckgframes calls; eigvalsh is counted as eigh
LAPACK = {"svd": "svd", "eigh": "eigh", "eigvalsh": "eigh", "norm": "norm"}
RECORDED = ("frames.frame_operator", "duality.douglas_gamma")


def span_names() -> list[tuple[str, str]]:
    """(layer, span name) for every traced function, in report order."""
    names = [(layer, f"{layer}.{fn}") for layer, (_, fns) in LAYERS.items() for fn in fns]
    names += [("lapack", f"lapack.{fn}") for fn in dict.fromkeys(LAPACK.values())]
    return names


class Tracer:
    """Installs span-recording wrappers and undoes them on :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list = []
        self.records: list = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        record = self.records.append if name in RECORDED else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if record is not None:
                record((name, args[0] if args else next(iter(kwargs.values())), result))
            return result

        traced.__bench_traced__ = True
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import numpy

        modules = [m for k, m in sys.modules.items() if k == "ckgframes" or k.startswith("ckgframes.")]
        for layer, (module_name, fns) in LAYERS.items():
            module = sys.modules[module_name]
            for fn_name in fns:
                original = getattr(module, fn_name)
                name = f"{layer}.{fn_name}"
                if isinstance(original, type):
                    init = original.__dict__["__init__"]
                    original.__init__ = self._wrap(name, init)
                    self._undo.append((original, "__init__", init))
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))

        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(vars(numpy.linalg))
        for fn_name, span in LAPACK.items():
            setattr(linalg, fn_name, self._wrap(f"lapack.{span}", getattr(numpy.linalg, fn_name)))
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update(vars(numpy))
        proxy.linalg = linalg
        for mod in modules:
            if vars(mod).get("np") is numpy:
                mod.np = proxy
                self._undo.append((mod, "np", numpy))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: total self seconds and call count."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child_time[index]
            calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n"
                )


def installed() -> bool:
    """True if any ckgframes module still holds a traced wrapper."""
    for key, mod in list(sys.modules.items()):
        if key != "ckgframes" and not key.startswith("ckgframes."):
            continue
        for value in vars(mod).values():
            if getattr(value, "__bench_traced__", False):
                return True
            if isinstance(value, type) and getattr(value.__dict__.get("__init__"), "__bench_traced__", False):
                return True
            if isinstance(value, types.ModuleType) and value.__name__ == "numpy" and value is not sys.modules["numpy"]:
                return True
    return False
