"""Spans around calls into the package's public functions.

``Tracer.install`` replaces each listed function in every ``antimark``
module namespace that binds it, so calls between modules are caught too
(``exclusion.verify_strong`` called from ``compose_union``, ``decide_antidist``
called from ``lsam.check_lsam``).  Nothing under ``src/`` changes; ``remove``
puts the originals back.

Calls run in one thread, so spans nest strictly and a span's self time is
its duration minus the durations of the spans it directly encloses.  Spans
are aggregated in memory per function; the functions in ``COUNTED`` are too
fine-grained to time without distortion and only count calls, their time
falling to the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

TIMED = {
    "simplex": ("simplex_maximize",),
    "ensembles": ("sequence_ensemble", "local_part", "restrict"),
    "exclusion": ("caves_criterion", "verify_strong", "qubit_antidist_lp",
                  "povm_from_caves_triple", "compose_union", "search_exclusion_povm",
                  "exclusion_counts", "decide_antidist"),
    "locc": ("flatten_protocol", "verify_local_protocol",
             "verify_conclusive_identification", "walgate_basis",
             "build_pairwise_lad_protocol"),
    "lsam": ("check_lsam", "verify_sequence_elimination", "theta_global_measurement",
             "theta_sequence_protocol", "sweep_theta"),
    "cli": ("main",),
}
COUNTED = {"qcore": ("min_eigenvalue", "same_up_to_phase")}
ROOT = "bench"


class Stat:
    __slots__ = ("calls", "self_s", "raised", "none")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0     # calls that ended in an exception
        self.none = 0       # calls that returned None


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []   # child time covered, per open span
        self._patches: list[tuple[object, str, object]] = []

    def _stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span (no-op while inactive)."""
        if not self.active:
            yield
            return
        stat = self._stat(name)
        stat.calls += 1
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            stat.raised += 1
            raise
        finally:
            dur = time.perf_counter() - start
            stat.self_s += dur - self._stack.pop()
            if self._stack:
                self._stack[-1] += dur

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if out is None:
                self.stats[name].none += 1
            return out
        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self._stat(name).calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for mod, names in table.items():
                owner = importlib.import_module(f"antimark.{mod}")
                for fn_name in names:
                    original = getattr(owner, fn_name)
                    self._patch(original, make(f"{mod}.{fn_name}", original))

    def _patch(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "antimark" and not mod_name.startswith("antimark."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def collecting(self, stats: dict[str, Stat]):
        """Record into ``stats`` instead of ``self.stats`` while inside."""
        saved, self.stats = self.stats, stats
        try:
            yield stats
        finally:
            self.stats = saved


def layer_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = []
    for mod, fns in TIMED.items():
        for fn in fns:
            names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"]
    for mod, fns in COUNTED.items():
        names += [f"{mod}.{fn}.calls" for fn in fns]
    names += ["exclusion.search_exclusion_povm.found_ratio",
              "exclusion.povm_from_caves_triple.failed", "trace.overhead_frac"]
    return names


def unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith((".found_ratio", ".overhead_frac")):
        return "ratio"
    return "count"
