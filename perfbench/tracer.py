"""Spans around calls into the program's public functions.

The wrappers are installed from outside the package: each target function
is replaced in every ``clusterscatter`` module namespace that binds it
(``from .scattering import complete_rank2`` copies the name into
``cli``), and methods are replaced on their class.  Spans stay in memory;
``snapshot`` returns the totals so far.

For each target the tracer keeps the number of calls, the inclusive time
of the outermost call (recursion is not counted twice) and the self time,
which is the span minus the spans of wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import sys
import time

#: (module, attribute path, span name, counter name or None)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("scattering", "complete_rank2", "scattering.complete_rank2", "scattering.walls"),
    ("scattering", "wall_cross", "scattering.wall_cross", None),
    ("lattice", "GradedSeries.__pow__", "lattice.GradedSeries.pow", None),
    ("brokenlines", "theta_function", "brokenlines.theta_function", None),
    ("brokenlines", "enumerate_broken_lines", "brokenlines.enumerate_broken_lines", "brokenlines.lines"),
    ("quiver", "subrep_count", "quiver.subrep_count", None),
    ("quiver", "grassmannian_counting_polynomial", "quiver.grassmannian_counting_polynomial", None),
    ("quiver", "grassmannian_euler_char", "quiver.grassmannian_euler_char", None),
    ("quiver", "caldero_chapoton", "quiver.caldero_chapoton", None),
    ("hall", "broken_line_strata", "hall.broken_line_strata", None),
    ("hall", "hn_phases", "hall.hn_phases", None),
)


def _result_size(name: str, result) -> int:
    if name == "scattering.walls":
        return len(result.walls)
    return len(result)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [span name, child seconds]
        self._active: dict[str, int] = {}

    def wrap(self, fn, name: str, counter: str | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            self._active[name] = self._active.get(name, 0) + 1
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self._active[name] -= 1
                if not self._active[name]:
                    self.inclusive[name] = self.inclusive.get(name, 0.0) + dt
                self.self_time[name] = self.self_time.get(name, 0.0) + dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
            if counter:
                self.counts[counter] = self.counts.get(counter, 0) + _result_size(counter, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target where its callers look it up."""
        import clusterscatter.cli  # noqa: F401  (loads every module)

        modules = [m for k, m in sys.modules.items() if k.startswith("clusterscatter")]
        for module_name, path, name, counter in TARGETS:
            owner = sys.modules[f"clusterscatter.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, counter)
            setattr(owner, attr, wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
        }
