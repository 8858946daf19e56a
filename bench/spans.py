"""Spans around the public functions of each setfam layer.

The tracer replaces each listed function at every setfam module that binds
it (``piercing.max_disjoint`` as well as ``pq.max_disjoint``), so nested
calls get spans of their own. A span holds its name, start, end, parent and
the phase it ran in (one set-up or one pass), and its self time: its
duration minus the time its child spans cover. Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import time
from pathlib import Path

LAYERS = {
    "family": (
        "parse_family",
        "serialize_family",
        "family_to_dict",
        "family_from_dict",
        "boolean_atoms",
        "point_signature",
    ),
    "shatter": ("dual_shatter", "growth_profile"),
    "pq": ("max_disjoint", "has_pq"),
    "piercing": ("transversal_exact", "transversal_greedy", "verify_partition"),
    "witness": ("build_quadratic_witness", "verify_witness", "candidate_sets"),
    "generators": ("gen_intervals", "gen_random", "gen_halfplane_grid", "gen_witness_rich"),
    "cli": ("main",),
}

NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int | None, float, float, str, float]] = []
        self.phase = ""
        self._ids = itertools.count()
        # Open spans: [span id, name, start, time covered by child spans].
        self._stack: list[list] = []

    def install(self) -> None:
        """Wrap every listed function wherever a loaded setfam module binds it."""
        modules = [m for name, m in sys.modules.items() if name == "setfam" or name.startswith("setfam.")]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"setfam.{layer}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapped = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            frame = [span_id, name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[2]
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[3] += duration
                self.spans.append(
                    (span_id, name, parent[0] if parent else None, frame[2], end, self.phase, duration - frame[3])
                )

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps(["id", "name", "parent", "start", "end", "phase", "self_s"]) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
