"""Per-layer tracing installed from outside the package.

`Tracer.install` replaces polyhex's public functions with wrappers at every
place a caller looks them up: each polyhex module attribute that holds the
function (so `polyhex.cli.build_nanotube` and `polyhex.forms.build_nanotube`
are both covered), each field of a polyhex object that holds it (such as
`polyhex.indices.AZI.term`), and `Graph.__init__` on the class. `uninstall`
puts every original back. A target that a later version of polyhex renamed
or removed is reported as absent instead of failing the run.

Each wrapped call records a span (pass id, span id, parent span id, name,
start ns, end ns) in memory. Self time is a span's duration minus the time
its direct child spans cover; nothing in polyhex runs concurrently, so
children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = ("tubes", "graph", "indices", "forms", "cli")


def _add_edge_count(key):
    def count(counts, args, result):
        counts[key] += args[0].edge_count
    return count


def _count_generated(counts, args, result):
    counts["tubes.edges_generated"] += result.edge_count


def _count_points(counts, args, result):
    counts["forms.points_checked"] += sum(len(check.points) for check in result.checks)


# span name -> (module, attribute path, counter run on each return or None)
SPAN_TARGETS = {
    "cli.main": ("cli", "main", None),
    "forms.verify_forms": ("forms", "verify_forms", _count_points),
    "forms.fit_closed_form": ("forms", "fit_closed_form", None),
    "tubes.build_nanotube": ("tubes", "build_nanotube", _count_generated),
    "tubes.tube_edge_partition": ("tubes", "tube_edge_partition", None),
    "graph.Graph": ("graph", "Graph.__init__", _add_edge_count("graph.Graph.edges")),
    "graph.edge_partition": ("graph", "edge_partition", None),
    "indices.azi": ("indices", "azi", _add_edge_count("indices.edgewise_edges")),
    "indices.randic": ("indices", "randic", _add_edge_count("indices.edgewise_edges")),
    "indices.abc": ("indices", "abc", _add_edge_count("indices.edgewise_edges")),
    "indices.index_from_partition": ("indices", "index_from_partition", None),
}
# Per-term functions are called hundreds of thousands of times per pass,
# so they are counted without a span.
COUNT_TARGETS = {
    "indices.azi_term": ("indices", "azi_term", "indices.term_calls"),
    "indices.randic_term": ("indices", "randic_term", "indices.term_calls"),
    "indices.abc_term": ("indices", "abc_term", "indices.term_calls"),
}

# Per-layer metric -> (unit, wrapped names it is measured from). A metric is
# absent when none of its wrapped names exists.
METRICS = {
    "tubes.build_nanotube.calls": ("count", ["tubes.build_nanotube"]),
    "tubes.build_nanotube.self_s": ("s", ["tubes.build_nanotube"]),
    "tubes.edges_generated": ("count", ["tubes.build_nanotube"]),
    "tubes.tube_edge_partition.calls": ("count", ["tubes.tube_edge_partition"]),
    "tubes.tube_edge_partition.time_s": ("s", ["tubes.tube_edge_partition"]),
    "graph.Graph.calls": ("count", ["graph.Graph"]),
    "graph.Graph.time_s": ("s", ["graph.Graph"]),
    "graph.Graph.edges": ("count", ["graph.Graph"]),
    "graph.Graph.peak_alloc_mb": ("MB", ["graph.Graph"]),
    "graph.edge_partition.calls": ("count", ["graph.edge_partition"]),
    "graph.edge_partition.time_s": ("s", ["graph.edge_partition"]),
    "indices.azi.time_s": ("s", ["indices.azi"]),
    "indices.randic.time_s": ("s", ["indices.randic"]),
    "indices.abc.time_s": ("s", ["indices.abc"]),
    "indices.edgewise_edges": ("count", ["indices.azi", "indices.randic", "indices.abc"]),
    "indices.index_from_partition.calls": ("count", ["indices.index_from_partition"]),
    "indices.index_from_partition.time_s": ("s", ["indices.index_from_partition"]),
    "indices.term_calls": ("count", list(COUNT_TARGETS)),
    "indices.term_calls_per_partition_sum": ("ratio", ["indices.index_from_partition"]),
    "forms.verify_forms.time_s": ("s", ["forms.verify_forms"]),
    "forms.fit_closed_form.calls": ("count", ["forms.fit_closed_form"]),
    "forms.fit_closed_form.time_s": ("s", ["forms.fit_closed_form"]),
    "forms.oracle_builds": ("count", ["tubes.build_nanotube"]),
    "forms.points_checked": ("count", ["forms.verify_forms"]),
    "forms.points_per_oracle_build": ("ratio", ["forms.verify_forms"]),
    "cli.self_s": ("s", ["cli.main"]),
    "cli.output_bytes": ("bytes", ["cli.main"]),
    **{f"{layer}.errors": ("count", [name for name in SPAN_TARGETS if name.startswith(layer + ".")])
       for layer in LAYERS},
    "trace.overhead": ("ratio", []),
}


def _polyhex_modules() -> dict[str, object]:
    return {
        name: module
        for name, module in sys.modules.items()
        if name == "polyhex" or name.startswith("polyhex.")
    }


def _holders(modules) -> list[object]:
    """Every module, plus every polyhex-defined object stored at a module attribute."""
    holders: list[object] = []
    for module in modules.values():
        holders.append(module)
        for value in vars(module).values():
            if type(value).__module__.startswith("polyhex") and hasattr(value, "__dict__"):
                holders.append(value)
    return holders


def _resolve(modules, module: str, path: str):
    """(owner, attribute, value) for `polyhex.<module>.<path>`, or None if missing."""
    owner = modules.get(f"polyhex.{module}")
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def _assign(owner, attr: str, value) -> None:
    # object.__setattr__ also reaches fields of frozen dataclasses, but not classes
    if isinstance(owner, type):
        setattr(owner, attr, value)
    else:
        object.__setattr__(owner, attr, value)


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        _assign(owner, attr, value)

    def install(self, modules, module: str, path: str, make_wrapper) -> bool:
        """Wrap the target wherever it is held; False if it does not exist."""
        found = _resolve(modules, module, path)
        if found is None:
            return False
        owner, attr, original = found
        wrapper = make_wrapper(original)
        if "." in path:  # a class attribute such as Graph.__init__
            self.set(owner, attr, wrapper)
            return True
        for holder in _holders(modules):
            for name, value in list(vars(holder).items()):
                if value is original:
                    self.set(holder, name, wrapper)
        return True

    def restore(self) -> None:
        while self._saved:
            _assign(*self._saved.pop())


class Tracer:
    """Spans and counts for one pass, gathered by wrappers around polyhex."""

    def __init__(self, pass_id: int = 0, span_targets=SPAN_TARGETS):
        self.pass_id = pass_id
        self.span_targets = span_targets
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patches = Patches()

    def _span_wrapper(self, name: str, counter):
        layer = name.split(".", 1)[0]
        clock = time.perf_counter_ns

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._next_id += 1
                span_id = self._next_id
                parent = self._stack[-1] if self._stack else 0
                self._stack.append(span_id)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    self.counts[f"{layer}.errors"] += 1
                    raise
                finally:
                    end = clock()
                    self._stack.pop()
                    self.spans.append((self.pass_id, span_id, parent, name, start, end))
                if counter is not None:
                    try:
                        counter(self.counts, args, result)
                    except AttributeError:  # a later polyhex dropped the attribute
                        if f"{name} (counter)" not in self.absent:
                            self.absent.append(f"{name} (counter)")
                return result

            return wrapper

        return make

    def _count_wrapper(self, key: str):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def install(self) -> None:
        modules = _polyhex_modules()
        for name, (module, path, counter) in self.span_targets.items():
            if not self._patches.install(modules, module, path, self._span_wrapper(name, counter)):
                self.absent.append(name)
        for name, (module, path, key) in COUNT_TARGETS.items():
            if not self._patches.install(modules, module, path, self._count_wrapper(key)):
                self.absent.append(name)

    def uninstall(self) -> None:
        self._patches.restore()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of this pass, keyed as in METRICS (some filled in later)."""
        by_id = {span[1]: span for span in self.spans}
        child_ns: Counter[int] = Counter()
        for _, _, parent, _, start, end in self.spans:
            child_ns[parent] += end - start
        calls: Counter[str] = Counter()
        total_ns: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        oracle_builds = 0
        for _, span_id, parent, name, start, end in self.spans:
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - child_ns[span_id]
            if name == "tubes.build_nanotube":
                while parent and not by_id[parent][3].startswith("forms."):
                    parent = by_id[parent][2]
                oracle_builds += bool(parent)
        counts = self.counts
        partition_sums = calls["indices.index_from_partition"]
        points = counts["forms.points_checked"]
        return {
            "tubes.build_nanotube.calls": calls["tubes.build_nanotube"],
            "tubes.build_nanotube.self_s": self_ns["tubes.build_nanotube"] / 1e9,
            "tubes.edges_generated": counts["tubes.edges_generated"],
            "tubes.tube_edge_partition.calls": calls["tubes.tube_edge_partition"],
            "tubes.tube_edge_partition.time_s": total_ns["tubes.tube_edge_partition"] / 1e9,
            "graph.Graph.calls": calls["graph.Graph"],
            "graph.Graph.time_s": total_ns["graph.Graph"] / 1e9,
            "graph.Graph.edges": counts["graph.Graph.edges"],
            "graph.edge_partition.calls": calls["graph.edge_partition"],
            "graph.edge_partition.time_s": total_ns["graph.edge_partition"] / 1e9,
            "indices.azi.time_s": total_ns["indices.azi"] / 1e9,
            "indices.randic.time_s": total_ns["indices.randic"] / 1e9,
            "indices.abc.time_s": total_ns["indices.abc"] / 1e9,
            "indices.edgewise_edges": counts["indices.edgewise_edges"],
            "indices.index_from_partition.calls": partition_sums,
            "indices.index_from_partition.time_s": total_ns["indices.index_from_partition"] / 1e9,
            "indices.term_calls": counts["indices.term_calls"],
            "indices.term_calls_per_partition_sum": (
                counts["indices.term_calls"] / partition_sums if partition_sums else 0.0
            ),
            "forms.verify_forms.time_s": total_ns["forms.verify_forms"] / 1e9,
            "forms.fit_closed_form.calls": calls["forms.fit_closed_form"],
            "forms.fit_closed_form.time_s": total_ns["forms.fit_closed_form"] / 1e9,
            "forms.oracle_builds": oracle_builds,
            "forms.points_checked": points,
            "forms.points_per_oracle_build": points / oracle_builds if oracle_builds else 0.0,
            "cli.self_s": self_ns["cli.main"] / 1e9,
            **{f"{layer}.errors": counts[f"{layer}.errors"] for layer in LAYERS},
        }

    def absent_metrics(self) -> list[str]:
        missing = set(self.absent)
        return [
            name for name, (_, sources) in METRICS.items()
            if sources and all(source in missing for source in sources)
        ]


class AllocProbe:
    """Peak traced allocation inside each Graph construction, in its own pass.

    tracemalloc slows every allocation, so this never runs in a pass whose
    times are reported.
    """

    def __init__(self) -> None:
        self.peaks: list[int] = []
        self.absent = False
        self._patches = Patches()

    def install(self) -> None:
        module, path, _ = SPAN_TARGETS["graph.Graph"]

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

            return wrapper

        self.absent = not self._patches.install(_polyhex_modules(), module, path, make)

    def uninstall(self) -> None:
        self._patches.restore()
