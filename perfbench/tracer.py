"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: every timed public function is
replaced, in each ``cywps`` module that holds it by name, with a wrapper that
appends one span ``[name, start, end, parent, input_id, value]`` to a list.
``parent`` is the index of the enclosing span (-1 at top level), ``input_id``
names the benchmark input whose call caused it, and ``value`` carries the
truth of a predicate's result (for ``.pass`` counts) or the number of input
points of a hull (for ``.points``).  Nothing is written until the pass ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# module -> timed public functions; methods are given as "Class.method"
TARGETS = {
    "quasismooth": ("census", "is_transverse", "has_ip_property"),
    "wps": ("weight_flags", "mirror_lattice", "newton_points", "newton_hull"),
    "euler": (
        "mirror_test",
        "vafa_double_sum",
        "vafa_subset_sum",
        "stringy_mirror_closed",
        "stringy_polytope",
        "stringy_reflexive",
    ),
    "polytope": (
        "hull_with_faces",
        "Polytope.faces",
        "face_volume",
        "normal_cone_section",
        "fano_classification",
        "lattice_points",
        "bracket",
        "dual_polytope",
    ),
    "exact": (
        "rat_rank",
        "rat_nullspace",
        "rat_solve",
        "rat_det",
        "smith_normal_form",
        "unimodular_inverse",
        "primitive_vector",
    ),
    "cli": ("main",),
}

# predicates whose true results are counted as ``.pass``
PREDICATES = {
    "quasismooth.is_transverse": bool,
    "quasismooth.has_ip_property": bool,
    "wps.weight_flags": lambda flags: bool(flags[0]),  # well-formed
}

# functions that also report ``.self_s``
SELF_TIMED = (
    "quasismooth.has_ip_property",
    "polytope.hull_with_faces",
    "euler.stringy_polytope",
    "polytope.face_volume",
)


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in printed order."""
    specs = [
        ("quasismooth.census.self_s", "s", "lower"),
        ("quasismooth.census.candidates", "count", "lower"),
        ("quasismooth.census.useful_ratio", "ratio", "higher"),
    ]
    for module, names in TARGETS.items():
        for fn in names:
            name = f"{module}.{fn}"
            if name in ("quasismooth.census", "cli.main", "euler.mirror_test"):
                continue
            specs.append((f"{name}.calls", "count", "lower"))
            specs.append((f"{name}.time_s", "s", "lower"))
            if name in PREDICATES:
                specs.append((f"{name}.pass", "count", "higher"))
            if name in SELF_TIMED:
                specs.append((f"{name}.self_s", "s", "lower"))
            if name == "polytope.hull_with_faces":
                specs.append((f"{name}.points", "count", "lower"))
    specs += [
        ("exact.time_s", "s", "lower"),
        ("euler.mirror_test.self_s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace_overhead_s", "s", "lower"),
    ]
    return specs


class Recorder:
    """Holds the spans of one process and the wrappers that record them.

    The wrappers stay installed until the process exits."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.input_id: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        flag = PREDICATES.get(name)
        count_points = name == "polytope.hull_with_faces"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            value = None
            if count_points:
                args = (list(args[0]), *args[1:])
                value = len(args[0])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.input_id, value]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if flag is not None:
                span[5] = flag(result)
            return result

        return traced

    def install(self) -> None:
        """Patch every timed function in every loaded ``cywps`` module."""
        modules = [m for key, m in sys.modules.items() if key == "cywps" or key.startswith("cywps.")]
        for module, names in TARGETS.items():
            home = sys.modules[f"cywps.{module}"]
            for fn in names:
                name = f"{module}.{fn}"
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
                    continue
                original = getattr(home, fn)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        keys = ("name", "start", "end", "parent", "input", "value")
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans: list[list], groups: list[str]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one process's spans, and for each input group
    (``groups[input_id]``) the self and inclusive time of every function,
    as ``{group: {"self_s": {...}, "time_s": {...}}}``.

    ``useful_ratio`` and ``trace_overhead_s`` need the outputs and the
    untraced pass, so the caller fills them in."""
    n = len(spans)
    child_time = [0.0] * n
    in_census = [False] * n
    in_exact = [False] * n
    outer = [True] * n  # no ancestor of the same name (recursion counted once)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            pname = spans[parent][0]
            in_census[i] = in_census[parent] or pname == "quasismooth.census"
            in_exact[i] = in_exact[parent] or pname.startswith("exact.")
            j = parent
            while j >= 0:
                if spans[j][0] == name:
                    outer[i] = False
                    break
                j = spans[j][3]

    calls: dict[str, int] = defaultdict(int)
    time_s: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    passed: dict[str, int] = defaultdict(int)
    points = 0
    candidates = 0
    exact_time = 0.0
    by_group: dict[str, dict] = defaultdict(
        lambda: {"self_s": defaultdict(float), "time_s": defaultdict(float)})
    for i, (name, start, end, _, input_id, value) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        self_s[name] += dur - child_time[i]
        group = by_group[groups[input_id]]
        group["self_s"][name] += dur - child_time[i]
        if outer[i]:
            time_s[name] += dur
            group["time_s"][name] += dur
        if value is True:
            passed[name] += 1
        if name == "polytope.hull_with_faces":
            points += value
        elif name == "wps.weight_flags" and in_census[i]:
            candidates += 1
        if name.startswith("exact.") and not in_exact[i]:
            exact_time += dur

    out: dict[str, float] = {}
    for metric, _, _ in layer_metric_specs():
        name, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls[name]
        elif field == "time_s":
            out[metric] = time_s[name]
        elif field == "self_s":
            out[metric] = self_s[name]
        elif field == "pass":
            out[metric] = passed[name]
    out["polytope.hull_with_faces.points"] = points
    out["quasismooth.census.candidates"] = candidates
    out["exact.time_s"] = exact_time
    return out, {g: {k: dict(v) for k, v in times.items()} for g, times in by_group.items()}
