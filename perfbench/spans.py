"""Outside-in tracing of the ``isomers`` layers, and its per-layer metrics.

``install`` wraps the functions named in ``SPANNED`` and ``COUNTED`` and
rebinds every name that holds one in each ``isomers`` module, so that a
``from .orbits import orbit_space`` copy in ``cli``, ``counting``,
``verify`` or ``catalog`` is traced too.  A spanned function records
(name, start, end, parent) in memory.  A counted one, a hot predicate
called up to millions of times, only bumps a counter; its time shows in
the self time of the spanned function that called it.  Nothing under
``src`` changes.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from statistics import median
from time import perf_counter

# (module, function) pairs that get a span; a layer's name is module.function.
SPANNED = (
    ("cli", "main"),
    ("catalog", "builtin"),
    ("catalog", "genetic_diagram"),
    ("catalog", "emit_dot"),
    ("perms", "generate"),
    ("perms", "conjugacy_classes"),
    ("perms", "linear_characters"),
    ("dissections", "all_tabloids"),
    ("orbits", "orbit_space"),
    ("orbits", "orbit_leq"),
    ("orbits", "orbit_cover"),
    ("orbits", "is_character_orbit"),
    ("counting", "count_scalar"),
    ("counting", "count_classes"),
    ("counting", "count_types"),
    ("counting", "count_ruch"),
    ("counting", "count_brute"),
    ("counting", "cycle_index"),
    ("counting", "build_report"),
    ("verify", "verify_counts"),
    ("verify", "verify_monotonicity"),
    ("verify", "verify_covers"),
    ("verify", "verify_references"),
)
# (module, attribute, name) of functions that only count their calls.
COUNTED = (
    ("dissections", "Dissection.__init__", "dissections.Dissection"),
    ("dissections", "Dissection.acted_by", "dissections.acted_by"),
    ("dissections", "leq_dissection", "dissections.leq_dissection"),
    ("dissections", "is_cover_tabloid", "dissections.is_cover_tabloid"),
    ("verify", "verify_skeleton", "verify.verify_skeleton"),
)

# Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("catalog.builtin.self_s", "s"),
    ("catalog.genetic_diagram.self_s", "s"),
    ("catalog.emit_dot.self_s", "s"),
    ("perms.generate.self_s", "s"),
    ("perms.generate.elements", "count"),
    ("perms.conjugacy_classes.self_s", "s"),
    ("perms.linear_characters.self_s", "s"),
    ("perms.linear_characters.calls", "count"),
    ("dissections.all_tabloids.self_s", "s"),
    ("dissections.all_tabloids.tabloids", "count"),
    ("dissections.Dissection.calls", "count"),
    ("dissections.acted_by.calls", "count"),
    ("dissections.leq_dissection.calls", "count"),
    ("dissections.is_cover_tabloid.calls", "count"),
    ("orbits.orbit_space.self_s", "s"),
    ("orbits.orbit_space.calls", "count"),
    ("orbits.orbit_space.orbits", "count"),
    ("orbits.orbit_space.memo_hit_ratio", "ratio"),
    ("orbits.orbit_leq.self_s", "s"),
    ("orbits.orbit_leq.calls", "count"),
    ("orbits.orbit_leq.true_ratio", "ratio"),
    ("orbits.orbit_cover.self_s", "s"),
    ("orbits.orbit_cover.calls", "count"),
    ("orbits.is_character_orbit.self_s", "s"),
    ("counting.count_scalar.self_s", "s"),
    ("counting.count_classes.self_s", "s"),
    ("counting.count_types.self_s", "s"),
    ("counting.count_ruch.self_s", "s"),
    ("counting.count_brute.self_s", "s"),
    ("counting.cycle_index.self_s", "s"),
    ("counting.build_report.calls", "count"),
    ("verify.verify_counts.self_s", "s"),
    ("verify.verify_monotonicity.self_s", "s"),
    ("verify.verify_covers.self_s", "s"),
    ("verify.verify_references.self_s", "s"),
    ("verify.checks_run", "count"),
    ("verify.checks_skipped", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class Recorder:
    """Spans and counters of one traced process, kept in memory until ``dump``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def spanned(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        calls = name + ".calls"
        before, after = _hooks(name, counters)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, perf_counter(), parent)
                stack.pop()
            counters[calls] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counters = self.counters
        calls = name + ".calls"
        _, after = _hooks(name, counters)

        def wrapper(*args, **kwargs):
            counters[calls] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def dump(self, path: str, import_s: float):
        with open(path, "w") as fh:
            json.dump({"import_s": import_s, "names": self.names, "spans": self.spans, "counters": self.counters}, fh)


def _hooks(name: str, c: dict):
    """Counters beyond calls, as (before(args), after(result)) hooks."""

    def adder(key, measure):
        def hook(value):
            c[key] += measure(value)

        return hook

    if name == "perms.generate":
        return None, adder("perms.generate.elements", lambda group: group.order)
    if name == "dissections.all_tabloids":
        return None, adder(name + ".tabloids", len)
    if name == "orbits.orbit_space":
        # a hit: the group's memo already holds this shape's orbit space
        hit = adder(name + ".memo_hits", lambda args: ("orbit_space", args[1]) in args[0]._memo)
        return hit, adder(name + ".orbits", len)
    if name == "orbits.orbit_leq":
        return None, adder(name + ".true", bool)
    if name == "verify.verify_skeleton":

        def after(result):
            c["verify.checks_run"] += sum(ln.startswith(("ok", "FAIL")) for ln in result.lines)
            c["verify.checks_skipped"] += sum(ln.startswith("skip") for ln in result.lines)

        return None, after
    return None, None


def install(rec: Recorder):
    """Wrap the traced functions and rebind every ``isomers`` name that holds one."""
    wrapped = {}
    for module, attr in SPANNED:
        fn = getattr(sys.modules[f"isomers.{module}"], attr)
        wrapped[id(fn)] = (fn, rec.spanned(f"{module}.{attr}", fn))
    for module, attr, name in COUNTED:
        mod = sys.modules[f"isomers.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, method, rec.counted(name, getattr(cls, method)))
        else:
            fn = getattr(mod, attr)
            wrapped[id(fn)] = (fn, rec.counted(name, fn))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "isomers" and not mod_name.startswith("isomers."):
            continue
        for key, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])


# -- parent side: from span files to per-layer metrics ------------------------


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


class LayerTotals:
    """Per-layer sums over the traced requests of one pass."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.import_s: list[float] = []
        self.stdout_bytes = 0

    def add(self, trace: dict, stdout_bytes: int):
        names = trace["names"]
        spans = trace["spans"]
        for (name_id, *_), own in zip(spans, self_times(spans)):
            self.self_s[names[name_id]] += own
        for key, value in trace["counters"].items():
            self.counters[key] += value
        self.import_s.append(trace["import_s"])
        self.stdout_bytes += stdout_bytes

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric but the overhead ratio, by name."""
        c = self.counters
        out = {}
        for name, _ in PER_LAYER:
            stem, _, last = name.rpartition(".")
            if last == "self_s":
                out[name] = self.self_s[stem]
            elif name in c:
                out[name] = c[name]
        out["cli.import_s"] = median(self.import_s)
        out["cli.stdout_bytes"] = self.stdout_bytes
        out["orbits.orbit_space.memo_hit_ratio"] = _ratio(c["orbits.orbit_space.memo_hits"], c["orbits.orbit_space.calls"])
        out["orbits.orbit_leq.true_ratio"] = _ratio(c["orbits.orbit_leq.true"], c["orbits.orbit_leq.calls"])
        for name, _ in PER_LAYER:
            out.setdefault(name, 0)
        out.pop("trace.overhead_ratio")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
