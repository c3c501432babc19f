"""Span tracer that wraps latpack's layer functions from outside the package.

Each traced name is a module attribute.  The wrapper replaces every binding
of the original object in every loaded ``latpack`` module, so calls made from
inside the package are seen as well as calls made by the benchmark.

- Plain functions record one span per call (name, parent span, task, start,
  end) in flat arrays that stay in memory until the pass ends.
- Generator functions are counted by the items they yield, not timed.  Each
  count is keyed by the generator that was running when this one was
  created, so ball points consumed by ``half_ball_points`` can be told apart
  from ball points consumed directly.
- ``lru_cache`` functions are re-wrapped in a fresh cache of the same size
  around a timed copy of the cached function: hits stay as cheap as before,
  only misses record spans, and calls and hit ratios come from
  ``cache_info()``.

A name that no longer exists in its module is recorded as absent.
"""

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

#: Traced names as (module, attribute).  The metric prefix is the module's
#: short name plus the attribute without its leading underscore.
TARGETS = (
    ("latpack.lattice", "lll_reduce"),
    ("latpack.lattice", "shortest_vector"),
    ("latpack.lattice", "density_report"),
    ("latpack.lattice", "gram_determinant"),
    ("latpack.museq", "forbidden_values"),
    ("latpack.museq", "ball_points"),
    ("latpack.museq", "half_ball_points"),
    ("latpack.museq", "interval_obstructions"),
    ("latpack.museq", "certify"),
    ("latpack.museq", "greedy_extend"),
    ("latpack.bounds", "eval_F"),
    ("latpack.bounds", "_eval_F_exact"),
    ("latpack.bounds", "_eval_F_large"),
    ("latpack.bounds", "eval_Y"),
    ("latpack.bounds", "eval_C"),
    ("latpack.bounds", "check_theorem1"),
    ("latpack.thetaflow", "tau"),
    ("latpack.thetaflow", "psi"),
    ("latpack.thetaflow", "f_step"),
    ("latpack.thetaflow", "iterate_d"),
    ("latpack.numth", "mobius"),
    ("latpack.numth", "mobius_weight"),
    ("latpack.approx", "approximate"),
    ("latpack.approx", "verify_approximation"),
    ("latpack.approx", "saturation_determinant"),
    ("latpack.cli", "acceptance_sweep"),
    ("latpack.cli", "run"),
)


def metric_prefix(module, attr):
    return f"{module.rsplit('.', 1)[-1]}.{attr.lstrip('_')}"


class Tracer:
    """Holds the spans and counts of one traced process."""

    def __init__(self):
        self.names = []                 # span name index -> metric prefix
        self.span_name = array("i")
        self.span_parent = array("i")   # index of the parent span, -1 at a root
        self.span_task = array("i")     # index of the task span that caused it
        self.span_start = array("q")    # perf_counter_ns
        self.span_end = array("q")
        self._stack = [-1]
        self._task = -1
        self._gen_stack = []            # names of generators being resumed
        self.points = {}                # (generator name, creator name) -> items
        self.certified = 0              # shortest_vector calls with a verdict only
        self.caches = {}                # prefix -> replacement lru_cache
        self.saved_cache_counts = {}    # prefix -> (hits, misses), from load()
        self.absent = []
        self.kinds = {}

    # ---------------------------------------------------------------- spans

    def _open(self, name_idx):
        idx = len(self.span_name)
        self.span_name.append(name_idx)
        self.span_parent.append(self._stack[-1])
        self.span_task.append(self._task)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _name_index(self, prefix):
        self.names.append(prefix)
        return len(self.names) - 1

    def task(self, label):
        """Context manager for the root span of one benchmark task."""
        tracer = self

        class _Task:
            def __enter__(self):
                tracer._task = len(tracer.span_name)
                self.idx = tracer._open(tracer._name_index(f"task:{label}"))

            def __exit__(self, *exc):
                tracer._close(self.idx)
                tracer._task = -1

        return _Task()

    # -------------------------------------------------------------- wrapping

    def _wrap_call(self, prefix, fn):
        name_idx = self._name_index(prefix)
        opener, closer = self._open, self._close
        count_verdicts = prefix == "lattice.shortest_vector"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = opener(name_idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(idx)
            if count_verdicts and result[1] is None:
                tracer.certified += 1
            return result

        return wrapper

    def _wrap_generator(self, prefix, fn):
        points = self.points
        gen_stack = self._gen_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (prefix, gen_stack[-1] if gen_stack else None)
            inner = fn(*args, **kwargs)

            def counted():
                yielded = 0
                try:
                    while True:
                        gen_stack.append(prefix)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            gen_stack.pop()
                        yielded += 1
                        yield item
                finally:
                    points[key] = points.get(key, 0) + yielded

            return counted()

        return wrapper

    def _wrap_cached(self, prefix, fn):
        params = fn.cache_parameters()
        timed = self._wrap_call(prefix, fn.__wrapped__)
        cached = functools.lru_cache(
            maxsize=params["maxsize"], typed=params["typed"]
        )(timed)
        self.caches[prefix] = cached
        return cached

    def install(self):
        """Wrap every target and rebind it in every loaded latpack module."""
        for module, _ in TARGETS:
            importlib.import_module(module)
        for module, attr in TARGETS:
            prefix = metric_prefix(module, attr)
            fn = getattr(sys.modules[module], attr, None)
            if fn is None:
                self.absent.append(prefix)
                continue
            if hasattr(fn, "cache_info"):
                kind, wrapped = "cached", self._wrap_cached(prefix, fn)
            elif inspect.isgeneratorfunction(fn):
                kind, wrapped = "generator", self._wrap_generator(prefix, fn)
            else:
                kind, wrapped = "call", self._wrap_call(prefix, fn)
            self.kinds[prefix] = kind
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "latpack" or name.startswith("latpack.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    # -------------------------------------------------------------- results

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [dur[i] - child[i] for i in range(n)]

    def summary(self):
        """Aggregates per traced name, plus per-task self time by name."""
        dur, own = self.self_times()
        funcs = {
            prefix: {"kind": kind, "calls": 0, "self_ns": 0}
            for prefix, kind in self.kinds.items()
        }
        tasks = {}
        for i in range(len(self.span_name)):
            name = self.names[self.span_name[i]]
            if name.startswith("task:"):
                tasks[i] = {"task": name[5:], "total_ns": dur[i], "self_ns": {}}
                continue
            entry = funcs[name]
            entry["calls"] += 1
            entry["self_ns"] += own[i]
        for i in range(len(self.span_name)):
            t = self.span_task[i]
            if t in tasks:
                name = self.names[self.span_name[i]]
                by_name = tasks[t]["self_ns"]
                key = "other" if name.startswith("task:") else name
                by_name[key] = by_name.get(key, 0) + own[i]
        for prefix, (hits, misses) in self._cache_counts().items():
            funcs[prefix].update(calls=hits + misses, hits=hits, misses=misses)
        for (prefix, creator), count in self.points.items():
            entry = funcs[prefix]
            entry["points"] = entry.get("points", 0) + count
            if creator is not None:
                key = f"points_under:{creator}"
                entry[key] = entry.get(key, 0) + count
        if "lattice.shortest_vector" in funcs:
            funcs["lattice.shortest_vector"]["certified_verdicts"] = self.certified
        return {
            "funcs": funcs,
            "absent": list(self.absent),
            "tasks": list(tasks.values()),
            "spans": len(self.span_name),
        }

    def _cache_counts(self):
        counts = dict(self.saved_cache_counts)
        for prefix, cache in self.caches.items():
            info = cache.cache_info()
            counts[prefix] = (info.hits, info.misses)
        return counts

    _ARRAYS = ("span_name", "span_parent", "span_task", "span_start", "span_end")

    def save(self, path):
        """Cheap raw write (JSON header line, then the span arrays) for load()."""
        header = {
            "names": self.names, "kinds": self.kinds, "absent": self.absent,
            "points": [[g, c, n] for (g, c), n in self.points.items()],
            "certified": self.certified, "caches": self._cache_counts(),
            "spans": len(self.span_name),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for name in self._ARRAYS:
                getattr(self, name).tofile(handle)

    @classmethod
    def load(cls, path):
        """A tracer holding what save() wrote, ready for summary() and dump()."""
        tracer = cls()
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            for name in cls._ARRAYS:
                getattr(tracer, name).fromfile(handle, header["spans"])
        tracer.names, tracer.kinds = header["names"], header["kinds"]
        tracer.absent, tracer.certified = header["absent"], header["certified"]
        tracer.points = {(g, c): n for g, c, n in header["points"]}
        tracer.saved_cache_counts = {p: tuple(v) for p, v in header["caches"].items()}
        return tracer

    def dump(self, path):
        """Write every span (gzipped JSON) so a run can be inspected later."""
        payload = {
            "names": self.names,
            "columns": ["name", "parent", "task", "start_ns", "end_ns"],
            "spans": [
                list(self.span_name),
                list(self.span_parent),
                list(self.span_task),
                list(self.span_start),
                list(self.span_end),
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(payload, handle)
