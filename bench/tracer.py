"""Call tracing for the benchmark, kept outside the package.

`Tracer.installed` wraps the public functions of the traced layers at every
`lorentzdomains.*` module attribute bound to them.  The package's modules
import each other's functions by name (`cli` binds the stage functions,
`domain` binds `cover_mul`), so patching only the defining module would
miss most calls.

Each call of a stage-level function becomes a span (name, start, end,
parent span, case id).  The elementwise helpers of `cover`, `halfspaces`
and `disc` run hundreds of thousands of times per pass; for them only call
counts and summed self time per (parent, function) are kept.  Self time is
a call's duration minus the time its traced children took.  Everything is
kept in memory; the caller writes it out when the run ends.
"""

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("domain", "reduction", "halfspaces", "cover", "disc", "export")
AGGREGATE_ONLY = (
    "cover.",
    "halfspaces.",
    "disc.mobius_apply",
    "disc.group_mul",
    "disc.group_inv",
    "disc.rotation_about",
    "disc.hyperbolic_distance",
)
CASE_SPAN = "cli.case"


class Tracer:
    def __init__(self, observers=None):
        # observers: {"layer.function": fn(counts, args, kwargs, result)}
        self.observers = dict(observers or {})
        self.spans = []  # [id, name, start, end, parent id, case id, self_s]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.by_parent = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, self_s]
        self.counts = defaultdict(int)
        self.case = None
        # open frames: [name, span id, child seconds]
        self._stack = []
        self._next_id = 0

    @contextlib.contextmanager
    def installed(self):
        """Patch every module attribute bound to a traced public function
        for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"lorentzdomains.{layer}"]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        patches = []
        for name, module in list(sys.modules.items()):
            if name != "lorentzdomains" and not name.startswith("lorentzdomains."):
                continue
            for attr, value in vars(module).items():
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    patches.append((module, attr, value, wrapper))
        for module, attr, _, wrapper in patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in patches:
                setattr(module, attr, original)

    def case_span(self, case_id, fn, *args):
        """Run fn(*args) as the root span of one case."""
        self.case = case_id
        try:
            return self._call(CASE_SPAN, fn, args, {}, aggregate=False)
        finally:
            self.case = None

    def _wrap(self, name, fn):
        aggregate = name.startswith(AGGREGATE_ONLY)
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._call(name, fn, args, kwargs, aggregate)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    def _call(self, name, fn, args, kwargs, aggregate):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = None
        if not aggregate:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, span_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            own = duration - frame[2]
            if parent is not None:
                parent[2] += duration
            self.calls[name] += 1
            self.self_s[name] += own
            self.total_s[name] += duration
            edge = self.by_parent[(parent[0] if parent else None, name)]
            edge[0] += 1
            edge[1] += own
            if not aggregate:
                self.spans.append(
                    [span_id, name, start, end, parent[1] if parent else None,
                     self.case, own]
                )

    def snapshot(self):
        """Totals so far, in a form that JSON can hold."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
        }

    def dump(self):
        return {
            "spans_fields": ["id", "name", "start", "end", "parent", "case", "self_s"],
            "spans": self.spans,
            "by_parent": [
                {"parent": parent, "name": name, "calls": calls, "self_s": own}
                for (parent, name), (calls, own) in sorted(
                    self.by_parent.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
                )
            ],
        }
