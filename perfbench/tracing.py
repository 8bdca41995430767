"""Per-layer tracing of redword, installed from outside the package.

Each public module-level function of a layer is replaced, at every name it
is looked up under (``redword.kernels.X`` as well as the names imported into
``redword.cli`` and ``redword``), by a wrapper that records a span.  Methods
of ``Word`` and ``Permutation`` are not spanned: their time counts toward
the layer that calls them, and only their constructions are counted.

A span is (start, end, layer, parent).  Each thread keeps its own span
stack; a span opened by a thread with an empty stack (a sweep's pool thread)
takes as parent the innermost open span of the main thread, which is the
sweep that started the pool.

Self time is a span's interval minus the union of its children's intervals.
While several threads run self time at the same instant, the interpreter
lock lets one of them run at a time, so that instant is shared equally among
them.  The self times of all layers therefore add up to the time covered by
the root spans.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import json
import sys
import threading
import time

# The layer of each public function of a module; (module, name) entries
# override the module's default.
MODULE_LAYERS = {
    "redword.cli": "cli",
    "redword.classes": "classes",
    "redword.singleton": "singleton.sweep",
    "redword.words": "words",
    "redword.perm": "perm",
    "redword.kernels": None,
}
FUNCTION_LAYERS = {
    ("redword.kernels", "reduced_word_list"): "kernels.list",
    ("redword.kernels", "reduced_word_count"): "kernels.count",
    ("redword.kernels", "singleton_word_list"): "kernels.singleton",
    ("redword.singleton", "check_theorem_properties"): "singleton.theorem",
    ("redword.singleton", "increasing_run_violations"): "singleton.runs",
    ("redword.singleton", "check_repeated_pinnacle_lemma"): "singleton.lemma",
}


def _count_result(layer: str, name: str, result, counts: collections.Counter) -> None:
    counts[f"{layer}.calls"] += 1
    if layer in ("kernels.list", "kernels.singleton"):
        counts[f"{layer}.words_out"] += len(result)
    if layer == "kernels.singleton" and any(result):
        counts[f"{layer}.hits"] += 1
    if name == "class_partition":
        counts["classes.words_in"] += result.total_words
        counts["classes.classes_out"] += len(result.classes)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._counters: list[collections.Counter] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def counts(self) -> collections.Counter:
        """This thread's counters; merged by ``totals``."""
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = collections.Counter()
            with self._lock:
                self._counters.append(counter)
        return counter

    def totals(self) -> collections.Counter:
        out: collections.Counter = collections.Counter()
        for counter in self._counters:
            out.update(counter)
        return out

    def open(self, layer: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            index = len(self.spans)
            self.spans.append([time.perf_counter(), None, layer, parent])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][1] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, layer: str):
        index = self.open(layer)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, layer: str):
        name = fn.__name__

        if inspect.isgeneratorfunction(fn):
            # span each resumption, not the idle time between them
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                self.counts()[f"{layer}.calls"] += 1
                inner = fn(*args, **kwargs)
                while True:
                    with self.span(layer):
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            _count_result(layer, name, result, self.counts())
            return result

        return wrapper

    def write(self, path: str) -> None:
        layers = sorted({s[2] for s in self.spans})
        index = {name: k for k, name in enumerate(layers)}
        origin = self.spans[0][0] if self.spans else 0.0
        rows = [
            [round(s - origin, 7), round(e - origin, 7), index[layer],
             -1 if parent is None else parent]
            for s, e, layer, parent in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"layers": layers, "columns": ["start_s", "end_s", "layer", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function at each of its names, and count the
    constructions of Word and Permutation, until the block ends."""
    from redword.perm import Permutation
    from redword.words import Word

    wrappers = {}
    for module_name, default in MODULE_LAYERS.items():
        module = sys.modules[module_name]
        for name, fn in vars(module).items():
            layer = FUNCTION_LAYERS.get((module_name, name), default)
            public = inspect.isfunction(fn) or inspect.isbuiltin(fn)
            if layer is None or not public or name.startswith("_"):
                continue
            if module_name != "redword.kernels" and getattr(fn, "__module__", None) != module_name:
                continue
            wrappers[id(fn)] = (fn, tracer.wrap(fn, layer))

    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "redword" and not module_name.startswith("redword."):
            continue
        for name, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                patched.append((module, name, value))
                setattr(module, name, wrappers[id(value)][1])

    for cls, key in ((Word, "words.constructed"), (Permutation, "perm.constructed")):
        original = cls.__post_init__

        def counted(self, original=original, key=key):
            tracer.counts()[key] += 1
            original(self)

        patched.append((cls, "__post_init__", original))
        cls.__post_init__ = counted
    try:
        yield
    finally:
        for owner, name, value in reversed(patched):
            setattr(owner, name, value)


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per layer; see the module docstring."""
    children: dict[int, list] = collections.defaultdict(list)
    for s, e, _, parent in spans:
        if parent is not None:
            children[parent].append((s, e))
    events = []
    for index, (s, e, layer, _) in enumerate(spans):
        cursor = s
        for cs, ce in sorted(children.get(index, ())):
            if cs > cursor:
                events += [(cursor, 1, layer), (cs, -1, layer)]
            cursor = max(cursor, ce)
        if e > cursor:
            events += [(cursor, 1, layer), (e, -1, layer)]
    events.sort(key=lambda ev: (ev[0], ev[1]))
    out: dict[str, float] = collections.defaultdict(float)
    active: collections.Counter = collections.Counter()
    running = 0
    previous = 0.0
    for t, delta, layer in events:
        if running and t > previous:
            share = (t - previous) / running
            for name, k in active.items():
                if k:
                    out[name] += share * k
        active[layer] += delta
        running += delta
        previous = t
    return dict(out)
