"""In-memory span tracer that instruments shapeseg from outside the package.

The package's modules call one another through module attributes
(``energy.heaviside_eps``, ``field.grad``, ``descent.evaluate``, ...), so
replacing those attributes with timing wrappers records every call without
touching the package source. A span is (name, start_ns, end_ns, parent
index); spans are kept in memory and written out when the benchmark ends.
A layer's self time is its span's duration minus the time covered by its
direct child spans.
"""

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start_ns, end_ns, parent index or -1)
        self.work = defaultdict(float)
        self._stack = []

    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append((name, 0, 0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _exit(self, idx, name, t0, t1):
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, self.spans[idx][3])

    @contextmanager
    def span(self, name):
        idx = self._enter(name)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(idx, name, t0, time.perf_counter_ns())

    def wrap(self, name, fn, work=None):
        """Return ``fn`` wrapped in a span; ``work(arguments, result)`` adds to a work count."""
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx, name, t0, time.perf_counter_ns())
            if work is not None:
                self.work[name] += work(sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Replace each ``(module, attribute[, work])`` target by a traced wrapper."""
        originals = []
        try:
            for module, attr, *work in targets:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                name = module.__name__.rsplit(".", 1)[-1] + "." + attr
                setattr(module, attr, self.wrap(name, fn, *work))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def layer_stats(self, step_name):
        """Per span name: calls, self_ns, total_ns and calls made inside ``step_name`` spans."""
        child_ns = [0] * len(self.spans)
        in_step = [False] * len(self.spans)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += t1 - t0
                in_step[i] = in_step[parent] or self.spans[parent][0] == step_name
        stats = defaultdict(lambda: {"calls": 0, "self_ns": 0, "total_ns": 0, "in_step": 0})
        for i, (name, t0, t1, _parent) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["total_ns"] += t1 - t0
            s["self_ns"] += t1 - t0 - child_ns[i]
            s["in_step"] += in_step[i]
        return stats

    def write_csv(self, path):
        """Write every span as ``id,parent,name,start_ns,end_ns``."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0},{t1}\n")
