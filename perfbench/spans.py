"""In-memory span tracing of the lazystates modules, from outside `src/`.

`Tracer.install()` replaces every public function of every lazystates module
with a wrapper that records a span (id, parent, op, name, start, end).  It
replaces each binding of the function, so a name re-bound by an importing
module (`classify.herm_eig`, `fano.svd3`, the package's own re-exports) is
traced too; otherwise calls through that name would be missed.
`uninstall()` puts the original functions back.

Span times are CPU time of the tracing thread (`time.thread_time_ns`), like
the benchmark's op times, so time the virtual machine spends descheduled
does not land in whatever span happened to be open.  Only the thread that
installed the tracer records spans, so a worker pool inside the program
cannot interleave spans on the parent stack.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import pkgutil
import threading
import time
from collections import defaultdict

ROOT = "op"


def lazystates_modules():
    package = importlib.import_module("lazystates")
    names = sorted(m.name for m in pkgutil.iter_modules(package.__path__, "lazystates."))
    return [package] + [importlib.import_module(n) for n in names if n != "lazystates.__main__"]


class Tracer:
    def __init__(self, hooks=None):
        self.names = []  # span name per name id
        self.spans = []  # (id, parent, op, name id, start ns, end ns)
        self._stack = []
        self._patches = []
        self._thread = threading.get_ident()
        # span name -> callback(args, kwargs, result), for counters kept at
        # the same boundary as the span
        self._hooks = hooks or {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _record(self, name_id, fn, args, kwargs):
        if threading.get_ident() != self._thread:
            return fn(*args, **kwargs)
        stack = self._stack
        sid = len(self.spans)
        parent = stack[-1][0] if stack else -1
        op = stack[0][0] if stack else sid
        self.spans.append(None)
        stack.append((sid, op))
        start = time.thread_time_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.thread_time_ns()
            stack.pop()
            self.spans[sid] = (sid, parent, op, name_id, start, end)

    def wrap(self, fn, name):
        name_id = self._name_id(name)
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._record(name_id, fn, args, kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def op(self, fn):
        """Wrap one workload operation as a root span."""
        return self.wrap(fn, ROOT)

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = lazystates_modules()
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__.startswith("lazystates.")
                    and obj not in wrappers
                ):
                    short = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self.wrap(obj, f"{short}.{obj.__name__}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive ns and self ns.

        Self time is a span's duration minus the durations of its direct
        children; spans on one thread nest, so children never overlap.
        """
        child_ns = defaultdict(int)
        for sid, parent, _op, _name, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for sid, _parent, _op, name, start, end in self.spans:
            row = out[self.names[name]]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[sid]
        return {name: tuple(row) for name, row in out.items()}

    def inclusive_under(self, name, parent_name):
        """Inclusive ns of spans `name` whose direct parent is `parent_name`."""
        by_id = {s[0]: s for s in self.spans}
        total = 0
        for sid, parent, _op, nid, start, end in self.spans:
            if self.names[nid] == name and parent >= 0:
                if self.names[by_id[parent][3]] == parent_name:
                    total += end - start
        return total

    def write(self, path):
        """Write the spans as gzip JSON lines: a header, then one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fp:
            fp.write(json.dumps({"fields": ["id", "parent", "op", "name", "start_cpu_ns",
                                             "end_cpu_ns"]}))
            fp.write("\n")
            for sid, parent, op, name, start, end in self.spans:
                fp.write(json.dumps([sid, parent, op, self.names[name], start, end]))
                fp.write("\n")
