"""In-memory spans around the program's public names, recorded from outside.

The tracer swaps a module global for a wrapper that opens a span, calls the
original and closes the span, so every call the program makes through that
global is timed without touching the program's code.  Spans are kept in
memory as (name, start, end, parent, op) and reduced when the run ends; a
span's self time is its duration minus the durations of its direct children.
"""

import contextlib
import functools
import time


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent index, op index]
        self._open = []
        self._op = -1

    def _enter(self, name):
        if not self._open:
            self._op += 1
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._op])
        self._open.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace module globals by traced wrappers for the duration.

        targets: (module, attribute, span name) triples."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        try:
            for (mod, attr, orig), (_, _, name) in zip(saved, targets):
                setattr(mod, attr, self.wrap(orig, name))
            yield
        finally:
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)

    def totals(self):
        """{name: (calls, inclusive seconds, self seconds)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, incl, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + (end - start),
                         own + (end - start) - child[i])
        return out

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans
                if n == name]
