"""In-memory span tracer for the benchmark's traced passes.

A span is the list ``[name, start, end, parent, note]``: ``start`` and
``end`` are ``time.perf_counter`` readings, ``parent`` is the index of the
enclosing span (-1 at the root) and ``note`` is whatever the site's note
function extracted from the call's arguments and result (a step count, a
sweep count, a bank name). Spans stay in memory and are written out once,
when the benchmark ends.

Functions are wrapped at the module attribute their caller looks up, so
``vrgrid.cli.integrate`` is traced where ``cmd_simulate`` calls it, not at
its definition in ``vrgrid.sim``. ``uninstall`` puts every original back.
"""

import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def install(self, module, attr, name, note=None):
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def open(self, name, note=None):
        """Start a span from the benchmark's own code; close it with ``close``."""
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, note])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"], "spans": self.spans}, fh)


def summarize(spans, first, last):
    """Per-name totals over spans[first:last]: time, self time, calls, notes.

    Self time is a span's duration minus the durations of its direct
    children, so it is the time spent in that layer's own code.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _note in spans[first:last]:
        if parent >= first:
            child_time[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    notes = defaultdict(list)
    for index in range(first, last):
        name, start, end, _parent, note = spans[index]
        total[name] += end - start
        self_time[name] += end - start - child_time[index]
        calls[name] += 1
        if note is not None:
            notes[name].append(note)
    return total, self_time, calls, notes
