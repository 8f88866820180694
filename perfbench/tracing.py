"""In-memory span recorder for the traced benchmark run.

A span is a list ``[name, start, end, parent]``: ``parent`` is the index of
the span that was open when it started, or -1 for a root.  Spans are
recorded by wrappers that the recorder installs over module attributes (or
dict entries) and removes again when the recording ends, so the program
itself carries no tracing code.

Hot inner functions are counted instead of timed: a timed wrapper costs
about a microsecond per call, which blurs the split of a workload whose
steps take half a millisecond.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Recorder:
    """Spans and call counts of one traced run.

    Use as a context manager: every wrapper installed through ``patch``,
    ``time_calls`` or ``count_calls`` is removed on exit, also when the run
    raises.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counts = {}        # (name, root span index or -1) -> calls
        self._patches = []      # (owner, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- spans -------------------------------------------------------------

    def open(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, None, None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        self.spans[idx][1] = self.clock()
        return idx

    def close(self, idx):
        self.spans[idx][2] = self.clock()
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    # -- wrappers ----------------------------------------------------------

    def timed(self, fn, name):
        """``fn`` wrapped in a span; ``name`` is a string or a function of
        the call's arguments."""
        label = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(label(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def counted(self, fn, name):
        """``fn`` wrapped in a call counter keyed by the open root span."""
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, stack[0] if stack else -1)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner, key, replacement):
        """Replace attribute ``key`` of a module (or item of a dict) until
        ``restore``."""
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = replacement
        else:
            original = getattr(owner, key)
            setattr(owner, key, replacement)
        self._patches.append((owner, key, original))

    def time_calls(self, module, attr):
        """Time every call of ``module.attr`` as a span ``<module>.<attr>``."""
        self.patch(module, attr, self.timed(getattr(module, attr), _qualified(module, attr)))

    def count_calls(self, module, attr):
        """Count the calls of ``module.attr`` under ``<module>.<attr>``."""
        self.patch(module, attr, self.counted(getattr(module, attr),
                                              _qualified(module, attr)))

    def restore(self):
        """Put every replaced original back, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- output ------------------------------------------------------------

    def dump(self, path):
        """Write the spans and counts as one JSON document."""
        counts = [[name, root, calls] for (name, root), calls in self.counts.items()]
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)


def _qualified(module, attr):
    return f"{module.__name__.rpartition('.')[2]}.{attr}"


# ---------------------------------------------------------------------------
# analysis


class Tree:
    """Derived views of a finished span list (parents precede children)."""

    def __init__(self, spans):
        self.name = [s[0] for s in spans]
        self.parent = [s[3] for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        self.root = []
        for i, p in enumerate(self.parent):
            self.root.append(i if p < 0 else self.root[p])
        self.self_time = self_times(spans)

    def where(self, names, root=None, parent_names=None, outermost_of=None,
              under=None):
        """Indexes of spans named in ``names``, optionally restricted to one
        root, to a direct parent named in ``parent_names``, to spans with no
        ancestor named in ``outermost_of``, or to spans with an ancestor
        named in ``under``."""
        out = []
        for i, nm in enumerate(self.name):
            if nm not in names or (root is not None and self.root[i] != root):
                continue
            p = self.parent[i]
            if parent_names is not None and (p < 0 or self.name[p] not in parent_names):
                continue
            if outermost_of is not None and self._has_ancestor(i, outermost_of):
                continue
            if under is not None and not self._has_ancestor(i, under):
                continue
            out.append(i)
        return out

    def _has_ancestor(self, i, names):
        p = self.parent[i]
        while p >= 0:
            if self.name[p] in names:
                return True
            p = self.parent[p]
        return False

    def total(self, idxs):
        return sum(self.dur[i] for i in idxs)

    def layer_self_times(self):
        """Self time summed per layer, the span-name part before the first dot."""
        out = {}
        for name, t in zip(self.name, self.self_time):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def accounting(self, layers, wall_s):
        """How much of ``wall_s`` the self times of ``layers`` cover.  The
        rest is self time of other layers (such as the task.* spans) and
        time outside every span."""
        layer_self = self.layer_self_times()
        accounted = sum(layer_self.get(layer, 0.0) for layer in layers)
        return {"wall_s": wall_s, "accounted_s": accounted,
                "unaccounted_s": wall_s - accounted,
                "outside_spans_s": wall_s - self.total(self.roots()),
                "layer_self_s": layer_self}

    def roots(self, name=None):
        return [i for i, p in enumerate(self.parent)
                if p < 0 and (name is None or self.name[i] == name)]


def self_times(spans):
    """Per span: its duration minus the part of it that child spans cover.

    Child intervals are merged and clipped to the parent, so overlapping or
    overhanging children are not counted twice.
    """
    children = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
