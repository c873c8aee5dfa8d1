"""Outside-in span tracer for the eqmollify benchmark.

Spans are recorded around calls into eqmollify by rebinding module and
class attributes from here, so the library itself carries no tracing
code.  A span keeps its name, start, end, parent span and thread; spans
stay in memory until the run ends and are then written out in one go.

Each thread keeps its own parent stack, because sweep stages run on a
thread pool.  A span opened in a pool thread may name its parent
explicitly (the sweep that submitted it), so self time still nests.
"""

import json
import sys
import threading
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "attrs", "error")

    def __init__(self, name, parent, attrs):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.attrs = attrs
        self.error = None
        self.start = self.end = 0.0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans.  ``rebind`` and ``set_attr`` put wrapped callables in
    place; ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    # -- spans ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """The innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name, fn, attrs=None, parent=None):
        """fn wrapped in a span; ``attrs(args, kwargs)`` seeds span attributes
        before the call, and is evaluated outside the timed interval."""
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, parent or (stack[-1] if stack else None),
                        attrs(args, kwargs) if attrs else {})
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)

        return traced

    # -- rebinding -----------------------------------------------------

    def rebind(self, original, replacement, package="eqmollify"):
        """Point every module-level alias of ``original`` in the package at
        ``replacement``.  Modules that imported the name keep their own
        reference, so rebinding the defining module alone would miss them."""
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package
                                      or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._undo.append((module, key, original))
                    hits += 1
        if hits == 0:
            raise LookupError("nothing to rebind for %r" % (original,))

    def set_attr(self, owner, key, replacement):
        """Replace a class attribute (methods are looked up on the class)."""
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, replacement)

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- output --------------------------------------------------------

    def write(self, path, origin):
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": ids.get(id(span.parent)),
                    "thread": span.thread,
                    "attrs": span.attrs,
                    "error": span.error,
                }, sort_keys=True) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.  Children on other threads may overlap each
    other, so the covered part is a union of intervals, not a sum."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for lo, hi in sorted(children.get(id(span), ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[id(span)] = span.duration - covered
    return out
