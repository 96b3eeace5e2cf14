"""Spans around calls into regmom, recorded from outside the program.

Each function is wrapped at the name its caller looks up (a module global or
a class attribute), so the program's source stays untouched.  A span keeps
its name, the span open when it started (its parent), its start and end in
ns, and a work count taken from the call's arguments or result.  Spans stay
in memory until ``write`` puts them in a file at the end of the run.
"""
from __future__ import annotations

import importlib.abc
import importlib.util
import sys
import time

_now = time.perf_counter_ns


class Tracer:
    """In-memory span recorder; ``close`` restores every wrapped name."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # five ints per span, flat so that no per-span object burdens the
        # garbage collector: name id, parent offset or -1, start ns, end ns, work
        self.flat: list[int] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._hooks: list[_AfterImport] = []

    def wrap(self, owner, attr: str, name: str, work=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``work(args, kwargs, result)`` returns the span's work count (rows,
        cells, values ...); None records 0.
        """
        orig = getattr(owner, attr)
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        flat, open_ = self.flat, self._open

        def traced(*args, **kwargs):
            base = len(flat)
            flat.extend((nid, open_[-1] if open_ else -1, 0, 0, 0))
            open_.append(base)
            flat[base + 2] = _now()
            try:
                result = orig(*args, **kwargs)
            finally:
                flat[base + 3] = _now()
                open_.pop()
            if work is not None:
                flat[base + 4] = int(work(args, kwargs, result))
            return result

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, orig))

    def wrap_after_import(self, module: str, attr: str, name: str, work=None) -> None:
        """Wrap ``module.attr`` now if imported, else as soon as it is.

        Keeps a lazy import lazy, so the traced run pays it where the
        untraced run does.
        """
        if module in sys.modules:
            self.wrap(sys.modules[module], attr, name, work)
            return
        hook = _AfterImport(module, lambda mod: self.wrap(mod, attr, name, work))
        self._hooks.append(hook)
        sys.meta_path.insert(0, hook)

    def close(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        for hook in self._hooks:
            if hook in sys.meta_path:
                sys.meta_path.remove(hook)
        self._hooks.clear()

    def spans(self):
        """(id, parent id or -1, name, start ns, end ns, work) per span."""
        f = self.flat
        for base in range(0, len(f), 5):
            parent = f[base + 1]
            yield (base // 5, parent // 5 if parent >= 0 else -1, self.names[f[base]],
                   f[base + 2], f[base + 3], f[base + 4])

    def summary(self) -> dict[str, dict[str, int]]:
        """Per name: calls, total ns, self ns (minus child spans), work, first ns."""
        spans = list(self.spans())
        child_ns = [0] * len(spans)
        for _, parent, _, t0, t1, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out = {n: {"calls": 0, "ns": 0, "self_ns": 0, "work": 0, "first_ns": 0}
               for n in self.names}
        for k, _, name, t0, t1, work in spans:
            s = out[name]
            if s["calls"] == 0:
                s["first_ns"] = t1 - t0
            s["calls"] += 1
            s["ns"] += t1 - t0
            s["self_ns"] += t1 - t0 - child_ns[k]
            s["work"] += work
        return out

    def write(self, path) -> None:
        """Spans as CSV: id, parent id, name, start ns, end ns, work."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,name,start_ns,end_ns,work\n")
            for span in self.spans():
                fh.write(",".join(map(str, span)) + "\n")


class _AfterImport(importlib.abc.MetaPathFinder):
    """Calls ``callback(module)`` right after ``name`` is first executed."""

    def __init__(self, name: str, callback):
        self.name = name
        self.callback = callback

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        callback = self.callback

        def exec_and_wrap(module):
            exec_module(module)
            callback(module)

        spec.loader.exec_module = exec_and_wrap
        return spec
