"""Outside-in layer tracer for the dotcavity package.

`Tracer.install()` replaces every module-level binding of every public
function defined under `dotcavity` with a timing wrapper.  Replacing only
the defining module would miss calls made through copies such as
`from .pole_residue import solve_poles` in `photon_state`, `cli` and
`validation`, so every `dotcavity.*` module's namespace is scanned and each
attribute that *is* a traced function object is swapped for the same
wrapper.  `uninstall()` puts the original objects back.

Each thread keeps its own span stack and its own table, so spans recorded
by `purity-map --threads N` worker threads do not corrupt the self time of
spans on the main thread.  A span's self time is its duration minus the
time covered by its direct children on the same thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

PACKAGE = "dotcavity"


class _ThreadState:
    __slots__ = ("stack", "table", "top_ns", "is_main")

    def __init__(self, is_main: bool):
        self.stack: list[list[int]] = []   # per open span: [child_ns]
        self.table: dict[str, list[int]] = {}  # key -> [calls, total_ns, self_ns]
        self.top_ns = 0                    # summed duration of top-level spans
        self.is_main = is_main


class Tracer:
    """Span recorder around the public functions of `dotcavity.*`."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.current_thread() is threading.main_thread())
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def call(self, key: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `key`."""
        st = self._state()
        frame = [0]
        st.stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter_ns() - t0
            st.stack.pop()
            rec = st.table.get(key)
            if rec is None:
                rec = st.table[key] = [0, 0, 0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[0]
            if st.stack:
                st.stack[-1][0] += dt
            else:
                st.top_ns += dt

    def totals(self) -> dict[str, list[int]]:
        """Merged [calls, total_ns, self_ns] per span key over all threads."""
        merged: dict[str, list[int]] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, rec in st.table.items():
                acc = merged.setdefault(key, [0, 0, 0])
                for i in range(3):
                    acc[i] += rec[i]
        return merged

    def worker_ns(self) -> int:
        """Summed top-level span time recorded on threads other than main."""
        with self._lock:
            return sum(st.top_ns for st in self._states if not st.is_main)

    # -- binding patch -----------------------------------------------------

    @staticmethod
    def _modules():
        return [(name, mod) for name, mod in list(sys.modules.items())
                if mod is not None
                and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    @classmethod
    def public_functions(cls) -> dict[int, tuple[str, object]]:
        """id(function) -> ("<module>.<function>", function) for every
        public top-level function defined in a loaded `dotcavity` module."""
        found: dict[int, tuple[str, object]] = {}
        for mod_name, mod in cls._modules():
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod_name
                    and obj.__qualname__ == name
                    and not name.startswith("_")
                ):
                    layer = mod_name.rsplit(".", 1)[-1]
                    found[id(obj)] = (f"{layer}.{name}", obj)
        return found

    def _wrap(self, key: str, fn):
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(key, fn, *args, **kwargs)

        return traced

    def install(self) -> int:
        """Patch every module-level binding; returns the number patched."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {fid: self._wrap(key, fn)
                    for fid, (key, fn) in self.public_functions().items()}
        for _, mod in self._modules():
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        return len(self._saved)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
