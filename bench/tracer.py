"""Span tracer for the corrsets benchmark.

The tracer wraps the public functions of each corrsets module from the
outside, so the program under test is not edited. Modules bind each
other's functions with ``from .smallmat import ...``, so a wrapper is
installed under every name, in every corrsets module, that refers to the
original function object; otherwise calls made through those names would
go unseen.

Each call records one span: a name id, start, end and the index of the
enclosing span. Spans live in compact arrays while the run lasts and are
summarised (or written out) after it. Calls that corrsets makes into
``numpy.linalg`` are counted, not spanned.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("smallmat", "twoqubit", "geometry", "detect", "oracles", "selfcheck", "cli")

#: numpy.linalg entry points counted per metric family.
LINALG = {
    "svd": ("svd",),
    "pinv": ("pinv",),
    "det": ("det",),
    "eig": ("eig", "eigh", "eigvals", "eigvalsh"),
    "qr": ("qr",),
}

# geometry functions whose spans are split by model and number of settings.
_SPLIT = ("support", "gauge", "optimizer_z")


def public_functions():
    """{qualified name: function} for every public function of every layer."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"corrsets.{layer}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Records spans around corrsets calls while installed.

    Use as a context manager; ``span`` opens spans from the benchmark's own
    code (the root and one per op).
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self.linalg_calls = dict.fromkeys(LINALG, 0)
        self.gauge_finite = [0, 0]          # finite, total
        self.settings_calls = 0             # geometry calls given a settings object
        self.distinct_settings = 0          # counted afresh in each pass
        self._settings_seen: dict[int, weakref.ref] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager recording one span opened by the benchmark."""
        return _Span(self, self.intern(name))

    # -- installation -----------------------------------------------------

    def _wrap(self, qualname: str, fn, note_settings: bool = False):
        nid = self.intern(qualname)
        open_, close, note = self._open, self._close, self._note_settings

        def traced(*args, **kwargs):
            if note_settings:
                note(args)
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return functools.wraps(fn)(traced)

    def _note_settings(self, args) -> None:
        """Count a geometry call and whether its settings object is new."""
        for arg in args[:3]:
            if isinstance(arg, self._settings_type):
                self.settings_calls += 1
                key = id(arg)
                ref = self._settings_seen.get(key)
                if ref is None or ref() is not arg:
                    self._settings_seen[key] = weakref.ref(arg)
                    self.distinct_settings += 1
                return

    def _wrap_split(self, qualname: str, fn):
        """Span name carries model and m: ``geometry.gauge.qm.m3``."""
        ids: dict[tuple, int] = {}
        open_, close, note = self._open, self._close, self._note_settings
        is_gauge = qualname == "geometry.gauge"
        finite = self.gauge_finite

        def traced(model, s, x):
            note((s,))
            key = (model, s.a.shape[0])
            nid = ids.get(key)
            if nid is None:
                nid = ids[key] = self.intern(f"{qualname}.{model}.m{key[1]}")
            idx = open_(nid)
            try:
                out = fn(model, s, x)
            finally:
                close(idx)
            if is_gauge:
                finite[0] += out.finite
                finite[1] += 1
            return out

        return functools.wraps(fn)(traced)

    def _count(self, family: str, fn):
        counts = self.linalg_calls

        def counted(*args, **kwargs):
            counts[family] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    def install(self) -> None:
        from corrsets.geometry import MeasurementSettings

        self._settings_type = MeasurementSettings
        originals = public_functions()
        wrappers = {}
        for qualname, fn in originals.items():
            layer, short = qualname.split(".", 1)
            if layer == "geometry" and short in _SPLIT:
                wrappers[id(fn)] = self._wrap_split(qualname, fn)
            else:
                wrappers[id(fn)] = self._wrap(qualname, fn, note_settings=layer == "geometry")
        mods = [m for n, m in list(sys.modules.items())
                if n == "corrsets" or n.startswith("corrsets.")]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for family, names in LINALG.items():
            for attr in names:
                fn = getattr(np.linalg, attr)
                self._patches.append((np.linalg, attr, fn))
                setattr(np.linalg, attr, self._count(family, fn))

    def new_pass(self) -> None:
        """Start a pass over the items: settings seen so far count again."""
        self._settings_seen.clear()

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, obj = self._patches.pop()
            setattr(mod, attr, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def arrays(self):
        """(name_id, start, end, parent) as numpy arrays."""
        return (np.array(self.name_id, dtype=np.int64), np.array(self.start),
                np.array(self.end), np.array(self.parent, dtype=np.int64))

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the time covered by its direct children."""
        _, start, end, parent = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def save(self, path: str) -> None:
        """Write every span to a compressed .npz file."""
        name_id, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            start=start, end=end, parent=parent)


class _Span:
    __slots__ = ("_tracer", "_nid", "index")

    def __init__(self, tracer: Tracer, nid: int):
        self._tracer = tracer
        self._nid = nid

    def __enter__(self):
        self.index = self._tracer._open(self._nid)
        return self

    def __exit__(self, *exc):
        self._tracer._close(self.index)
        return False
