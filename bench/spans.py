"""Span tracing of the cghom layers, installed from outside the package.

``Tracer.install`` replaces every public function of every ``cghom`` module,
and the public methods of ``HierarchyCache``, with a wrapper that records a
span (name, start, end, parent span) in memory.  A function is replaced in
every module namespace that binds it: ``coarsegrain`` imports ``assemble``
by name, ``ergodic`` and ``homexp`` import ``coarse_grain_cube`` by name, and
the package namespace re-exports most of them.  ``Tracer.uninstall`` puts
every original object back.

Worker processes forked while the tracer is active inherit the wrappers; an
after-fork hook gives each worker an empty span list and a finalizer that
writes the worker's spans to ``dump_dir`` when the worker exits, and
``Tracer.collect_workers`` merges those files into the parent's spans.
"""
from __future__ import annotations

import functools
import inspect
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

_CLASS_METHODS = (("coarsegrain", "HierarchyCache"),)


def _cghom_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cghom" or name.startswith("cghom."))]


class Tracer:
    """In-memory span recorder for the public functions of ``cghom``."""

    def __init__(self, dump_dir: Path):
        self.dump_dir = Path(dump_dir)
        self.active = False
        self.spans: list[list] = []   # [name, start, end, parent, extra]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._seen_cubes: set = set()
        self._fingerprints: dict = {}
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public cghom function in every namespace binding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _cghom_modules()
        wrappers = {}        # id(original) -> wrapper; originals stay alive
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for modname, clsname in _CLASS_METHODS:
            cls = getattr(sys.modules[f"cghom.{modname}"], clsname)
            for attr, obj in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(obj):
                    self._patches.append((cls, attr, obj))
                    setattr(cls, attr, self._wrap(f"{modname}.{clsname}.{attr}", obj))
        self.active = True

    def uninstall(self) -> None:
        """Put back every object ``install`` replaced."""
        self.active = False
        while self._patches:
            owner, attr, obj = self._patches.pop()
            setattr(owner, attr, obj)

    # -- recording ------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        extra = _EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            if extra is not None:
                rec[4] = extra(tracer, args, kwargs, out)
            return out

        return wrapper

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self._seen_cubes = set()
        self._fingerprints = {}

    def cube_key(self, field, cube, resolution) -> tuple:
        """Identity of one coarse-graining: field content, cube, resolution."""
        entry = self._fingerprints.get(id(field))
        if entry is None or entry[0] is not field:
            entry = (field, field.fingerprint)   # holding field keeps id unique
            self._fingerprints[id(field)] = entry
        if cube is None:                        # the whole window
            return entry[1], field.level, (0,) * field.dim, int(resolution)
        return entry[1], cube.level, tuple(cube.offset), int(resolution)

    # -- worker processes -----------------------------------------------

    def _after_fork(self) -> None:
        if not self.active:
            return
        self.reset()
        multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        path = self.dump_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans))

    def collect_workers(self) -> None:
        """Merge the workers' span files into this process's spans."""
        for path in sorted(self.dump_dir.glob("spans-*.json")):
            base = len(self.spans)
            for name, t0, t1, parent, extra in json.loads(path.read_text()):
                self.spans.append([name, t0, t1,
                                   parent + base if parent >= 0 else -1, extra])
            path.unlink()


def _assemble_extra(tracer, args, kwargs, op):
    return {"unknowns": int(op.N)}


def _maximize_extra(tracer, args, kwargs, out):
    pairs = args[1] if len(args) > 1 else kwargs["pairs"]
    return {"loads": len(pairs)}


def _cube_extra(tracer, args, kwargs, out):
    field = args[0] if args else kwargs["field"]
    cube = args[1] if len(args) > 1 else kwargs.get("cube")
    res = args[2] if len(args) > 2 else kwargs.get("resolution", 1)
    key = tracer.cube_key(field, cube, res)
    repeat = key in tracer._seen_cubes
    tracer._seen_cubes.add(key)
    return {"repeats": int(repeat)}


def _half_lattice_extra(tracer, args, kwargs, mats):
    return {"cubes": int(len(mats))}


_EXTRAS = {
    "solver.assemble": _assemble_extra,
    "solver.maximize_J_backend": _maximize_extra,
    "coarsegrain.coarse_grain_cube": _cube_extra,
    "homexp.half_lattice_matrices": _half_lattice_extra,
}


def summarize(spans: list[list]) -> dict:
    """Per-name inclusive time, self time, calls and summed counters.

    Inclusive time counts only the outermost span of a name, so a function
    reached again below itself is not counted twice.  Self time subtracts
    the direct children's durations.
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict = {}
    for i, (name, t0, t1, parent, extra) in enumerate(spans):
        row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += (t1 - t0) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["s"] += t1 - t0
        for key, val in (extra or {}).items():
            row[key] = row.get(key, 0) + val
    return out
