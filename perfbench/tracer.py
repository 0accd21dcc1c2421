"""Span tracing of the l0rcd modules, installed from outside the package.

Every public function of ``cli``, ``solvers``, ``core``, ``approx``,
``objectives`` and ``analysis`` is replaced by a recording wrapper at every
name binding it has (``l0_norm`` is bound in ``core``, ``solvers``,
``analysis``, ``cli`` and the package itself), and so are the oracle methods
and a few other methods listed in ``WRAPPED_METHODS``. Each call records a
span: name, start, end, parent span and group. A group is one solver run
(``run_named_solver``) or one enumerated support (each ``restricted_minimize``
called by ``enumerate_catalog``). Spans stay in flat arrays until the run
ends; ``Tracer.save`` writes them out.

Tiny accessors such as ``BlockPartition.block_slice`` and properties stay
unwrapped: ``l0_norm`` calls ``block_slice`` once per block, so a span there
would multiply the traced cost of every iteration by N.
"""
from __future__ import annotations

import importlib
import types
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MODULES = ("cli", "solvers", "core", "approx", "objectives", "analysis")

ORACLE_METHODS = (
    "eval",
    "full_grad",
    "make_cache",
    "value_from_cache",
    "block_grad",
    "update_cache",
    "coord_grad_shifted",
    "coord_curvature_shifted",
    "value_shifted",
)

# (module, class) -> methods wrapped on the class.
WRAPPED_METHODS = {
    ("objectives", "LeastSquaresObjective"): ORACLE_METHODS
    + ("block_lipschitz", "spectral_lipschitz", "column_lipschitz"),
    ("objectives", "LogisticL2Objective"): ORACLE_METHODS
    + ("block_lipschitz", "column_lipschitz"),
    ("core", "IterateState"): ("from_point", "objective", "refresh"),
    ("approx", "ApproxSpec"): ("mu", "curvature_bound", "validate_for_solver"),
    ("analysis", "MinimaCatalog"): ("counts", "members", "entry_for_support"),
    ("cli", "OutputWriter"): ("write_csv",),
}

# A call to one of these starts a new group and restores the old one on exit.
RUN_GROUP = "cli.run_named_solver"
# Calls of SUPPORT_GROUP directly under CATALOG each start a new group that
# lasts until the next one, so the class checks share the support's group.
CATALOG = "analysis.enumerate_catalog"
SUPPORT_GROUP = "analysis.restricted_minimize"


class Tracer:
    """Collects spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.active = False
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_group = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self._stack: list[int] = []
        self._group = 0
        self._groups = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        catalog_id = self.name_id(CATALOG)
        opens_run = name == RUN_GROUP
        opens_support = name == SUPPORT_GROUP
        restores = opens_run or name == CATALOG
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.span_t0)
            parent = stack[-1] if stack else -1
            saved_group = tracer._group
            if opens_run or (
                opens_support and parent >= 0 and tracer.span_name[parent] == catalog_id
            ):
                tracer._groups += 1
                tracer._group = tracer._groups
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent)
            tracer.span_group.append(tracer._group)
            tracer.span_t0.append(0.0)
            tracer.span_t1.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.span_t0[idx] = t0
                tracer.span_t1[idx] = t1
                if restores:
                    tracer._group = saved_group

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, with each span's self time."""
        t0 = np.frombuffer(self.span_t0, dtype=float).copy()
        t1 = np.frombuffer(self.span_t1, dtype=float).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int32).astype(np.int64)
        dur = t1 - t0
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": parent,
            "group": np.frombuffer(self.span_group, dtype=np.int32).copy(),
            "t0": t0,
            "t1": t1,
            "self": dur - covered,
        }

    def save(self, path) -> None:
        """Write the spans and the name table to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.spans())


def _home_name(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    prefix = "l0rcd."
    if not module.startswith(prefix) or module[len(prefix):] not in MODULES:
        return None
    return f"{module[len(prefix):]}.{fn.__qualname__}"


class Patches:
    """Attribute replacements that are undone in reverse order by ``restore``."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every public function at every binding, and the listed methods."""
    package = importlib.import_module("l0rcd")
    modules = [importlib.import_module(f"l0rcd.{m}") for m in MODULES]
    wrappers: dict[int, object] = {}
    for mod in [package] + modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            name = _home_name(obj)
            if name is None:
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = tracer.wrap(name, obj)
            patches.set(mod, attr, wrappers[id(obj)])
    for (mod_name, cls_name), methods in WRAPPED_METHODS.items():
        cls = getattr(importlib.import_module(f"l0rcd.{mod_name}"), cls_name)
        for meth in methods:
            raw = cls.__dict__[meth]
            name = f"{mod_name}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                patches.set(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                patches.set(cls, meth, tracer.wrap(name, raw))
