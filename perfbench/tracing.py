"""Spans around the public calls of carshift, installed from outside the package.

A :class:`Tracer` replaces every public function of each carshift module, and
a fixed list of methods, with a wrapper that records a span: name, start,
end, parent span and the id of the experiment run it belongs to.  Names bound
by ``from .opalg import ...`` (and aliases such as ``hardyshift._theta_terms``)
are the same function objects as the originals, so every module namespace
that holds one gets the wrapper too; otherwise calls made through those
names would go unseen.  :meth:`Tracer.installed` restores every original on
exit.  Nothing under ``src/`` is edited.
"""

import contextlib
import functools
import importlib
import inspect
import json
from time import perf_counter

MODULES = ("opalg", "fock", "quasifree", "modular", "bogoliubov", "expcalc", "hardyshift", "cli")

# (module, class, method, span name).  Only these methods are wrapped: the
# hot small methods of ExpCombo and the rest would cost more to trace than
# they take to run.
METHODS = (
    ("expcalc", "ExpCombo", "inner", "expcalc.inner"),
    ("quasifree", "DoubledRepresentation", "field", "quasifree.field"),
    ("quasifree", "DoubledRepresentation", "vacuum_expectation", "quasifree.vacuum_expectation"),
    ("hardyshift", "GridModel", "__init__", "hardyshift.GridModel"),
    ("hardyshift", "GridModel", "flow_dilation", "hardyshift.flow_dilation"),
    ("hardyshift", "GridModel", "compression_residual", "hardyshift.compression_residual"),
    ("hardyshift", "DilationOperator", "to_dense", "hardyshift.to_dense"),
    ("hardyshift", "DilationOperator", "unitarity_residual", "hardyshift.unitarity_residual"),
    ("hardyshift", "DilationOperator", "offspace_deviation", "hardyshift.offspace_deviation"),
)

# Counters taken from return values: span name -> (counter, amount of result).
# fock.mode_annihilator hands back a cached matrix, so it adds no dense bytes.
_FOCK_BUILDERS = ("annihilator", "creator", "parity", "second_quantized", "number_operator")
COUNTERS = {
    "hardyshift.to_dense": ("hardyshift.to_dense.bytes", lambda m: m.nbytes),
    "expcalc.theta_apply": ("expcalc.theta_terms", lambda combo: len(combo.terms)),
    **{"fock." + name: ("fock.dense_bytes", lambda m: m.nbytes) for name in _FOCK_BUILDERS},
}

_MARK = "__perfbench_span__"


class Tracer:
    """In-memory span recorder.  Spans are ``[name, start, end, parent, run]``."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.run_id = None
        self.names = set()
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = COUNTERS.get(name)
        self.names.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                key, amount = counter
                counters[key] = counters.get(key, 0) + amount(result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch carshift for the duration of the block, then restore it."""
        modules = _modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        saved = []
        try:
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        saved.append((mod, attr, obj))
                        setattr(mod, attr, wrappers[id(obj)])
            for mod_name, cls_name, meth, span_name in METHODS:
                cls = getattr(importlib.import_module("carshift." + mod_name), cls_name)
                original = cls.__dict__[meth]
                saved.append((cls, meth, original))
                setattr(cls, meth, self.wrap(span_name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def _modules():
    return [importlib.import_module("carshift." + name) for name in MODULES]


def summarize(spans):
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    Self time is a span's duration minus the part of it that its direct
    children cover; children of one synchronous call never overlap, so that
    part is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[idx]
    return out


def leftover_wrappers():
    """Names in carshift that still hold a wrapper (empty after a clean restore)."""
    found = []
    for mod in _modules():
        for attr, obj in vars(mod).items():
            if hasattr(obj, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{attr}.{m}" for m, v in vars(obj).items()
                          if hasattr(v, _MARK)]
    return found
