"""Outside-in tracer for the cogia benchmark.

The package's modules import each other's functions with ``from ... import``,
so a call crosses a layer boundary through the *caller's* module namespace.
The tracer therefore wraps a function at every call site: each ``cogia``
module attribute bound to a traced function is replaced by a wrapper while
the tracer is installed, and put back on exit.  ``numpy.linalg.svd`` and
``numpy.random.Philox`` are counted (not timed) the same way.

Spans (name, start, end, parent, operation id) are kept in flat integer
arrays and written out at the end; self time (a span's duration minus the
time of the wrapped calls directly inside it) is accumulated as spans close.
Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# (layer module, function) pairs wrapped at every call site
TARGETS = (
    ("scenario", "load_scenario"),
    ("scenario", "generate_channels"),
    ("numerics", "null_space_basis"),
    ("numerics", "min_norm_right_solve"),
    ("numerics", "orth_complement_vector"),
    ("numerics", "svd_factor"),
    ("alignment", "build_all"),
    ("alignment", "build_primary_precoders"),
    ("alignment", "build_corrections"),
    ("alignment", "build_secondary_precoders"),
    ("alignment", "build_primary_receivers"),
    ("alignment", "build_secondary_receivers"),
    ("alignment", "effective_channels"),
    ("alignment", "interference_report"),
    ("dof", "closed_form_feasible"),
    ("dof", "constructive_check"),
    ("rates", "waterfill_cell"),
    ("rates", "pcell_sum_rate"),
    ("rates", "scell_sum_rate"),
    ("rates", "kkt_violation"),
    ("rates", "rate_region_sweep"),
    ("cli", "main"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_rates"),
    ("cli", "_trial_kkt"),
    ("cli", "_write_csv"),
    ("cli", "_write_manifest"),
)

LAYERS = ("scenario", "numerics", "alignment", "dof", "rates", "cli")

_MARK = "__perfbench_wrapped__"


def _cogia_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cogia" or name.startswith("cogia."))]


def leftover_wrappers() -> list[str]:
    """Names of attributes that still hold a tracer wrapper."""
    found = [f"{m.__name__}.{k}" for m in _cogia_modules()
             for k, v in vars(m).items() if hasattr(v, _MARK)]
    for owner, attr in ((np.linalg, "svd"), (np.random, "Philox")):
        if hasattr(getattr(owner, attr), _MARK):
            found.append(f"{owner.__name__}.{attr}")
    return found


class Tracer:
    """Collects spans and counters while installed (use as a context manager)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return self._ids[name]

    def _span_wrapper(self, name: str, fn):
        nid = self._intern(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            self.span_end.append(0)
            frame = [idx, 0]
            stack.append(frame)
            start = perf_counter_ns()
            self.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                self.span_end[idx] = end
                self.self_ns[nid] += dur - frame[1]
                self.calls[nid] += 1
                if stack:
                    stack[-1][1] += dur

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _svd_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def svd(a, *args, **kwargs):
            shape = np.shape(a)
            counts["numpy.svd.calls"] += 1
            counts["numpy.svd.matrices"] += math.prod(shape[:-2])
            return fn(a, *args, **kwargs)

        setattr(svd, _MARK, fn)
        return svd

    def _philox_wrapper(self, cls):
        counts = self.counts

        def philox(*args, **kwargs):
            counts["scenario.philox_inits"] += 1
            return cls(*args, **kwargs)

        setattr(philox, _MARK, cls)
        return philox

    # -- install / restore -------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        # Import every layer first: a module imported while wrappers are in
        # place would copy them with ``from ... import`` and keep them.
        layers = {layer: importlib.import_module(f"cogia.{layer}") for layer in LAYERS}
        modules = _cogia_modules()
        for layer, attr in TARGETS:
            fn = getattr(layers[layer], attr)
            wrapper = self._span_wrapper(f"{layer}.{attr}", fn)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is fn:
                        self._replace(m, k, wrapper)
        self._replace(np.linalg, "svd", self._svd_wrapper(np.linalg.svd))
        self._replace(np.random, "Philox", self._philox_wrapper(np.random.Philox))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def layer_self_s(self, layer: str) -> float:
        return sum(ns for name, ns in zip(self.names, self.self_ns)
                   if name.startswith(layer + ".")) / 1e9

    def dump(self, path: Path, meta: dict) -> None:
        """Write all spans plus the name table and ``meta`` to an ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            meta=np.array(json.dumps(meta, sort_keys=True)),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
        )
