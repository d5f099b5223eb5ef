"""Spans around the calls into splittrap's layers, recorded from outside the package.

``install`` replaces the public functions named in ``TARGETS`` with
wrappers, in every splittrap module that holds them (``cli`` imports some
by name).  It also wraps the matvec function from which ``dvr`` builds
the operator it hands to its eigensolver, so that every Hamiltonian
application is a span and the operator gains no layer.  Spans are
(name, start, end, parent) rows kept in flat arrays and written out once,
by ``dump``.  A span's self time is its duration minus the durations of
its direct children; calls in this process never overlap, so the
children of a span cover disjoint parts of it.
"""

import functools
import sys
import time
from array import array

import numpy as np


def _kummer_u_points(tracer, args, kwargs, result):
    z = args[2] if len(args) > 2 else kwargs["z"]
    tracer.add("specfun.kummer_u.points", np.size(z))


def _rspd_flops(tracer, args, kwargs, result):
    n = result.values.shape[0]
    tracer.add("tonks.tonks_rspd.flops", 2 * n**3)


def _retained(tracer, args, kwargs, result):
    tracer.add("analysis.momentum_distribution.retained_orbitals", result.retained_orbitals)


# (module, public function, extra counter)
TARGETS = (
    ("specfun", "gamma", None),
    ("specfun", "kummer_u", _kummer_u_points),
    ("single_particle", "even_energy", None),
    ("single_particle", "even_state", None),
    ("single_particle", "eigenfunction", None),
    ("tonks", "tonks_rspd", _rspd_flops),
    ("dvr", "ground_state", None),
    ("analysis", "rspd_from_state", None),
    ("analysis", "natural_orbitals", None),
    ("analysis", "momentum_distribution", _retained),
    ("cli", "run_sweep", None),
)


class Tracer:
    def __init__(self):
        self._ids = {}  # span name -> id, in order of first use
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = {}

    def open(self, name):
        idx = len(self.start)
        self.name_id.append(self._ids.setdefault(name, len(self._ids)))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, counter, amount):
        self.counts[counter] = self.counts.get(counter, 0) + int(amount)

    def wrap(self, name, fn, tally=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if tally is not None:
                tally(self, args, kwargs, result)
            return result

        return traced

    def metrics(self):
        """``<span>.calls`` and ``<span>.self_s`` for every span name, plus the counters."""
        name_id = np.frombuffer(self.name_id, dtype=np.int_)
        parent = np.frombuffer(self.parent, dtype=np.int_)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
        self_s = np.bincount(name_id, weights=duration - covered, minlength=len(self._ids))
        calls = np.bincount(name_id, minlength=len(self._ids))
        out = dict(self.counts)
        for i, name in enumerate(self._ids):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        return out

    def dump(self, path):
        np.savez(
            path,
            names=np.array(list(self._ids)),
            name_id=np.frombuffer(self.name_id, dtype=np.int_),
            parent=np.frombuffer(self.parent, dtype=np.int_),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def install(tracer):
    """Wrap every target in the loaded splittrap modules; call after importing splittrap.cli."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "splittrap"]
    for module_name, attr, tally in TARGETS:
        original = getattr(sys.modules[f"splittrap.{module_name}"], attr)
        wrapper = tracer.wrap(f"{module_name}.{attr}", original, tally)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    _wrap_eigensolver(tracer, sys.modules["splittrap.dvr"])


def _wrap_eigensolver(tracer, dvr):
    operator = dvr.LinearOperator

    def linear_operator(shape, matvec, *args, **kwargs):
        return operator(shape, tracer.wrap("dvr.matvec", matvec), *args, **kwargs)

    dvr.LinearOperator = linear_operator
    dvr.eigsh = tracer.wrap("dvr.eigensolver", dvr.eigsh)
