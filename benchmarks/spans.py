"""In-memory spans around the public functions of each relbosons module.

The functions are wrapped from outside: :meth:`Tracer.install` replaces
every module-level reference to a target function in the loaded
``relbosons`` modules (``from .numkernel import tridiag_ground`` makes
copies of the name) and :meth:`Tracer.uninstall` puts the originals
back.  A span is (layer, start, end, parent index); counters attached to
a target read its arguments or result.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function name, layer); a layer may cover several functions
TARGETS = [
    ("relbosons.cli", "run", "cli.run"),
    ("relbosons.cli", "write_csv", "cli.write"),
    ("relbosons.cli", "atomic_write", "cli.write"),
    ("relbosons.eigensolver", "gamma_curve", "eigensolver.gamma_curve"),
    ("relbosons.eigensolver", "solve_ground_fd", "eigensolver.fd"),
    ("relbosons.eigensolver", "solve_ground_shooting", "eigensolver.shooting"),
    # private, but it is the unit of work of shooting: one Numerov sweep
    ("relbosons.eigensolver", "_numerov_mismatch", "eigensolver.numerov_sweep"),
    ("relbosons.numkernel", "tridiag_ground", "numkernel.tridiag_ground"),
    ("relbosons.numkernel", "minimize_functional", "numkernel.minimize"),
    ("relbosons.potentials", "effective_potential", "potentials.effective_potential"),
    ("relbosons.kg_fields", "scan_density", "kg_fields.scan_density"),
    ("relbosons.kg_fields", "packet_fields", "kg_fields.packet_fields"),
    ("relbosons.kg_fields", "state_fields_from_momentum", "kg_fields.state_fields"),
    ("relbosons.variational", "minimize_transverse_massless",
     "variational.minimize_transverse"),
    ("relbosons.variational", "dispersion_pair", "variational.dispersion_pair"),
    ("relbosons.variational", "separation_oracle", "variational.separation_oracle"),
    ("relbosons.variational", "check_connection", "variational.check_connection"),
    ("relbosons.verify", "run_verify", "verify.run_verify"),
]


def _count_radii(args, kwargs, result):
    radii = args[1] if len(args) > 1 else kwargs["radii"]
    return {"kg_fields.radii": len(radii), "kg_fields.failed_radii": len(result[3])}


def _count_iterations(args, kwargs, result):
    return {"numkernel.minimize_iters": result.iterations}


COUNTERS = {
    "kg_fields.packet_fields": _count_radii,
    "numkernel.minimize": _count_iterations,
}


class Tracer:
    """Records spans and counts while installed; holds them in memory."""

    def __init__(self):
        self.spans = []          # [layer, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patched = []       # (module, attribute, original)

    def _wrap(self, layer, fn):
        counter = COUNTERS.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, clock(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = clock()
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> list:
        """Wrap every target that exists; returns the targets that do not."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "relbosons" or name.startswith("relbosons.")]
        missing = []
        for module_name, attr, layer in TARGETS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(layer, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, key, fn))
                        setattr(module, key, wrapper)
        return missing

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()


def layer_times(spans) -> dict:
    """{layer: (time, self time, spans)} from a list of spans.

    A layer's time counts only its outermost spans, so a layer that calls
    itself is not counted twice.  Its self time is that time minus the
    part covered by spans of other layers called from it.
    """
    children = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    out = {}
    for i, (layer, start, end, parent) in enumerate(spans):
        total, self_time, n = out.get(layer, (0.0, 0.0, 0))
        outermost = True
        p = parent
        while p >= 0:
            if spans[p][0] == layer:
                outermost = False
                break
            p = spans[p][3]
        if outermost:
            total += end - start
        self_time += (end - start) - children[i]
        out[layer] = (total, self_time, n + 1)
    return out
