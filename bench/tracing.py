"""Per-layer tracing by wrapping coneh's public functions from outside.

`install()` replaces the listed functions and methods with timing wrappers
in every coneh module that holds them; nothing under src/ is edited.  Each
wrapped call is a span.  A span's self time is its duration minus the
spans it caused, and a layer's self time is the sum over its spans.  A
call re-entering a function of the same metric (MetricCircleNumeric
delegating `counting` to its cached ExplicitSpectrum) is one call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

#: Module-level functions wrapped per layer; the layer is the coneh module.
_FUNCTIONS = {
    "cli": ["main"],
    "spectra": ["load_spectrum"],
    "growth": ["hk_bounds", "hk_staircase", "empirical_ratio_convergence",
               "weyl_ratio", "collapsed_bounds", "asymptotic_ratio",
               "cesaro_limit"],
    "eigensolver": ["certified_spectrum", "eigenvalues", "load_density"],
    "harmonics": ["I", "D", "U", "J", "frequency_identity_check",
                  "three_circles_ratio"],
    "gridcheck": ["sample_harmonic", "laplacian_residual", "convergence_order",
                  "grid_J"],
    "selftest": ["run_selftest"],
}

#: CrossSection methods, timed as layer "spectra"; counting and
#: counting_left share one metric.
_SPECTRA_METHODS = {
    "counting": "counting", "counting_left": "counting",
    "is_resonant": "is_resonant", "resonant_set_upto": "resonant_set_upto",
    "spectrum_upto": "spectrum_upto",
}
_CROSS_SECTIONS = ("CrossSection", "RoundSphere", "Circle", "ExplicitSpectrum",
                   "MetricCircleNumeric")

class Tracer:
    """In-memory span totals: calls and time per metric, self time per layer."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.max_m = 0
        self.dense_bytes = 0
        self._stack: list[list[float]] = []  # [seconds of child spans]
        self._active = Counter()

    def wrap(self, layer: str, metric: str, fn):
        key = f"{layer}.{metric}"
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outer = not self._active[key]
            self._active[key] += 1
            frame = [0.0]
            self._stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._stack.pop()
                self._active[key] -= 1
                self.self_seconds[layer] += dt - frame[0]
                if self._stack:
                    self._stack[-1][0] += dt
                if outer:
                    self.calls[key] += 1
                    self.seconds[key] += dt
        return span

    def note_operator(self, op):
        """Record the size of one dense eigensolve: the matrix is 8*m^2 bytes."""
        self.max_m = max(self.max_m, op.size)
        self.dense_bytes += 8 * op.size * op.size

    def metrics(self, per_layer: list[dict], rounds: int) -> dict:
        """The named per-layer metrics, summed over the run, per round."""
        out = {}
        for metric in per_layer:
            name = metric["name"]
            layer, _, rest = name.partition(".")
            if name == "eigensolver.max_m":
                value = float(self.max_m)
            elif name == "eigensolver.dense_bytes":
                value = self.dense_bytes / rounds
            elif rest == "self_s":
                value = self.self_seconds[layer] / rounds
            elif rest.endswith(".calls"):
                value = self.calls[f"{layer}.{rest[:-6]}"] / rounds
            else:
                value = self.seconds[f"{layer}.{rest[:-2]}"] / rounds
            out[name] = {"value": value, "unit": metric["unit"]}
        return out


def _replace_everywhere(old, new):
    """Rebind every coneh module global that refers to `old`."""
    for name, mod in list(sys.modules.items()):
        if name == "coneh" or name.startswith("coneh."):
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)


def install(tracer: Tracer):
    import coneh.eigensolver
    import coneh.spectra

    for layer, names in _FUNCTIONS.items():
        mod = sys.modules[f"coneh.{layer}"]
        for name in names:
            old = getattr(mod, name)
            _replace_everywhere(old, tracer.wrap(layer, name, old))
    eigenvalues = coneh.eigensolver.eigenvalues

    @functools.wraps(eigenvalues)
    def sized_eigenvalues(op, count):
        tracer.note_operator(op)
        return eigenvalues(op, count)
    _replace_everywhere(eigenvalues, sized_eigenvalues)

    for cls_name in _CROSS_SECTIONS:
        cls = getattr(coneh.spectra, cls_name)
        for meth, metric in _SPECTRA_METHODS.items():
            if meth in vars(cls):
                setattr(cls, meth, tracer.wrap("spectra", metric, vars(cls)[meth]))
