"""In-memory span tracing of the library's layers, for the traced run only.

Layer functions are wrapped at every module attribute that refers to them
(the package re-exports names and modules import each other's functions,
so patching one module alone would miss calls); InverseMSeries methods and
RadialMetric construction are wrapped on their classes.  The integrand
handed to integrate_interval is wrapped too, so Gauss-Legendre rule
applications ("panels") and integrand points are counted where the work
happens.  Everything is restored by uninstall().

A span is [name, start, end, parent span index, op id].  Self time is a
span's duration minus the durations of its direct children; the code is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

FUNCTIONS = (
    ("quadrature", "integrate_interval"),
    ("quadrature", "cp1_integral"),
    ("quadrature", "monomial_kernel_quadrature"),
    ("density", "section_norms"),
    ("density", "bergman_density"),
    ("density", "first_variation"),
    ("density", "scalar_curvature"),
    ("fitting", "fit_expansion"),
    ("conversion", "admissible_eigenvalue_scan"),
    ("conversion", "variation_series_eigen"),
    ("conversion", "eigen_delta_c_values"),
    ("conversion", "conversion_polynomials"),
    ("conversion", "polynomiality_criterion"),
    ("conversion", "laplacian_power_at_zero"),
    ("projective", "sigma_prime_closed_form"),
    ("projective", "first_eigenbasis"),
    ("centering", "center"),
    ("centering", "centering_residual"),
    ("centering", "build_L"),
)
METHODS = (
    ("density", "RadialMetric", "__init__", "density.RadialMetric"),
    ("ratpoly", "InverseMSeries", "reciprocal", "ratpoly.InverseMSeries.reciprocal"),
    ("ratpoly", "InverseMSeries", "__mul__", "ratpoly.InverseMSeries.mul"),
    ("ratpoly", "InverseMSeries", "__rmul__", "ratpoly.InverseMSeries.mul"),
)

# (metric, unit); every name is reported by every workload, 0 where a
# workload never reaches the layer.
LAYER_METRICS = (
    ("quadrature.integrate_interval.calls", "count"),
    ("quadrature.integrate_interval.s", "s"),
    ("quadrature.integrate_interval.panels", "count"),
    ("quadrature.integrand.points", "count"),
    ("quadrature.cp1_integral.calls", "count"),
    ("quadrature.cp1_integral.s", "s"),
    ("quadrature.cp1_integral.radial_passes", "count"),
    ("quadrature.monomial_kernel_quadrature.s", "s"),
    ("density.section_norms.calls", "count"),
    ("density.section_norms.s", "s"),
    ("density.section_norms.self_s", "s"),
    ("density.bergman_density.s", "s"),
    ("density.bergman_density.self_s", "s"),
    ("density.RadialMetric.calls", "count"),
    ("density.RadialMetric.s", "s"),
    ("density.first_variation.s", "s"),
    ("density.scalar_curvature.s", "s"),
    ("density.fs_max_rel_err", "rel"),
    ("density.tyz_resid_max", "abs"),
    ("fitting.fit_expansion.s", "s"),
    ("fitting.a1_err_max", "abs"),
    ("fitting.condition_max", "ratio"),
    ("conversion.admissible_eigenvalue_scan.s", "s"),
    ("conversion.variation_series_eigen.calls", "count"),
    ("conversion.variation_series_eigen.s", "s"),
    ("conversion.eigen_delta_c_values.calls", "count"),
    ("conversion.eigen_delta_c_values.useful_ratio", "ratio"),
    ("conversion.conversion_polynomials.s", "s"),
    ("conversion.polynomiality_criterion.s", "s"),
    ("conversion.laplacian_power_at_zero.s", "s"),
    ("ratpoly.InverseMSeries.reciprocal.calls", "count"),
    ("ratpoly.InverseMSeries.reciprocal.s", "s"),
    ("ratpoly.InverseMSeries.mul.calls", "count"),
    ("ratpoly.InverseMSeries.mul.s", "s"),
    ("projective.sigma_prime_closed_form.s", "s"),
    ("projective.first_eigenbasis.calls", "count"),
    ("centering.center.s", "s"),
    ("centering.iterations", "count"),
    ("centering.centering_residual.calls", "count"),
    ("centering.centering_residual.s", "s"),
    ("centering.build_L.calls", "count"),
    ("centering.build_L.s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans = []
        self.op = None
        self.counts = Counter()
        self.edc_args = []  # per traced pass: (n, K) of each eigen_delta_c_values call
        self._stack = []
        self._undo = []

    def begin_pass(self):
        self.edc_args.append([])

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count_integrand(self, args, kwargs):
        counts = self.counts
        f = args[0] if args else kwargs.pop("f")

        def counted(x):
            counts["quadrature.integrate_interval.panels"] += 1
            counts["quadrature.integrand.points"] += np.size(x)
            return f(x)

        return (counted,) + tuple(args[1:]), kwargs

    def _record_edc(self, args, kwargs):
        self.edc_args[-1].append(tuple(args) + tuple(sorted(kwargs.items())))
        return args, kwargs

    def _count_iterations(self, state):
        self.counts["centering.iterations"] += state.iteration

    def install(self):
        hooks = {
            "integrate_interval": {"before": self._count_integrand},
            "eigen_delta_c_values": {"before": self._record_edc},
            "center": {"after": self._count_iterations},
        }
        modules = [mod for key, mod in sys.modules.items()
                   if key == "cpnbergman" or key.startswith("cpnbergman.")]
        for module, attr in FUNCTIONS:
            original = getattr(getattr(self.lib, module), attr)
            wrapped = self._wrap(f"{module}.{attr}", original, **hooks.get(attr, {}))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapped)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(getattr(self.lib, module), cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def layer_metrics(self, passes: int, overhead_s: float, quality: dict) -> dict:
        """Per-pass means of the layer figures over the traced passes."""
        total = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        names = [s[0] for s in self.spans]
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
        radial = 0
        for i, name in enumerate(names):
            if name == "quadrature.integrate_interval":
                p = self.spans[i][3]
                while p >= 0 and names[p] != "quadrature.cp1_integral":
                    p = self.spans[p][3]
                radial += p >= 0
        ratios = [len(set(a)) / len(a) for a in self.edc_args if a]

        values = {"quadrature.cp1_integral.radial_passes": radial / passes,
                  "conversion.eigen_delta_c_values.useful_ratio":
                      sum(ratios) / len(ratios) if ratios else 0.0,
                  "trace.overhead_s": overhead_s}
        for key, count in self.counts.items():
            values[key] = count / passes
        for metric, _ in LAYER_METRICS:
            if metric in values:
                continue
            base, _, stat = metric.rpartition(".")
            if stat == "calls":
                values[metric] = calls[base] / passes
            elif stat == "s":
                values[metric] = total[base] / passes
            elif stat == "self_s":
                values[metric] = self_s[base] / passes
            else:
                values[metric] = quality.get(metric, 0.0)
        return {metric: {"value": values[metric], "unit": unit} for metric, unit in LAYER_METRICS}

    def write(self, path):
        """Write the spans out, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
