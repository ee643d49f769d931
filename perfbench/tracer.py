"""Spans around the public calls of each simplefrac layer, for the traced run.

``install`` replaces module attributes with wrappers; the package source is
not edited.  A wrapper records call count, inclusive time and the time of
spans nested inside it, so self time is their difference.  Wrappers call
straight through while the tracer is inactive, which the traced run uses to
time the same pass with and without tracing.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self._stack: list[float] = []

    def span(self, name, fn, count=None, plain=None):
        """Wrap fn in a span called name; count(counts, *args) adds counters;
        plain, when given, is what runs while the tracer is inactive."""
        tracer = self
        passthrough = fn if plain is None else plain

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return passthrough(*args, **kwargs)
            if count is not None:
                count(tracer.counts, *args, **kwargs)
            tracer._stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.calls[name] += 1
                tracer.total[name] += dt
                tracer.child[name] += tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += dt
                else:
                    tracer.root_s += dt

        return wrapper

    def self_s(self, name: str) -> float:
        return self.total[name] - self.child[name]


def _points(key):
    def count(counts, x, *_, **__):
        counts[key] += np.size(x)
    return count


class TargetWrap:
    """Instruments the solver targets, which the benchmark owns."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __call__(self, fn):
        return self.tracer.span("minimax.target", fn, _points("minimax.target_points"))

    def spline(self, fn):
        return self.tracer.span("targets.spline", fn)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the workloads reach, in each module that
    binds the name."""
    from simplefrac import _optim, bernstein, cauchy, cheb, extremal, minimax, targets

    def patch(modules, attr, name, count=None):
        wrapped = tracer.span(name, getattr(modules[0], attr), count)
        for mod in modules:
            setattr(mod, attr, wrapped)

    # cheb
    def vec_count(counts, n, x):
        counts["cheb.vec_points"] += np.size(x)

    patch((cheb, extremal, bernstein), "eval_cheb", "cheb.eval_cheb")
    patch((cheb, extremal, targets), "cheb_t", "cheb.vec", vec_count)
    patch((cheb, extremal), "cheb_u", "cheb.vec", vec_count)
    patch((cheb, extremal), "solve_t_equals", "cheb.solve_t")

    # extremal: the pole-sum kernel is LogDerivative.values_on; the closed
    # forms override it and reach it only through super()
    def values_count(counts, rho, x):
        m = np.size(x)
        counts["extremal.values_on_points"] += m
        counts["extremal.pole_point_terms"] += m * rho.degree

    extremal.LogDerivative.values_on = tracer.span(
        "extremal.values_on", extremal.LogDerivative.values_on, values_count)
    patch((extremal,), "eval_ld", "extremal.eval_ld")
    patch((extremal,), "build_candidate_unweighted", "extremal.candidate")
    patch((extremal,), "dvp_bracket", "extremal.bracket")

    # _optim: the evaluator handed to the engine is timed as a child span so
    # the engine's own time is the sup-norm span's self time
    orig_sup = _optim.supremum_on_grid

    def sup_traced(fn, grid, xtol, maxiter=500):
        counted = tracer.span("optim.supnorm_fn", fn, _points("optim.fn_points"))
        return orig_sup(counted, grid, xtol, maxiter)

    wrapped_sup = tracer.span("optim.supnorm", sup_traced, plain=orig_sup)
    for mod in (_optim, extremal, bernstein, minimax):
        mod.supremum_on_grid = wrapped_sup
    patch((_optim, minimax), "local_extrema", "optim.local_extrema")

    # minimax
    patch((minimax,), "solve_best_ld", "minimax.solve")
    patch((minimax,), "residual_alternance", "minimax.alternance")
    patch((minimax,), "certify_optimality", "minimax.certify")
    patch((minimax,), "dvp_lower_bound", "minimax.dvp_lower")

    # cauchy
    def ryser_count(counts, m):
        n = np.shape(m)[0]
        counts["cauchy.ryser_terms"] += (2**n) * n

    patch((cauchy,), "permanent_ryser", "cauchy.ryser", ryser_count)
    patch((cauchy,), "borchardt_batch", "cauchy.batch")
    patch((cauchy,), "komarov_coefficients", "cauchy.komarov")
    cauchy.CauchyPair.conditioning_flags = tracer.span(
        "cauchy.flags", cauchy.CauchyPair.conditioning_flags)

    # bernstein
    patch((bernstein,), "check_corollary", "bernstein.corollary")
    patch((bernstein,), "witness_ratio_empirical", "bernstein.witness")
