"""Spans and counts around the public functions of every bergtoep module,
recorded from outside the package.

A wrapper replaces the function at every module attribute that is bound to
it, so calls through a name imported with `from .x import f` are recorded
as well as calls through `x.f`.  Each wrapper appends one span
[id, parent id, name, start, end] to an in-memory list and returns the
wrapped function's result untouched; `dump` hands the list out when the
job ends.  Counts (points evaluated, rule nodes built, flops, ...) are
gathered after the span has closed, so their cost is not charged to the
layer.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import defaultdict

import numpy as np

import bergtoep
from bergtoep import (cli, expr, gamma, geometry, indexing, operators, oracle,
                      quadrature, symbols)

MODULES = (bergtoep, cli, expr, gamma, geometry, indexing, operators, oracle,
           quadrature, symbols)


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _dim(space) -> int:
    degree = space.m if hasattr(space, "m") else space.cap
    return math.comb(space.n + degree, space.n)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._rule_misses = 0

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _count_only(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(args, kwargs, out)
            return out

        return wrapper

    @staticmethod
    def _rebind(orig, wrapper) -> None:
        """Point every module attribute bound to orig at wrapper."""
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)

    def _wrap(self, mod, fname, name=None, after=None):
        orig = getattr(mod, fname)
        self._rebind(orig, self._span(name or f"{mod.__name__.split('.')[-1]}."
                                      f"{fname}", orig, after))

    def install(self) -> None:
        c = self.counts

        def add(key, value):
            c[key] += value

        # quadrature
        rule = quadrature.simplex_rule
        cache_info = getattr(rule, "cache_info", None)

        def rule_built(args, kwargs, out):
            if cache_info is not None:
                misses = cache_info().misses
                built, self._rule_misses = misses > self._rule_misses, misses
            else:
                built = True
            if built:
                add("quadrature.simplex_rule.builds", 1)
                add("quadrature.simplex_rule.nodes", len(out[1]))

        self._wrap(quadrature, "simplex_rule", after=rule_built)
        self._wrap(quadrature, "jacobi_rule_01")
        self._wrap(quadrature, "simplex_integrate")
        self._wrap(quadrature, "radial_integrate_projective")
        mc = quadrature.mc_integrate
        self._wrap(quadrature, "mc_integrate", after=lambda a, k, out: add(
            "quadrature.mc_integrate.samples", _arg(mc, a, k, "N")))

        # gamma
        def table_built(args, kwargs, out):
            add("gamma.build_gamma_table.entries", len(out.entries))
            add("gamma.hard_zeros",
                sum(1 for v in out.entries.values() if v == 0))

        self._wrap(gamma, "build_gamma_table", after=table_built)

        # expr: only top-level calls of the recursive evaluator count
        evaluate = expr.evaluate
        timed = self._span("expr.evaluate", evaluate, after=lambda a, k, out:
                           add("expr.evaluate.points", int(np.size(out))))
        depth = [0]

        @functools.wraps(evaluate)
        def guarded(e, env):
            if depth[0]:
                return evaluate(e, env)
            depth[0] = 1
            try:
                return timed(e, env)
            finally:
                depth[0] = 0

        self._rebind(evaluate, guarded)

        # symbols
        self._wrap(symbols, "evaluate_symbol_batch", after=lambda a, k, out:
                   add("symbols.evaluate_symbol_batch.points",
                       int(np.size(out))))

        # indexing
        self._wrap(indexing, "enumerate_basis")
        for fname in ("monomial_norm_sq_projective", "monomial_norm_sq_ball"):
            self._wrap(indexing, fname, name="indexing.monomial_norm_sq")

        # operators
        flops = "operators.matmul.flops"
        self._wrap(operators, "assemble", after=lambda a, k, out: add(
            "operators.assemble.bytes", 16 * out.dim ** 2))
        fusion = operators.fusion_defect

        def fusion_flops(args, kwargs, out):
            products = len(_arg(fusion, args, kwargs, "factors"))
            products += _arg(fusion, args, kwargs, "a") is not None
            add(flops, products * 8 * _dim(_arg(fusion, args, kwargs,
                                                "space")) ** 3)

        self._wrap(operators, "fusion_defect", after=fusion_flops)
        self._wrap(operators, "commutation_suite")
        self._wrap(operators, "export_matrix")
        for fname, products in (("commutator", 2), ("compose", 1)):
            orig = getattr(operators, fname)
            self._rebind(orig, self._count_only(
                orig, lambda a, k, out, n=products: add(
                    flops, n * 8 * a[0].dim ** 3)))

        # oracle
        self._wrap(oracle, "gamma_from_oracle", after=lambda a, k, out: add(
            "oracle.gamma_from_oracle.points", out.samples_or_points))

        # geometry
        for fname, trials in (("invariance_check", "trials"),
                              ("factorization_check", "pairs")):
            orig = getattr(geometry, fname)
            self._wrap(geometry, fname, after=lambda a, k, out, f=orig,
                       t=trials, key=f"geometry.{fname}.trials":
                       add(key, _arg(f, a, k, t)))

        # cli
        for fname in ("load_config", "domain_precheck", "write_rows"):
            self._wrap(cli, fname)

    def run_main(self, main, argv):
        return self._span("cli.main", main)(argv)

    def dump(self, job_id: str) -> dict:
        return {"job": job_id, "spans": self.spans,
                "counts": dict(self.counts)}
