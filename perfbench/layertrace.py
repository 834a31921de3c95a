"""Per-layer counts and times, taken by wrapping the engine's functions from outside.

``LayerTrace`` replaces each hooked function wherever the package binds it
(its own module, the modules that import it by name, the package namespace)
and restores the originals on exit.  Times are inclusive wall times of the
outermost call; ``digitals.self_s`` is the time in ``price_digital`` minus the
quadrature time inside it.  Quadrature levels are counted from the integrand
calls of ``integrate_line`` (one call per level) and from ``_tensor_level``.

A hook whose target no longer exists is skipped with a warning on stderr, and
its metrics read 0.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

# name, unit, better
METRICS = (
    ("models.psi_calls", "count", "lower"),
    ("models.psi_points", "count", "lower"),
    ("models.psi_s", "s", "lower"),
    ("digitals.price_calls", "count", "lower"),
    ("digitals.self_s", "s", "lower"),
    ("quadrature.line_calls", "count", "lower"),
    ("quadrature.line_s", "s", "lower"),
    ("quadrature.tensor_calls", "count", "lower"),
    ("quadrature.tensor_s", "s", "lower"),
    ("quadrature.evaluations", "count", "lower"),
    ("quadrature.levels", "count", "lower"),
    ("quadrature.final_level_share", "ratio", "higher"),
    ("quadrature.unconverged", "count", "lower"),
    ("contracts.threshold_s", "s", "lower"),
    ("contracts.threshold_objective_calls", "count", "lower"),
    ("contracts.portfolio_terms", "count", "lower"),
    ("gaussian.closed_form_s", "s", "lower"),
    ("gaussian.mvn_cdf_calls", "count", "lower"),
    ("mc.path_gen_s", "s", "lower"),
    ("mc.payoff_s", "s", "lower"),
    ("mc.inner_price_calls", "count", "lower"),
    ("mc.paths_per_s", "paths/s", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


class LayerTrace:
    """Context manager that accumulates per-layer counters while it is active."""

    def __init__(self, package):
        self.pkg = package
        self.totals = Counter()
        self._depth = Counter()  # nesting depth per timed key
        self._final_evals = 0
        self._patched = []  # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def _modules(self):
        return [self.pkg] + [getattr(self.pkg, m) for m in
                             ("models", "digitals", "quadrature", "contracts", "gaussian", "mc")]

    def _replace(self, module_name, attr, make_wrapper):
        """Wrap ``module.attr`` and every other binding of the same object in the package."""
        original = getattr(getattr(self.pkg, module_name), attr, None)
        if original is None:
            print(f"layertrace: {module_name}.{attr} not found; its metrics read 0", file=sys.stderr)
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        for mod in self._modules():
            for name, obj in list(vars(mod).items()):
                if obj is original:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def _timed(self, key, fn, before=None, after=None):
        """Wrapper adding the outermost call's duration to ``key`` (no timing if ``key`` is None)."""
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if key is None:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            self._depth[key] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._depth[key] -= 1
                if self._depth[key] == 0:
                    self.totals[key] += dt
                    if key.startswith("quadrature.") and self._depth["digitals.price_s"]:
                        self.totals["digitals.quadrature_s"] += dt
            if after is not None:
                after(result)
            return result
        return wrapper

    def __enter__(self):
        models = self.pkg.models
        t = self.totals

        def psi_args(args, kwargs):
            t["models.psi_calls"] += 1
            t["models.psi_points"] += int(np.size(args[1]))

        original_psi = models.LevyModel.psi
        self._patched.append((models.LevyModel, "psi", original_psi))
        models.LevyModel.psi = functools.wraps(original_psi)(
            self._timed("models.psi_s", original_psi, before=psi_args))

        def count(key):
            def before(args, kwargs):
                t[key] += 1
            return before

        self._replace("digitals", "price_digital",
                      lambda fn: self._timed("digitals.price_s", fn, before=count("digitals.price_calls")))

        def ladder_done(res):
            t["quadrature.evaluations"] += res.evaluations
            t["quadrature.unconverged"] += not res.converged
            t["quadrature.final_evaluations"] += self._final_evals

        def line(fn):
            timed = self._timed("quadrature.line_s", fn, before=count("quadrature.line_calls"), after=ladder_done)

            def wrapper(f, *args, **kwargs):
                def counted(x):
                    t["quadrature.levels"] += 1
                    self._final_evals = int(np.size(x))
                    return f(x)
                return timed(counted, *args, **kwargs)
            return wrapper

        def tensor_level(fn):
            def wrapper(*args, **kwargs):
                total, abs_mass, evaluations = fn(*args, **kwargs)
                t["quadrature.levels"] += 1
                self._final_evals = evaluations
                return total, abs_mass, evaluations
            return wrapper

        self._replace("quadrature", "integrate_line", line)
        self._replace("quadrature", "_tensor_level", tensor_level)
        self._replace("quadrature", "integrate_tensor",
                      lambda fn: self._timed("quadrature.tensor_s", fn,
                                             before=count("quadrature.tensor_calls"), after=ladder_done))

        def terms(port):
            t["contracts.portfolio_terms"] += len(port.terms)

        self._replace("contracts", "to_portfolio", lambda fn: self._timed(None, fn, after=terms))
        self._replace("contracts", "solve_compound_thresholds",
                      lambda fn: self._timed("contracts.threshold_s", fn))
        self._replace("contracts", "_compound_value",
                      lambda fn: self._timed(None, fn,
                                             before=count("contracts.threshold_objective_calls")))
        self._replace("gaussian", "closed_form_price", lambda fn: self._timed("gaussian.closed_form_s", fn))
        self._replace("gaussian", "mvn_cdf",
                      lambda fn: self._timed(None, fn, before=count("gaussian.mvn_cdf_calls")))
        def paths(res):
            if not self._depth["mc.price_s"]:
                t["mc.paths"] += res.n_paths

        self._replace("mc", "mc_price", lambda fn: self._timed("mc.price_s", fn, after=paths))
        self._replace("mc", "_simulate_block", lambda fn: self._timed("mc.path_gen_s", fn))
        self._replace("mc", "_pathwise_payoff", lambda fn: self._timed("mc.payoff_s", fn))
        self._replace("mc", "price_single_period",
                      lambda fn: self._timed(None, fn, before=count("mc.inner_price_calls")))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        return False

    # -- results -----------------------------------------------------------

    def per_pass(self, passes: int) -> dict:
        """Every metric of ``METRICS`` but trace.overhead_s; counts and times per pass."""
        t = self.totals
        values = {name: t[name] / passes for name, _, _ in METRICS if name != "trace.overhead_s"}
        values["digitals.self_s"] = (t["digitals.price_s"] - t["digitals.quadrature_s"]) / passes
        values["quadrature.final_level_share"] = (
            t["quadrature.final_evaluations"] / t["quadrature.evaluations"] if t["quadrature.evaluations"] else 0.0)
        values["mc.paths_per_s"] = t["mc.paths"] / t["mc.price_s"] if t["mc.price_s"] else 0.0
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS if name in values}
