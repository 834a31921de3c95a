"""The four benchmark workloads: priced operations and the checks on them.

An operation is one call into the public API (a Fourier price, a Monte Carlo
price or a Gaussian closed form) that returns a value and a claimed error.
Every operation carries checks against a computation that does not share its
code path, or against a property any correct price must have.  A check that
fails, or an exception, makes the operation a failure.  ``Workload.faults``
names the operations that fail at every run because of known faults in the
engine; a failure anywhere else means the program is wrong.

Import this module only after ``src`` is on ``sys.path``.
"""
from __future__ import annotations

import math
import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable

import levyexotic as lx
from scipy.integrate import quad

SIGMA = 0.2
R = 0.05
SPOT = 100.0

# Relative floor added to every tolerance: the closed form's own accuracy
# (the MVN CDF is a deterministic quadrature) and float rounding in identities.
FLOOR = 1e-9
# Monte Carlo values are compared within this many standard errors.  Runs draw
# fresh paths for every seed, and a workload makes dozens of MC comparisons per
# run, so 4 standard errors would flag a correct price in a few percent of runs.
MC_SIGMAS = 5.0
CHECK_PATHS = 1 << 17  # Monte Carlo checks of vanilla-book and compound-roots cells
MULTIDATE_PATHS = 1 << 20  # Monte Carlo checks of the 2-date NIG cells
ORACLE_PATHS = 1 << 19  # paths of every Monte Carlo operation in oracles


def build_models() -> dict:
    return {
        "gaussian": lx.make_gaussian(SIGMA, R),
        "nig": lx.make_nig(8.0, -2.0, 0.3, R),
        "cgmy05": lx.make_cgmy(1.0, 5.0, 5.0, 0.5, R),
        "cgmy15": lx.make_cgmy(1.0, 5.0, 5.0, 1.5, R),
    }


def schedule(*dates):
    return lx.MonitoringSchedule(0.0, tuple(dates))


def european(T, K, w=1):
    """Vanilla call or put as a one-date geometric Asian."""
    return lx.AsianGeometric(schedule(T), K, w)


class Session:
    """Per-run state: the seed and the references the checks compare against.

    References are computed on first use, after the timed passes, so they never
    count toward a timed figure.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._refs: dict = {}

    def ref(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def mc(self, c, model, n_paths):
        """MC price as (estimate, MC_SIGMAS standard errors); the stream depends on the seed."""
        stream = zlib.crc32(repr((c, model.kind, n_paths)).encode())
        res = lx.mc_price(c, model, SPOT, n_paths, self.seed * (1 << 32) + stream)
        return res.estimate, MC_SIGMAS * res.stderr


Output = tuple  # (value, claimed error)
Ref = Callable[[dict, Session], "Output | None"]  # (outputs of this pass, session) -> (value, error)
Check = Callable[[float, float, dict, Session], "str | None"]


@dataclass
class Op:
    name: str
    price: Callable[[], Output]
    checks: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    ops: list
    warmup: list  # names of cheap operations run once before timing
    faults: frozenset  # names of operations that fail because of known engine faults


# --- references -------------------------------------------------------------

def closed_form(c) -> Ref:
    return lambda out, ses: ses.ref(("cf", c), lambda: (lx.closed_form_price(c, SIGMA, R, SPOT), 0.0))


def fourier(c, model) -> Ref:
    def compute():
        res = lx.price_contract(c, model, SPOT)
        return res.value, res.quadrature_error
    return lambda out, ses: ses.ref(("fourier", c, model), compute)


def monte_carlo(c, model, n_paths) -> Ref:
    return lambda out, ses: ses.ref(("mc", c, model, n_paths), lambda: ses.mc(c, model, n_paths))


def same_pass(name, shift=0.0, scale=1.0) -> Ref:
    """scale * value + shift of another operation of the same pass.

    None when that operation raised (it is counted as failed itself) or is not
    part of the pass; checks against a None reference are skipped.
    """
    def ref(out, ses):
        if name not in out:
            return None
        v, e = out[name]
        return scale * v + shift, abs(scale) * e
    return ref


def combined(*parts: tuple) -> Ref:
    """Weighted sum of references: parts are (weight, ref) pairs."""
    def ref(out, ses):
        vals = [(w, r(out, ses)) for w, r in parts]
        if any(v is None for _, v in vals):
            return None
        return (sum(w * v for w, (v, _) in vals), sum(abs(w) * e for w, (_, e) in vals))
    return ref


def constant(v) -> Ref:
    return lambda out, ses: (v, 0.0)


# --- checks -----------------------------------------------------------------

def _compare(label, ref: Ref, relation: str) -> Check:
    """Check ``value <relation> reference`` up to both claimed errors plus the floor."""
    def check(v, e, out, ses):
        if (r := ref(out, ses)) is None:
            return None
        rv, re = r
        tol = e + re + FLOOR * (1.0 + abs(rv))
        ok = {"==": abs(v - rv) <= tol, "<=": v <= rv + tol, ">=": v >= rv - tol}[relation]
        return None if ok else f"{label}: {v:.10g} {relation} {rv:.10g} fails (diff {v - rv:.3g}, tol {tol:.3g})"
    return check


def near(label, ref: Ref) -> Check:
    return _compare(label, ref, "==")


def at_most(label, ref: Ref) -> Check:
    return _compare(label, ref, "<=")


def at_least(label, ref: Ref) -> Check:
    return _compare(label, ref, ">=")


NONNEGATIVE = at_least("value >= 0", constant(0.0))


def lognormal_moment(model, sched, theta) -> float:
    """E[exp(sum_k theta_k X_k)] from the exponent alone: prod_j exp(-dt_j psi(-i lam_j))."""
    lam = [sum(theta[j:]) for j in range(len(theta))]
    dts = sched.intervals()
    return math.prod(math.exp(-(dt * model.psi(-1j * la)).real) for dt, la in zip(dts, lam))


def continuous_average_moment(model, tau) -> float:
    """E[exp(mean of X over [0, tau])] = exp(-tau int_0^1 psi(-i(1-y)) dy), by adaptive quadrature."""
    integral, _ = quad(lambda y: model.psi(-1j * (1.0 - y)).real, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    return math.exp(-tau * integral)


# --- operations -------------------------------------------------------------

def fourier_op(name, c, model, checks) -> Op:
    def price():
        res = lx.price_contract(c, model, SPOT)
        return res.value, res.quadrature_error
    return Op(name, price, [NONNEGATIVE] + checks)


def side(w):
    return "call" if w > 0 else "put"


def _vanilla_book(models):
    ops = []
    T = 1.0
    disc = math.exp(-R * T)
    s1, s4, s12 = schedule(T), schedule(0.25, 0.5, 0.75, 1.0), schedule(*((k + 1) / 12 for k in range(12)))
    digital_strikes = [80.0 + 5.0 * i for i in range(9)]
    asian_strikes = [90.0, 95.0, 100.0, 105.0, 110.0]
    faults = set()
    for mname, model in models.items():
        gauss = mname == "gaussian"

        def add(name, c, checks=(), mc_paths=None, parity=None, prev=None):
            """Gaussian cells against the closed form; Levy calls by bounds, MC (NIG) and
            monotonicity in the strike; Levy puts by parity with the call."""
            if gauss:
                checks = [near("closed form", closed_form(c))]
            else:
                checks = list(checks)
                if mc_paths and mname == "nig":
                    checks.append(near("NIG Monte Carlo", monte_carlo(c, model, mc_paths)))
                if prev is not None:
                    checks.append(at_most("decreasing in strike", same_pass(prev)))
                if parity is not None:
                    checks.append(near("put-call parity", parity))
            ops.append(fourier_op(f"{mname}/{name}", c, model, checks))

        for kind, gamma, cap in (("cash-digital", 0.0, disc), ("asset-digital", 1.0, SPOT)):
            prev = None
            for K in digital_strikes:
                for w in (1, -1):
                    c = lx.Digital(s1, lx.PayoffParameterSet((gamma,), (math.log(K),), (w,), ((1.0,),)))
                    name = f"{kind}/{side(w)}/K{K:g}"
                    call = f"{mname}/{kind}/call/K{K:g}"
                    if w == 1:
                        add(name, c, [at_most("value <= bound", constant(cap))], CHECK_PATHS, prev=prev)
                        prev = call
                    else:
                        add(name, c, parity=same_pass(call, shift=cap, scale=-1.0))
        for w in (1, -1):
            c = lx.ForwardStart(0.5, 1.0, w)
            call = f"{mname}/forward-start/call"
            add(f"forward-start/{side(w)}", c, [], CHECK_PATHS,
                parity=None if w == 1 else same_pass(call, shift=-SPOT * (1.0 - math.exp(-R * 0.5))))
        for m_label, sched in (("M4", s4), ("M12", s12)):
            mean_g = SPOT * lognormal_moment(model, sched, [1.0 / sched.m] * sched.m)
            prev = None
            for K in asian_strikes:
                for w in (1, -1):
                    c = lx.AsianGeometric(sched, K, w)
                    call = f"{mname}/asian-{m_label}/call/K{K:g}"
                    if w == 1:
                        add(f"asian-{m_label}/call/K{K:g}", c, [], CHECK_PATHS, prev=prev)
                        prev = call
                    else:
                        add(f"asian-{m_label}/put/K{K:g}", c,
                            parity=same_pass(call, shift=-disc * (mean_g - K)))
                        if mname == "cgmy15" and m_label == "M12":
                            # price_contract reports the largest term error, not their
                            # sum, and the parity residual exceeds the sum of the two maxima
                            faults.add(f"{mname}/asian-{m_label}/put/K{K:g}")
        mean_a = SPOT * continuous_average_moment(model, T)
        prev = None
        for K in asian_strikes:
            for w in (1, -1):
                c = lx.AsianContinuous(0.0, T, K, w)
                call = f"{mname}/asian-continuous/call/K{K:g}"
                if w == 1:
                    add(f"asian-continuous/call/K{K:g}", c, [at_most("value <= spot", constant(SPOT))], prev=prev)
                    prev = call
                else:
                    add(f"asian-continuous/put/K{K:g}", c,
                        parity=same_pass(call, shift=-disc * (mean_a - K)))
                    # the engine negates continuous-Asian puts
                    faults.add(f"{mname}/asian-continuous/put/K{K:g}")
    warmup = [op.name for op in ops if "K100" in op.name or "forward-start" in op.name]
    return ops, warmup, faults


def model_free_check(cname, model) -> Check:
    """Check of a K=100, T=1 chooser (t1=0.5), barrier or lookback call from 1-D prices."""
    K = 100.0
    call = fourier(european(1.0, K), model)
    if cname == "chooser":
        # C(K, T) + P(K exp(-r(T - t1)), t1)
        early = fourier(european(0.5, K * math.exp(-R * 0.5), -1), model)
        return near("chooser parity with 1-D prices", combined((1.0, call), (1.0, early)))
    if cname.startswith("barrier"):
        return at_most("barrier <= vanilla call", call)
    return at_least("lookback >= vanilla call", call)


def _multidate_exotics(models):
    s2, s3 = schedule(0.5, 1.0), schedule(1.0 / 3.0, 2.0 / 3.0, 1.0)
    K = 100.0
    contracts = {
        "chooser": lx.Chooser(0.5, 1.0, K),
        "barrier-2date": lx.BarrierDownOutCall(s2, 90.0, K),
        "lookback-2date": lx.LookbackFixed(s2, K),
        "barrier-3date": lx.BarrierDownOutCall(s3, 90.0, K),
        "lookback-3date": lx.LookbackFixed(s3, K),
    }
    cells = {
        "gaussian": list(contracts),
        "cgmy15": list(contracts),
        "nig": ["chooser", "barrier-2date", "lookback-2date"],
        "cgmy05": ["chooser"],  # fails: NoConvergence at the 2-D node cap
    }
    ops = []
    for mname, names in cells.items():
        model = models[mname]
        for cname in names:
            c = contracts[cname]
            if mname == "gaussian":
                checks = [near("closed form", closed_form(c))]
            else:
                checks = [model_free_check(cname, model)]
            if mname == "nig" and cname != "chooser":
                checks.append(near("NIG Monte Carlo", monte_carlo(c, model, MULTIDATE_PATHS)))
            ops.append(fourier_op(f"{mname}/{cname}", c, model, checks))
    warmup = ["gaussian/chooser", "gaussian/barrier-2date", "gaussian/lookback-2date", "gaussian/barrier-3date"]
    return ops, warmup, {"cgmy05/chooser"}


def _compound_roots(models):
    T1, T2, K2 = 0.5, 1.0, 100.0
    ops, faults = [], set()
    for mname in ("gaussian", "cgmy15"):
        model = models[mname]
        inner_call = fourier(lx.Compound(((T2, K2, 1),)), model)
        for K1 in (3.0, 8.0):
            for w1 in (1, -1):
                for w2 in (1, -1):
                    c = lx.Compound(((T1, K1, w1), (T2, K2, w2)))
                    name = f"{mname}/{side(w1)}-on-{side(w2)}/K1={K1:g}"
                    if w2 == -1:
                        # the engine's sign for an inner put is wrong; the Gaussian
                        # closed form repeats it, so only sign and MC can check these
                        checks = [near("Monte Carlo", monte_carlo(c, model, CHECK_PATHS))] if mname == "gaussian" else []
                        faults.add(name)
                    elif mname == "gaussian":
                        checks = [near("closed form", closed_form(c))]
                    elif w1 == 1:
                        checks = [at_most("call-on-call <= inner call", inner_call)]
                    else:
                        # call-on-call - put-on-call = inner call - K1 exp(-r T1)
                        coc = same_pass(f"{mname}/call-on-call/K1={K1:g}")
                        checks = [near("compound parity", combined(
                            (1.0, coc), (-1.0, inner_call), (1.0, constant(K1 * math.exp(-R * T1)))))]
                    ops.append(fourier_op(name, c, model, checks))
    gauss = models["gaussian"]
    for w0 in (1, -1):
        c = lx.Compound(((0.25, 2.0, w0), (0.5, 4.0, 1), (1.0, K2, 1)))
        ops.append(fourier_op(f"gaussian/depth3-{side(w0)}-on-call-on-call", c, gauss,
                              [near("closed form", closed_form(c))]))
    # fails: the threshold search asks the inner prices for 1e-12, out of reach
    ops.append(fourier_op("cgmy05/call-on-call/K1=3", lx.Compound(((T1, 3.0, 1), (T2, K2, 1))),
                          models["cgmy05"], []))
    faults.add("cgmy05/call-on-call/K1=3")
    warmup = [op.name for op in ops if op.name.startswith("gaussian/") and "depth3-call" not in op.name]
    return ops, warmup, faults


def _oracles(models, ses):
    s2, s3, s12 = schedule(0.5, 1.0), schedule(1.0 / 3.0, 2.0 / 3.0, 1.0), schedule(*((k + 1) / 12 for k in range(12)))
    K = 100.0
    mc_contracts = {
        "barrier-3date": lx.BarrierDownOutCall(s3, 90.0, K),
        "lookback-3date": lx.LookbackFixed(s3, K),
        "asian-M12": lx.AsianGeometric(s12, K),
        "chooser": lx.Chooser(0.5, 1.0, K),
        "call-on-call": lx.Compound(((0.5, 3.0, 1), (1.0, K, 1))),
    }
    ops = []
    for mname in ("gaussian", "nig"):
        model = models[mname]
        for cname, c in mc_contracts.items():
            if mname == "gaussian":
                checks = [near("closed form", closed_form(c))]
            elif cname in ("asian-M12", "call-on-call"):
                checks = [near("converged Fourier price", fourier(c, model))]
            else:
                checks = [model_free_check(cname, model)]
            ops.append(Op(f"mc/{mname}/{cname}",
                          lambda c=c, model=model: ses.mc(c, model, ORACLE_PATHS),
                          [NONNEGATIVE] + checks))
    gauss = models["gaussian"]
    cf_contracts = {
        "digital": lx.Digital(schedule(1.0), lx.PayoffParameterSet((0.0,), (math.log(K),), (1,), ((1.0,),))),
        "forward-start": lx.ForwardStart(0.5, 1.0),
        "asian-M12": mc_contracts["asian-M12"],
        "asian-continuous": lx.AsianContinuous(0.0, 1.0, K),
        "lookback-2date": lx.LookbackFixed(s2, K),
        "chooser": mc_contracts["chooser"],
        "call-on-call": mc_contracts["call-on-call"],
        "barrier-2date": lx.BarrierDownOutCall(s2, 90.0, K),
    }
    for cname, c in cf_contracts.items():
        ops.append(Op(f"closed-form/{cname}",
                      lambda c=c: (lx.closed_form_price(c, SIGMA, R, SPOT), 0.0),
                      [NONNEGATIVE, near("Gaussian Fourier price", fourier(c, gauss))]))
    warmup = [op.name for op in ops if op.name.startswith("closed-form/")] + ["mc/gaussian/chooser"]
    return ops, warmup, set()


WORKLOADS = ("vanilla-book", "multidate-exotics", "compound-roots", "oracles")


def build(name: str, ses: Session) -> Workload:
    """The named workload, its operations in an order drawn from the session's seed."""
    models = build_models()
    if name == "vanilla-book":
        ops, warmup, faults = _vanilla_book(models)
    elif name == "multidate-exotics":
        ops, warmup, faults = _multidate_exotics(models)
    elif name == "compound-roots":
        ops, warmup, faults = _compound_roots(models)
    elif name == "oracles":
        ops, warmup, faults = _oracles(models, ses)
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(ses.seed).shuffle(ops)
    return Workload(name, ops, warmup, frozenset(faults))


def run_pass(ops, between=None):
    """Price every operation once, calling ``between()`` (untimed) before each.

    Returns outputs, exceptions, and per operation its start time and latency.
    """
    out, errors, timings = {}, {}, []
    for op in ops:
        if between is not None:
            between()
        t0 = time.perf_counter()
        try:
            out[op.name] = op.price()
        except Exception as exc:  # an operation that raises is counted, not fatal
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        timings.append((t0, time.perf_counter() - t0))
    return out, errors, timings


def check_pass(ops, out, errors, ses) -> dict:
    """Failure reason per failed operation of one pass."""
    failures = dict(errors)
    for op in ops:
        if op.name not in out:
            continue
        v, e = out[op.name]
        reasons = [r for chk in op.checks if (r := chk(v, e, out, ses)) is not None]
        if reasons:
            failures[op.name] = "; ".join(reasons)
    return failures
