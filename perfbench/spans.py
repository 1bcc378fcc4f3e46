"""Span tracer for the traced benchmark run.

Timing wrappers are installed from here around the public functions of every
``csl`` module and around the ``numpy.linalg`` decompositions, so no code in
``src/`` is touched.  Spans are aggregated as they close: a span's self time
is its duration minus the time covered by its direct children, and inclusive
time is credited only to the outermost span of a name (or of a layer), so
recursion never counts twice.  Counters record work at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("matcore", "divergences", "optim", "infomeasures", "smoothing",
          "convexsplit", "protocols", "cli")

# numpy.linalg decompositions and solves, all reported as matcore.linalg.
LINALG = ("eigh", "eigvalsh", "eig", "eigvals", "svd", "qr", "cholesky",
          "solve", "inv", "slogdet", "det", "lstsq", "pinv")

# Spans under which every linalg decomposition counts toward
# divergences.eigh_per_call.
DIVERGENCE_FAMILY = ("divergences.d_alpha", "divergences.d_alpha_with_branch",
                     "divergences.q_alpha")


class Tracer:
    """Stack of open spans with per-name and per-layer aggregates."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open spans: [name, layer, start, child_seconds]
        self.open_names = Counter()
        self.open_layers = Counter()
        self.calls = Counter()
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.layer_incl_s = defaultdict(float)
        self.layer_self_s = defaultdict(float)
        self.counts = Counter()
        self.root_s = 0.0

    def enter(self, name: str, layer: str) -> None:
        self.calls[name] += 1
        self.open_names[name] += 1
        self.open_layers[layer] += 1
        self.stack.append([name, layer, self.clock(), 0.0])

    def exit(self) -> None:
        name, layer, start, child = self.stack.pop()
        dur = self.clock() - start
        self.open_names[name] -= 1
        self.open_layers[layer] -= 1
        self.self_s[name] += dur - child
        self.layer_self_s[layer] += dur - child
        if not self.open_names[name]:
            self.incl_s[name] += dur
        if not self.open_layers[layer]:
            self.layer_incl_s[layer] += dur
        if self.stack:
            self.stack[-1][3] += dur
        else:
            self.root_s += dur

    def inside(self, names) -> bool:
        return any(self.open_names[n] for n in names)

    def wrap(self, fn, name: str, layer: str, before=None, after=None):
        """Wrap ``fn`` in a span; hooks may rewrite arguments or count results."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            self.enter(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(self, args, out)
            return out

        return traced


# --- hooks ------------------------------------------------------------------

def _count_objective_evals(tracer, args, kwargs):
    """Count evaluations of the objective handed to minimize_over_states."""
    if args:
        objective, rest = args[0], args[1:]
    else:
        objective, rest = kwargs.pop("objective"), ()

    def counted(state):
        tracer.counts["optim.evals"] += 1
        return objective(state)

    return (counted,) + tuple(rest), kwargs


def _count_tau_bytes(tracer, args, out):
    dim = out.shape[0]
    tracer.counts["convexsplit.tau_bytes"] += 16 * dim * dim


def _count_dense_amplitudes(tracer, args, out):
    inst = args[0]
    dR, dA, dAp = inst.dims
    d = max(dA, dAp)
    n_l = max(out.n, d * d)
    tracer.counts["protocols.dense_amplitudes"] += dR * n_l * d ** (2 * out.n)


def _count_family_call(tracer, args, kwargs):
    """Count outermost divergence-family calls (denominator of eigh_per_call)."""
    if not tracer.inside(DIVERGENCE_FAMILY):
        tracer.counts["divergences.family_calls"] += 1
    return args, kwargs


HOOKS = {
    **{name: (_count_family_call, None) for name in DIVERGENCE_FAMILY},
    "optim.minimize_over_states": (_count_objective_evals, None),
    "convexsplit.build_tau": (None, _count_tau_bytes),
    "protocols.qss_simulate": (None, _count_dense_amplitudes),
}


def _linalg_wrapper(tracer, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.inside(DIVERGENCE_FAMILY):
            tracer.counts["divergences.decompositions"] += 1
        tracer.enter("matcore.linalg", "matcore")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return traced


def _minimize_wrapper(tracer, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if tracer.open_names["optim.minimize_over_states"]:
            tracer.counts["optim.local_solves"] += 1
        return fn(*args, **kwargs)

    return counted


# --- installation -------------------------------------------------------------

def _targets(csl_modules: dict):
    """Map every function a span is recorded around to (layer, name)."""
    out = {}
    for layer, mod in csl_modules.items():
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            # _uhlmann_factors is the one private layer boundary
            if attr.startswith("_") and attr != "_uhlmann_factors":
                continue
            if layer == "cli" and attr != "main":
                continue  # cli self time: parsing, formatting, writing
            out[obj] = (layer, attr)
    return out


class Installation:
    """Installs wrappers into every namespace that holds a target name."""

    def __init__(self, tracer: Tracer, csl_package, csl_modules: dict,
                 numpy_linalg, scipy_optimize):
        self.saved = []
        wrappers = {}
        for fn, (layer, attr) in _targets(csl_modules).items():
            name = f"{layer}.{attr}"
            before, after = HOOKS.get(name, (None, None))
            wrappers[fn] = tracer.wrap(fn, name, layer, before, after)
        namespaces = [csl_package] + list(csl_modules.values())
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(ns, attr, wrappers[obj])
        for attr in LINALG:
            if hasattr(numpy_linalg, attr):
                self._set(numpy_linalg, attr,
                          _linalg_wrapper(tracer, getattr(numpy_linalg, attr)))
        self._set(scipy_optimize, "minimize",
                  _minimize_wrapper(tracer, scipy_optimize.minimize))

    def _set(self, ns, attr, value):
        self.saved.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def remove(self):
        for ns, attr, value in reversed(self.saved):
            setattr(ns, attr, value)
        self.saved.clear()


# --- per-layer metrics ----------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, wall_s: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) from an aggregated trace."""
    c, s, incl = tr.calls, tr.self_s, tr.incl_s
    m = {}

    def calls(name):
        m[f"{name}.calls"] = (c[name], "count")

    def self_time(name):
        m[f"{name}.self_s"] = (s[name], "s")

    def incl_time(name):
        m[f"{name}.s"] = (incl[name], "s")

    calls("matcore.eig_hermitian")
    self_time("matcore.eig_hermitian")
    calls("matcore.linalg")
    incl_time("matcore.linalg")
    incl_time("matcore.fidelity")
    incl_time("matcore.trace_distance")

    for name in ("divergences.d_alpha", "divergences.q_alpha",
                 "divergences.d_min_eps"):
        calls(name)
        self_time(name)
    m["divergences.eigh_per_call"] = (
        _ratio(tr.counts["divergences.decompositions"],
               tr.counts["divergences.family_calls"]), "1/call")

    calls("optim.minimize_over_states")
    incl_time("optim.minimize_over_states")
    solves = c["optim.minimize_over_states"]
    m["optim.local_solves_per_solve"] = (
        _ratio(tr.counts["optim.local_solves"], solves), "1/call")
    m["optim.evals_per_solve"] = (_ratio(tr.counts["optim.evals"], solves),
                                  "1/call")
    calls("optim.dominating_trace_min")
    incl_time("optim.dominating_trace_min")

    calls("infomeasures.conditional_renyi_up")
    self_time("infomeasures.conditional_renyi_up")
    incl_time("infomeasures.mutual_info_alpha")
    incl_time("infomeasures.h_min_conditional")
    self_time("infomeasures.universal_rhs")

    calls("smoothing.uab_chain_verify")
    self_time("smoothing.uab_chain_verify")
    incl_time("smoothing.smooth_renyi_entropy_min")
    m["smoothing.solves_per_point"] = (
        _ratio(c["infomeasures.conditional_renyi_up"]
               + c["optim.dominating_trace_min"],
               c["smoothing.uab_chain_verify"]), "1/call")

    self_time("convexsplit.bounds_report")
    for name in ("convexsplit.nu_n", "convexsplit.build_tau",
                 "convexsplit.split_equality_check", "convexsplit.ly2024_compare"):
        incl_time(name)
    m["convexsplit.tau_bytes"] = (tr.counts["convexsplit.tau_bytes"],
                                  "B_computed")

    self_time("protocols.qss_simulate")
    incl_time("protocols.qss_optimal_sigma")
    incl_time("protocols._uhlmann_factors")
    m["protocols.dense_amplitudes"] = (tr.counts["protocols.dense_amplitudes"],
                                       "count_computed")
    m["protocols._uhlmann_factors.share"] = (
        _ratio(incl["protocols._uhlmann_factors"], wall_s), "frac")

    self_time("cli.main")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tr.layer_self_s[layer], "s")
        m[f"{layer}.share"] = (_ratio(tr.layer_incl_s[layer], wall_s), "frac")
    m["bench.self_s"] = (tr.layer_self_s["bench"], "s")
    return m
