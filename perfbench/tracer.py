"""Span tracing of nel from outside the package, and the per-layer metrics.

``install`` replaces every public function of every ``nel`` module, under
every name a module imports it by, with a wrapper that records a span: name,
start, end, parent span and request id.  Spans stay in memory until the run
ends.  Hot leaf calls (right-hand sides, dense-output evaluations and
``implicit_Z``) are summed into a count and a total time instead.  A span's
self time is its duration minus the time covered by its child spans and the
leaf calls made directly inside it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# Span record fields.
NAME, START, END, PARENT, REQUEST, COVERED, ATTRS = range(7)

LAYERS = ("cli", "ode", "cosine", "separatrix", "limitcurve", "extrapolate",
          "painleve", "pseries", "fourier")

# Right-hand sides are counted by the ode.integrate wrapper, per integration.
_RHS = {"cosine.rhs_unscaled": "cosine.rhs", "cosine.rhs_scaled": "cosine.rhs",
        "painleve.painleve_rhs": "painleve.rhs"}
_LEAVES = {"limitcurve.implicit_Z"}
# Return values worth keeping on the span.
_HOOKS = {
    "pseries.tau_scan": lambda r: {"failures": len(r.failures)},
    "painleve.painleve_eigenvalues": lambda r: {"found": len(r)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.leaves: dict[str, list] = {}     # name -> [count, seconds]
        self.request = -1

    def _open(self, name: str) -> list:
        parent = self.stack[-1][-1] if self.stack else -1
        rec = [name, 0.0, 0.0, parent, self.request, 0.0, None, len(self.spans)]
        self.spans.append(rec)
        self.stack.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1][COVERED] += rec[END] - rec[START]

    def span(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                rec[ATTRS] = hook(result)
            return result
        return wrapper

    def leaf(self, name: str, fn):
        cell = self.leaves.setdefault(name, [0, 0.0])
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                cell[0] += 1
                cell[1] += dt
                if stack:
                    stack[-1][COVERED] += dt
        return wrapper

    def integrate(self, fn, rhs_names: dict):
        """ode.integrate: counts RHS evaluations and keeps the step count."""

        @functools.wraps(fn)
        def wrapper(rhs, *args, **kwargs):
            cell = [0, 0.0]

            def counted(x, y):
                t0 = perf_counter()
                try:
                    return rhs(x, y)
                finally:
                    cell[0] += 1
                    cell[1] += perf_counter() - t0

            rec = self._open("ode.integrate")
            traj = None
            try:
                traj = fn(counted, *args, **kwargs)
            finally:
                self._close(rec)
                rec[COVERED] += cell[1]
                leaf = rhs_names.get(rhs) or f"{rhs.__module__.rsplit('.', 1)[-1]}.rhs"
                total = self.leaves.setdefault(leaf, [0, 0.0])
                total[0] += cell[0]
                total[1] += cell[1]
                cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
                # k1 plus, with an automatic first step, one trial evaluation
                startup = 1 if cfg is not None and cfg.initial_step > 0 else 2
                rec[ATTRS] = {"evals": cell[0], "startup": startup,
                              "dim": traj.dim if traj is not None else None,
                              "accepted": traj.step_count if traj is not None else None}
            return traj
        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:ATTRS + 1]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap nel's public functions under every name they are imported by."""
    import nel.cli  # noqa: F401 - imports every nel module
    from nel.ode import Trajectory

    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("nel.")]
    rhs_names, wrappers = {}, {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if name in _RHS:
                rhs_names[fn] = _RHS[name]
            elif name in _LEAVES:
                wrappers[fn] = tracer.leaf(name, fn)
            elif name == "ode.integrate":
                wrappers[fn] = tracer.integrate(fn, rhs_names)
            else:
                wrappers[fn] = tracer.span(name, fn, _HOOKS.get(name))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    Trajectory.__call__ = tracer.leaf("ode.dense", Trajectory.__call__)
    Trajectory.derivative = tracer.leaf("ode.dense", Trajectory.derivative)


# -- per-layer metrics ----------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(metrics, bases): per-layer numbers from the spans and leaf totals,
    and the counts each ratio is taken over."""
    spans = tracer.spans
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    within: dict[str, list[bool]] = {
        n: [] for n in ("painleve.classify_fate", "painleve.painleve_eigenvalues",
                        "separatrix.find_eigenvalue_bisect")}
    for rec in spans:
        name, dur = rec[NAME], rec[END] - rec[START]
        calls[name] += 1
        self_s[name] += dur - rec[COVERED]
        incl_s[name] += dur
        for outer, flags in within.items():
            flags.append(rec[PARENT] >= 0 and (spans[rec[PARENT]][NAME] == outer
                                               or flags[rec[PARENT]]))
    leaves = defaultdict(lambda: [0, 0.0], tracer.leaves)

    accepted = rejected = 0
    step_s = {1: 0.0, 2: 0.0}
    steps = {1: 0, 2: 0}
    fate_steps = 0
    for i, rec in enumerate(spans):
        if rec[NAME] != "ode.integrate" or rec[ATTRS]["accepted"] is None:
            continue
        attrs = rec[ATTRS]
        acc = attrs["accepted"]
        accepted += acc
        rejected += (attrs["evals"] - attrs["startup"]) // 6 - acc
        kind = 1 if attrs["dim"] == 1 else 2
        step_s[kind] += rec[END] - rec[START] - rec[COVERED]
        steps[kind] += acc
        if within["painleve.classify_fate"][i]:
            fate_steps += acc

    def count_within(name: str, outer: str) -> int:
        return sum(1 for rec, inside in zip(spans, within[outer])
                   if inside and rec[NAME] == name)

    fates_in_scan = count_within("painleve.classify_fate", "painleve.painleve_eigenvalues")
    found = sum(rec[ATTRS]["found"] for rec in spans
                if rec[NAME] == "painleve.painleve_eigenvalues" and rec[ATTRS])
    bisect_counts = count_within("separatrix.maxima_count", "separatrix.find_eigenvalue_bisect")
    rhs_evals = sum(v[0] for k, v in leaves.items() if k.endswith(".rhs"))

    m = {
        "ode.integrate.calls": calls["ode.integrate"],
        "ode.integrate.self_s": self_s["ode.integrate"],
        "ode.steps.accepted": accepted,
        "ode.steps.rejected": rejected,
        "ode.steps.accept_ratio": _ratio(accepted, accepted + rejected),
        "ode.rhs.evals": rhs_evals,
        "ode.scalar.us_per_step": 1e6 * _ratio(step_s[1], steps[1]),
        "ode.vector.us_per_step": 1e6 * _ratio(step_s[2], steps[2]),
        "ode.dense.evals": leaves["ode.dense"][0],
        "ode.dense.us_per_eval": 1e6 * _ratio(leaves["ode.dense"][1], leaves["ode.dense"][0]),
        "ode.find_extrema.calls": calls["ode.find_extrema"],
        "ode.find_extrema.self_s": self_s["ode.find_extrema"],
        "cosine.rhs.evals": leaves["cosine.rhs"][0],
        "separatrix.maxima_count.calls": calls["separatrix.maxima_count"],
        "separatrix.maxima_count.self_s": self_s["separatrix.maxima_count"],
        "separatrix.bisect.iterations": _ratio(bisect_counts,
                                               calls["separatrix.find_eigenvalue_bisect"]),
        "separatrix.backward.self_s": self_s["separatrix.trace_separatrix_backward"],
        "limitcurve.implicit_Z.calls": leaves["limitcurve.implicit_Z"][0],
        "limitcurve.implicit_Z.us_per_call": 1e6 * _ratio(leaves["limitcurve.implicit_Z"][1],
                                                          leaves["limitcurve.implicit_Z"][0]),
        "limitcurve.solve_limit_ode.self_s": self_s["limitcurve.solve_limit_ode"],
        "extrapolate.richardson.self_s": self_s["extrapolate.richardson"],
        "painleve.classify_fate.calls": calls["painleve.classify_fate"],
        "painleve.classify_fate.self_s": self_s["painleve.classify_fate"],
        "painleve.steps_per_fate": _ratio(fate_steps, calls["painleve.classify_fate"]),
        "painleve.fates_per_eigenvalue": _ratio(fates_in_scan, found),
        "painleve.laurent_match.calls": calls["painleve.laurent_match"],
        "painleve.laurent_match.self_s": self_s["painleve.laurent_match"],
        "painleve.integrate_with_poles.self_s": self_s["painleve.integrate_with_poles"],
        "pseries.rho_n.calls": calls["pseries.rho_n"],
        "pseries.rho_n.ms_per_call": 1e3 * _ratio(incl_s["pseries.rho_n"], calls["pseries.rho_n"]),
        "pseries.all_roots.self_s": self_s["pseries.all_roots"],
        "pseries.ftau_partial_sum.self_s": self_s["pseries.ftau_partial_sum"],
        "pseries.tau_scan.self_s": self_s["pseries.tau_scan"],
        "pseries.scan.failures": sum(rec[ATTRS]["failures"] for rec in spans
                                     if rec[NAME] == "pseries.tau_scan" and rec[ATTRS]),
        "fourier.partial_sum.self_s": self_s["fourier.fourier_partial_sum"],
        "cli.requests": calls["cli.main"],
        "cli.self_s": self_s["cli.main"],
    }
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = (
            sum(v for k, v in self_s.items() if k.startswith(layer + "."))
            + sum(v[1] for k, v in leaves.items() if k.startswith(layer + ".")))
    bases = {
        "ode.steps.attempted": accepted + rejected,
        "painleve.eigenvalues_found": found,
        "painleve.fates_in_scan": fates_in_scan,
        "separatrix.bisections": calls["separatrix.find_eigenvalue_bisect"],
        "separatrix.counts_in_bisection": bisect_counts,
        "layer_calls": {layer: sum(v for k, v in calls.items() if k.startswith(layer + "."))
                        + sum(v[0] for k, v in leaves.items() if k.startswith(layer + "."))
                        for layer in LAYERS},
    }
    return m, bases
