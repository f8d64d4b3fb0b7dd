"""Per-layer tracing from outside the package.

Wraps the public functions of each `ionrabi` module in spans.  Every module
attribute bound to a target function is replaced, including names imported
with `from .fock import ...`, and methods are replaced on their class.
`uninstall` puts every original back, so untraced passes run the program
unchanged.  `_dd` is not wrapped: its primitives run millions of times per
pass and their time is part of the f1 functions' self time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys

from spans import Tracer

__all__ = ["Instrumentation", "EXPECTED", "per_layer", "pass_metrics"]


def _path_arg(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments["path"]


def _file_bytes(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_path_arg(fn, args, kwargs))}


def _steps(fn, args, kwargs, result):
    return {"steps": result.meta["n_steps"]}


def _sweep_threads(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"threads": bound.arguments.get("threads", 1)}


# span name -> (module, attribute path, counter reading the call's result)
TARGETS = {
    "cli.main": ("ionrabi.cli", "main", None),
    "scenario.parse_scenario": ("ionrabi.scenario", "parse_scenario", None),
    "runner.run": ("ionrabi.runner", "run", None),
    "runner.simulate_scenario": ("ionrabi.runner", "simulate_scenario", None),
    "runner.check_truncation_convergence": ("ionrabi.runner", "check_truncation_convergence", None),
    "runner.sweep": ("ionrabi.runner", "sweep", _sweep_threads),
    "runner.write_trajectory_csv": ("ionrabi.runner", "write_trajectory_csv", _file_bytes),
    "runner.write_landscape_csv": ("ionrabi.runner", "write_landscape_csv", _file_bytes),
    "runner.write_metadata": ("ionrabi.runner", "write_metadata", None),
    "protocols.f1_landscape": ("ionrabi.protocols", "f1_landscape", None),
    "protocols.run_fock_prep": ("ionrabi.protocols", "run_fock_prep", None),
    "dynamics.evolve_unitary": ("ionrabi.dynamics", "evolve_unitary", None),
    "dynamics.evolve_unitary_td": ("ionrabi.dynamics", "evolve_unitary_td", _steps),
    "dynamics.evolve_lindblad": ("ionrabi.dynamics", "evolve_lindblad", _steps),
    "dynamics.rwa_crosscheck": ("ionrabi.dynamics", "rwa_crosscheck", None),
    "dynamics.record": ("ionrabi.dynamics", "_Recorder.record", None),
    "models.build_hamiltonian": ("ionrabi.models", "build_hamiltonian",
                                 lambda fn, a, k, r: {"dim_total": r.space.dim_total}),
    "models.TwoToneGenerator.apply": ("ionrabi.models", "TwoToneGenerator.apply", None),
    "fock.f1_diagonal": ("ionrabi.fock", "f1_diagonal", lambda fn, a, k, r: {"values": len(r)}),
    "fock.f1_scalar": ("ionrabi.fock", "f1_scalar", None),
    "fock.barrier_eta": ("ionrabi.fock", "barrier_eta", None),
    "fock.displacement_boson": ("ionrabi.fock", "displacement_boson", None),
}

_COMMON = ("cli.main", "scenario.parse_scenario", "runner.simulate_scenario",
           "models.build_hamiltonian", "dynamics.record", "fock.f1_diagonal")
# Spans each workload must record in every traced pass; zero calls on one of
# them means the wrapper missed a binding.
EXPECTED = {
    "scan": _COMMON + ("runner.run", "dynamics.evolve_unitary", "runner.write_trajectory_csv",
                       "runner.write_metadata", "runner.write_landscape_csv",
                       "protocols.f1_landscape", "runner.sweep", "fock.f1_scalar",
                       "fock.barrier_eta"),
    "dissipative": _COMMON + ("runner.run", "dynamics.evolve_lindblad", "protocols.run_fock_prep",
                              "runner.write_trajectory_csv", "runner.write_metadata",
                              "fock.barrier_eta", "fock.f1_scalar"),
    "twotone": _COMMON + ("runner.check_truncation_convergence", "dynamics.evolve_unitary",
                          "dynamics.rwa_crosscheck", "dynamics.evolve_unitary_td",
                          "models.TwoToneGenerator.apply", "fock.displacement_boson"),
}


def per_layer() -> list[dict]:
    """The per-layer metrics (name, unit, better) listed in BENCHMARK.json."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)["per_layer"]


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counter is not None:
            span.attrs = counter(fn, args, kwargs, result)
        return result
    return traced


class Instrumentation:
    """Installs and removes the span wrappers on the imported ionrabi modules."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []      # (owner, attribute, original)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ionrabi" or n.startswith("ionrabi."))]
        for name, (module, path, counter) in TARGETS.items():
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                # A renamed or removed layer must be renamed or dropped in
                # TARGETS and BENCHMARK.json on purpose, not read as 0.
                raise LookupError(f"{module} no longer defines {path} (span {name})")
            wrapper = _wrap(self.tracer, name, fn, counter)
            if outer:
                self._replace(owner, attr, fn, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, key, fn, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def pass_metrics(spans, names) -> dict:
    """The named per-layer metrics of one traced pass; the worker adds trace.overhead_s."""
    calls, self_s, total_s, counts = {}, {}, {}, {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        total_s[s.name] = total_s.get(s.name, 0.0) + s.duration
        for key, value in (s.attrs or {}).items():
            acc = counts.setdefault(s.name, {})
            acc[key] = max(acc.get(key, 0), value) if key == "dim_total" else acc.get(key, 0) + value
    out = {}
    for metric in names:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls.get(layer, 0)
        elif stat == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        elif stat in ("values", "steps", "bytes"):
            out[metric] = counts.get(layer, {}).get(stat, 0)
    apply_calls = calls.get("models.TwoToneGenerator.apply", 0)
    out["models.TwoToneGenerator.apply.us_per_call"] = (
        1e6 * self_s["models.TwoToneGenerator.apply"] / apply_calls if apply_calls else 0.0)
    for layer in ("dynamics.evolve_unitary_td", "dynamics.evolve_lindblad"):
        steps = out[f"{layer}.steps"]
        # inclusive of the step's apply and record children
        out[f"{layer}.us_per_step"] = 1e6 * total_s[layer] / steps if steps else 0.0
    out["models.dim_total.max"] = counts.get("models.build_hamiltonian", {}).get("dim_total", 0)
    out["runner.sweep.busy_ratio"] = _busy_ratio(spans)
    return out


def _busy_ratio(spans) -> float:
    """Time spent in sweep points over sweep wall time x threads."""
    sweeps = [s for s in spans if s.name == "runner.sweep"]
    capacity = sum(s.duration * s.attrs["threads"] for s in sweeps if s.attrs)
    busy = sum(p.duration for p in spans if p.name == "runner.run"
               for s in sweeps if s.start <= p.start and p.end <= s.end)
    return busy / capacity if capacity else 0.0


def median_metrics(per_pass: list) -> dict:
    return {metric: statistics.median(m[metric] for m in per_pass) for metric in per_pass[0]}
