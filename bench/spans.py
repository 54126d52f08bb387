"""In-memory span tracer for the traced benchmark pass.

``install(tracer)`` rebinds the module attributes through which arflow's
callers reach each public layer function (``arflow.kernels.attraction_U``,
``arflow.dynamics.repulsion_term``, ``arflow.cli.simulate``, ...) to wrappers
that record one span per call: name, start, end, parent span and job id.
Work counts are computed from argument sizes, so they repeat exactly.  It is
called only in the traced worker process; untraced passes run the program
unmodified.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

import numpy as np

# Per-layer metrics in the order they are reported.  Each maps to the
# end-to-end metric and workload it should move; see bench/README.md.
LAYER_METRICS = (
    ("kernels.attraction_U.calls", "count"),
    ("kernels.attraction_U.pairs", "count"),
    ("kernels.attraction_U.self_s", "s"),
    ("dynamics.repulsion_term.calls", "count"),
    ("dynamics.repulsion_term.pairs", "count"),
    ("dynamics.repulsion_term.self_s", "s"),
    ("dynamics.step.calls", "count"),
    ("dynamics.step.self_s", "s"),
    ("dynamics.monotonicity_aborts", "count"),
    ("energetics.make_report.calls", "count"),
    ("energetics.make_report.self_s", "s"),
    ("energetics.energy.pairs", "count"),
    ("energetics.energy.self_s", "s"),
    ("energetics.dissipation.self_s", "s"),
    ("energetics.fourier_energy.terms", "count"),
    ("energetics.fourier_energy.self_s", "s"),
    ("energetics.tilde_energy.self_s", "s"),
    ("energetics.moment_certificate.self_s", "s"),
    ("steady.steady_qr1.calls", "count"),
    ("steady.steady_qr1.self_s", "s"),
    ("steady.drift_evals", "count"),
    ("particles.particle_rhs.calls", "count"),
    ("particles.particle_rhs.self_s", "s"),
    ("particles.discrete_energy.self_s", "s"),
    ("measures.to_csv.calls", "count"),
    ("measures.to_csv.bytes", "B"),
    ("measures.to_csv.self_s", "s"),
    ("measures.from_csv.calls", "count"),
    ("measures.from_csv.bytes", "B"),
    ("measures.from_csv.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.exit_nonzero", "count"),
)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job]
        self.counts = Counter()
        self.job = None
        self.enabled = True
        self._stack = []

    def wrap(self, name, fn, work=None, on_result=None, on_error=None):
        """Return ``fn`` wrapped to record a span named ``name`` per call.

        ``work(*args)`` returns ``{counter: amount}`` computed from the call's
        arguments; ``on_result(result, *args)`` and ``on_error(exc)`` return
        counters to add after the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.counts[f"{name}.calls"] += 1
            if work is not None:
                self.counts.update(work(*args, **kwargs))
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.job]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    self.counts.update(on_error(exc))
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                self.counts.update(on_result(result, *args, **kwargs))
            return result

        return traced

    def _self_each(self):
        """Self time of every span: its duration minus its children's."""
        own = [end - start for _, start, end, _, _ in self.spans]
        out = list(own)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                out[parent] -= own[i]
        return out

    def self_times(self):
        """Total self time per span name."""
        out = Counter()
        for (name, *_), seconds in zip(self.spans, self._self_each()):
            out[name] += seconds
        return out

    def drift_under_steady(self):
        """Count and self time of drift calls under ``steady.steady_qr1``."""
        under = [False] * len(self.spans)
        self_s = self._self_each()
        count, seconds = 0, 0.0
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            under[i] = parent >= 0 and (
                under[parent] or self.spans[parent][0] == "steady.steady_qr1")
            if under[i] and name == "kernels.attraction_U":
                count += 1
                seconds += self_s[i]
        return count, seconds

    def metrics(self):
        """Every per-layer metric of ``LAYER_METRICS`` except the overhead."""
        values = dict(self.counts)
        values.update({f"{k}.self_s": v for k, v in self.self_times().items()})
        values["steady.drift_evals"] = self.drift_under_steady()[0]
        return {name: values.get(name, 0) for name, _ in LAYER_METRICS}

    def write(self, path):
        """Write every span as one JSON line (wall-clock data, kept apart)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")


def _pairs_attraction(pot, x):
    q = pot.q_a
    pairs = np.size(x) * pot.y_nodes.size if 1.0 < q < 2.0 else 0
    return {"kernels.attraction_U.pairs": pairs}


def _pairs_repulsion(x, z, q_r):
    pairs = np.size(x) ** 2 if q_r not in (1.0, 2.0) else 0
    return {"dynamics.repulsion_term.pairs": pairs}


def _nodes(X, quad):
    """Datum quadrature nodes M; arflow defaults to M = n."""
    return X.n if quad is None else quad.nodes.size


def _pairs_energy(X, profile, exps, quad=None):
    return {"energetics.energy.pairs":
            X.n * _nodes(X, quad) + X.n * X.n}


def _terms_fourier(X, profile, q, xi_grid=None, quad=None):
    from arflow.energetics import XiGrid
    per_side = (xi_grid or XiGrid()).nodes_per_side
    return {"energetics.fourier_energy.terms":
            per_side * (X.n + _nodes(X, quad))}


def install(tracer):
    """Rebind arflow's layer entry points to traced wrappers."""
    from arflow import cli, dynamics, energetics, kernels, measures, steady

    def monotonicity(exc):
        hit = isinstance(exc, dynamics.MonotonicityError)
        return {"dynamics.monotonicity_aborts": int(hit)}

    def exit_code(code, *args, **kwargs):
        return {"cli.exit_nonzero": int(code != 0)}

    wrap = tracer.wrap
    kernels.attraction_U = wrap("kernels.attraction_U", kernels.attraction_U,
                                work=_pairs_attraction)
    dynamics.repulsion_term = wrap("dynamics.repulsion_term",
                                   dynamics.repulsion_term,
                                   work=_pairs_repulsion)
    dynamics.step = wrap("dynamics.step", dynamics.step,
                         on_error=monotonicity)
    cli.simulate = wrap("dynamics.simulate", cli.simulate)
    for name, work in (("make_report", None), ("energy", _pairs_energy),
                       ("dissipation", None),
                       ("fourier_energy", _terms_fourier),
                       ("tilde_energy", None), ("moment_certificate", None)):
        setattr(energetics, name, wrap(f"energetics.{name}",
                                       getattr(energetics, name), work=work))
    steady.steady_qr1 = wrap("steady.steady_qr1", steady.steady_qr1)
    cli.particle_rhs = wrap("particles.particle_rhs", cli.particle_rhs)
    cli.discrete_energy = wrap("particles.discrete_energy",
                               cli.discrete_energy)
    cls = measures.InverseCDF
    cls.to_csv = wrap(
        "measures.to_csv", cls.to_csv, on_result=lambda _, X, path:
        {"measures.to_csv.bytes": os.path.getsize(path)})
    cls.from_csv = classmethod(wrap(
        "measures.from_csv", cls.from_csv.__func__, work=lambda cls, path:
        {"measures.from_csv.bytes": os.path.getsize(path)}))
    cli.main = wrap("cli.main", cli.main, on_result=exit_code)
