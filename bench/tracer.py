"""Outside-in span tracer for the scottlab benchmark.

The tracer replaces functions with timing wrappers under the name their
caller looks up (``scottlab.scott.neg_sum_radial``, ``numpy.linalg.eigh``,
...), records one span per call and restores every original when the
``installed()`` block ends.  Nothing in ``scottlab`` itself is edited.

A span holds its name, start, end, parent span, pass id and the counts its
call contributes (matrix rows, grid points, solver nodes).  Spans stay in
memory and are written out by ``dump`` after the run.  Library entry points
shared with the rest of the process (``numpy.linalg.eigh``, ``numpy.fft``,
``scipy.integrate.quad``) are recorded only while a span of the layer that
calls them is open, so they are attributed to that layer alone.

Metric names are ``<module>.<function>.<stat>``: ``s`` is busy time,
``self_s`` busy time minus child spans, ``calls`` the number of calls; other
stats are the counts named in ``SITES``.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager
from functools import wraps


def _rows(name):
    """Summed matrix order of the first argument (stacked batches included)."""

    def counts(args, kwargs, result):
        shape = getattr(args[0], "shape", (len(args[0]),))
        batch = 1
        for extent in shape[:-2]:
            batch *= extent
        return {name: batch * shape[-1]}

    return counts


def _radial_counts(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    return {
        "spectra.grid_points": problem.grid.size,
        "spectra.channels": len(result.channels),
        "spectra.negative_eigenvalues": sum(
            c.negative_eigenvalues.size for c in result.channels
        ),
    }


def _bvp_counts(args, kwargs, result):
    return {
        "thomas_fermi.solve_bvp.nodes": result.x.size,
        "thomas_fermi.solve_bvp.niter": result.niter,
    }


def _coherent_grid(args, kwargs, result):
    grid = kwargs.get("grid")
    if grid is None:
        grid = args[2]
    return {"coherent.grid_points": grid.size}


# (module, attribute, span name, counts, layer that must be open or None)
SITES = (
    ("scottlab.cli", "run", "cli.run", None, None),
    ("scottlab.scott", "scott_experiment_tf", "scott.scott_experiment_tf", None, None),
    ("scottlab.scott", "atomic_tf", "thomas_fermi.atomic_tf", None, None),
    ("scottlab.thomas_fermi", "solve_universal_tf",
     "thomas_fermi.solve_universal_tf", None, None),
    ("scottlab.thomas_fermi", "solve_ivp", "thomas_fermi.solve_ivp", None, None),
    ("scottlab.thomas_fermi", "solve_bvp", "thomas_fermi.solve_bvp", _bvp_counts, None),
    ("scottlab.scott", "neg_sum_radial", "spectra.neg_sum_radial", _radial_counts, None),
    ("scottlab.spectra", "eigvalsh_tridiagonal", "spectra.eigvalsh_tridiagonal",
     _rows("spectra.eigvalsh_tridiagonal.rows"), None),
    ("scottlab.spectra", "eigh_tridiagonal", "spectra.eigh_tridiagonal",
     _rows("spectra.eigh_tridiagonal.rows"), None),
    ("scottlab.scott", "weyl_energy", "semiclassics.weyl_energy", None, None),
    ("scottlab.semiclassics", "weyl_energy", "semiclassics.weyl_energy", None, None),
    ("scipy.integrate", "quad", "semiclassics.quad", None, "semiclassics"),
    ("scottlab.coherent", "resolution_of_identity_check",
     "coherent.resolution_of_identity_check", _coherent_grid, None),
    ("scottlab.coherent", "representation_error_norm",
     "coherent.representation_error_norm", _coherent_grid, None),
    ("scottlab.coherent", "trial_density_matrix", "coherent.trial_density_matrix",
     _coherent_grid, None),
    ("numpy.linalg", "eigh", "coherent.eigh", _rows("coherent.eigh.rows"), "coherent"),
    ("numpy.fft", "fft", "coherent.fft", None, "coherent"),
    ("numpy.fft", "ifft", "coherent.fft", None, "coherent"),
)

# every per-layer metric the traced run reports, in report order
METRICS = {
    "spectra.neg_sum_radial.s": "s",
    "spectra.neg_sum_radial.self_s": "s",
    "spectra.neg_sum_radial.calls": "count",
    "spectra.eigvalsh_tridiagonal.s": "s",
    "spectra.eigvalsh_tridiagonal.calls": "count",
    "spectra.eigvalsh_tridiagonal.rows": "count",
    "spectra.eigh_tridiagonal.s": "s",
    "spectra.eigh_tridiagonal.calls": "count",
    "spectra.eigh_tridiagonal.rows": "count",
    "spectra.grid_points": "count",
    "spectra.channels": "count",
    "spectra.negative_eigenvalues": "count",
    "thomas_fermi.solve_universal_tf.s": "s",
    "thomas_fermi.solve_universal_tf.calls": "count",
    "thomas_fermi.atomic_tf.self_s": "s",
    "thomas_fermi.solve_ivp.calls": "count",
    "thomas_fermi.solve_bvp.s": "s",
    "thomas_fermi.solve_bvp.nodes": "count",
    "thomas_fermi.solve_bvp.niter": "count",
    "semiclassics.weyl_energy.s": "s",
    "semiclassics.weyl_energy.calls": "count",
    "semiclassics.quad.s": "s",
    "semiclassics.quad.calls": "count",
    "scott.scott_experiment_tf.s": "s",
    "scott.scott_experiment_tf.self_s": "s",
    "coherent.resolution_of_identity_check.s": "s",
    "coherent.resolution_of_identity_check.calls": "count",
    "coherent.representation_error_norm.s": "s",
    "coherent.representation_error_norm.calls": "count",
    "coherent.fft.calls": "count",
    "coherent.trial_density_matrix.s": "s",
    "coherent.trial_density_matrix.self_s": "s",
    "coherent.trial_density_matrix.calls": "count",
    "coherent.eigh.s": "s",
    "coherent.eigh.calls": "count",
    "coherent.eigh.rows": "count",
    "coherent.grid_points": "count",
    "cli.run.s": "s",
    "cli.run.self_s": "s",
    "trace.pass_s": "s",
    "trace.top_spans_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "counts")

    def __init__(self, name, parent, pass_id):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.pass_id = pass_id
        self.counts = None


class Tracer:
    """Span recorder; ``installed()`` swaps the wrappers in and back out."""

    def __init__(self, sites=SITES):
        self.sites = sites
        self.spans: list[Span] = []
        self.pass_id = None
        self._stack: list[int] = []
        self._open_layers: dict[str, int] = {}
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, original, name, counts, inside):
        layer = name.split(".", 1)[0]
        tracer = self

        @wraps(original)
        def wrapper(*args, **kwargs):
            if inside is not None and not tracer._open_layers.get(inside):
                return original(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent, tracer.pass_id)
            tracer.spans.append(span)
            tracer._stack.append(index)
            tracer._open_layers[layer] = tracer._open_layers.get(layer, 0) + 1
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open_layers[layer] -= 1
                tracer._stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every site with its wrapper; restore the originals on exit."""
        try:
            for module_name, attr, name, counts, inside in self.sites:
                owner = importlib.import_module(module_name)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counts, inside))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------

    def pass_stats(self, pass_id) -> dict[str, float]:
        """Per-layer totals of one pass, keyed by metric name."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.pass_id == pass_id and span.parent is not None:
                child_time[span.parent] = (
                    child_time.get(span.parent, 0.0) + span.end - span.start
                )
        stats: dict[str, float] = {"trace.top_spans_s": 0.0, "trace.spans": 0}
        for index, span in enumerate(self.spans):
            if span.pass_id != pass_id:
                continue
            busy = span.end - span.start
            for stat, value in (
                ("s", busy),
                ("self_s", busy - child_time.get(index, 0.0)),
                ("calls", 1),
            ):
                key = f"{span.name}.{stat}"
                stats[key] = stats.get(key, 0) + value
            for key, value in (span.counts or {}).items():
                stats[key] = stats.get(key, 0) + value
            if span.parent is None:
                stats["trace.top_spans_s"] += busy
            stats["trace.spans"] += 1
        return stats

    def dump(self, path) -> None:
        doc = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "pass": s.pass_id,
                "counts": s.counts or {},
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": doc}, fh)


def _noop():
    return None


def span_cost() -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""
    samples = 20000
    tracer = Tracer(sites=())
    wrapped = tracer._wrap(_noop, "bench.noop", None, None)
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(samples):
            _noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        costs.append((time.perf_counter() - t0 - bare) / samples)
        tracer.spans.clear()
    return max(statistics.median(costs), 0.0)
