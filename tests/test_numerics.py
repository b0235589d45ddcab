"""Grids, bumps, partitions, fits, h sweeps, and the shared positivity check."""

import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scottlab import numerics
from scottlab.cli import RunConfig, config_from_args
from scottlab.coherent import CoherentParams, harmonic_symbol, trial_density_matrix
from scottlab.numerics import (
    Bump,
    Grid1D,
    GridOperator,
    HSweep,
    PartitionPair,
    _keep_freed_buffers,
    _pinned,
    _pinned_map,
    fit_power_series,
    richardson,
)
from scottlab.scott import scott_experiment_tf, scott_term
from scottlab.semiclassics import WeylSpec, local_trace_experiment
from scottlab.spectra import RadialProblem, TraceResult, neg_sum_1d
from scottlab.thomas_fermi import atomic_tf, tf_length_scale, tf_scaling_transform


class TestGrid:
    def test_uniform_endpoints_and_spacing(self):
        g = Grid1D.uniform(-2.0, 3.0, 11)
        assert g.points[0] == -2.0 and g.points[-1] == 3.0
        assert g.spacing == pytest.approx(0.5)
        assert g.size == 11

    def test_halved_keeps_endpoints(self):
        g = Grid1D.uniform(0.0, 1.0, 9)
        f = g.halved()
        assert f.size == 17
        assert f.points[0] == 0.0 and f.points[-1] == 1.0
        assert f.spacing == pytest.approx(g.spacing / 2)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            Grid1D.uniform(0.0, 1.0, 4)


class TestBump:
    def test_plateau_and_support(self):
        b = Bump(center=0.0, radius=2.0)
        assert b(0.0) == 1.0
        assert b(0.9) == 1.0  # inside the half-radius plateau
        assert b(2.0) == 0.0
        assert b(2.5) == 0.0
        mid = b(1.5)
        assert 0.0 < mid < 1.0

    def test_derivative_matches_finite_difference(self):
        # closed-form slope of step(s) = f(s)/(f(s)+f(1-s)), f(s) = e^{-1/s},
        # composed with s = (1 - |x-c|/R)/(1 - plateau)
        b = Bump(center=0.3, radius=1.7)
        xs = np.linspace(-1.2, 1.9, 401)
        s = (1.0 - np.abs(xs - b.center) / b.radius) / (1.0 - b.plateau)
        inside = (s > 0.0) & (s < 1.0)
        si = s[inside]
        f, g = np.exp(-1.0 / si), np.exp(-1.0 / (1.0 - si))
        step_prime = (f / si**2 * g + f * g / (1.0 - si) ** 2) / (f + g) ** 2
        slope = np.zeros_like(xs)
        slope[inside] = (
            -np.sign(xs[inside] - b.center) * step_prime
            / ((1.0 - b.plateau) * b.radius)
        )
        eps = 1e-6
        fd = (b(xs + eps) - b(xs - eps)) / (2 * eps)
        assert np.max(np.abs(slope - fd)) < 5e-5

    def test_smooth_at_plateau_edge(self):
        # exponential profile: flat to all orders at both seams, so the
        # one-sided slopes agree across the plateau edge
        b = Bump(center=0.0, radius=2.0)
        seam, eps = 1.0, 1e-3
        left = (b(seam) - b(seam - eps)) / eps
        right = (b(seam + eps) - b(seam)) / eps
        assert abs(left - right) < 1e-6

    @given(st.floats(-10, 10))
    def test_range_bounded(self, x):
        b = Bump(center=0.0, radius=3.0)
        assert 0.0 <= b(x) <= 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_center(self, bad):
        with pytest.raises(ValueError, match="bump center must be finite"):
            Bump(center=bad, radius=2.0)


class TestPartition:
    @given(st.floats(0.0, 50.0))
    @settings(max_examples=80)
    def test_quadratic_identity(self, d):
        pair = PartitionPair(R=5.0)
        total = pair.inner(d) ** 2 + pair.outer(d) ** 2
        assert abs(total - 1.0) < 1e-10

    def test_inner_dominates_core(self):
        pair = PartitionPair(R=2.0)
        assert pair.inner(0.0) == 1.0
        assert pair.outer(0.0) == 0.0
        assert pair.inner(1e3) == pytest.approx(0.0, abs=1e-12)


class TestFit:
    def test_recovers_planted_coefficients(self):
        hs = np.array([0.4, 0.2, 0.1, 0.05])
        ys = 3.5 / hs**2 - 1.25 / hs
        fit = fit_power_series(hs, ys, (-2.0, -1.0))
        assert fit.coefficient(-2.0) == pytest.approx(3.5, abs=1e-10)
        assert fit.coefficient(-1.0) == pytest.approx(-1.25, abs=1e-9)
        assert fit.residual_norm < 1e-9

    @given(
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.floats(-5, 5),
    )
    @settings(max_examples=40)
    def test_exact_model_has_zero_residual(self, c2, c1, c0):
        hs = np.array([0.8, 0.5, 0.3, 0.2, 0.12])
        ys = c2 / hs**2 + c1 / hs + c0
        fit = fit_power_series(hs, ys, (-2.0, -1.0, 0.0))
        scale = 1.0 + abs(c2) + abs(c1) + abs(c0)
        assert fit.residual_norm < 1e-7 * scale
        assert fit.coefficient(-2.0) == pytest.approx(c2, abs=1e-6 * scale)

    def test_narrow_range_warns_in_result(self):
        hs = np.array([0.2, 0.15])
        fit = fit_power_series(hs, 1.0 / hs, (-1.0,))
        assert any("factor 2" in w for w in fit.warnings)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_y(self, bad):
        with pytest.raises(ValueError, match="y values must be finite"):
            fit_power_series([0.4, 0.2, 0.1], [1.0, bad, 4.0], (-1.0,))

    def test_unknown_exponent_raises(self):
        fit = fit_power_series(
            np.array([0.4, 0.2, 0.1]), np.array([1.0, 2.0, 4.0]), (-1.0,)
        )
        with pytest.raises(KeyError):
            fit.coefficient(-2.0)


def exact_sweep(hs, exponents, coefficients, values=None, left_out=()):
    """An HSweep whose values follow sum_k c_k h^(e_k), unless given."""
    if values is None:
        values = [sum(c * h**e for e, c in zip(exponents, coefficients)) for h in hs]
    rows = [TraceResult(h=h, quantum_sum=y, weyl_sum=0.0, scott_term=0.0)
            for h, y in zip(hs, values)]
    return HSweep(h_values=hs, results=rows, values=values, exponents=exponents,
                  left_out=left_out)


def reject_h(caller, hs):
    """Hand the h values hs to one of the callers that validate a sweep."""
    if caller in ("scott", "local-trace"):
        argv = ["scott", "--z", "1"] if caller == "scott" else ["local-trace"]
        params = config_from_args(argv + ["--h", "0.4,0.3"]).parameters
        RunConfig(command=caller, parameters={**params, "h_values": hs})
    elif caller == "scott_experiment_tf":
        scott_experiment_tf(1.0, hs)
    elif caller == "local_trace_experiment":
        local_trace_experiment(lambda x: x * x - 1.0, Bump(0.0, 3.0), hs, n=1)
    else:
        exact_sweep(hs, (-1.0,), (1.0,))


class TestHSweep:
    MESSAGE = "h values must be strictly decreasing, two or more for a fit"

    @pytest.mark.parametrize("hs", [(0.1, 0.2), (0.1,)], ids=["increasing", "single"])
    @pytest.mark.parametrize(
        "caller",
        ["scott", "local-trace", "scott_experiment_tf", "local_trace_experiment", "HSweep"],
    )
    def test_one_message_for_h_values_no_sweep_can_fit(self, caller, hs):
        # the command line (exit 2), both experiments and the type all ask
        # the one validator, before any solve
        with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGE)}$"):
            reject_h(caller, hs)

    def test_coherent_check_takes_one_h_but_not_an_increasing_pair(self):
        params = config_from_args(["coherent-check", "--h", "0.4"]).parameters
        RunConfig(command="coherent-check", parameters=params)
        with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGE)}$"):
            RunConfig(command="coherent-check",
                      parameters={**params, "h_values": (0.25, 0.4)})

    def test_fit_spread_vanishes_on_an_exact_model(self):
        hs = (0.12, 0.09, 0.07, 0.05)
        sweep = exact_sweep(hs, (-2.0, -1.0), (0.125, -0.02))
        (scott, h_inverse), shift = sweep.spread()
        assert scott == pytest.approx([0.125] * 2, rel=1e-10)
        assert h_inverse == pytest.approx([-0.02] * 2, rel=1e-8)
        assert abs(shift) < 1e-10
        assert sweep.summary()["coefficients"] == sweep.fit.coefficients
        # two h values leave no fit to drop one from
        pair = exact_sweep(hs[:2], (-2.0, -1.0), (0.125, -0.02))
        assert pair.spread() == ((None, None), None)

    def test_one_exponent_spread(self):
        # local-trace's shape: one fixed exponent, so two h values spread
        hs = (0.4, 0.2)
        sweep = exact_sweep(hs, (-1.8,), (0.01,))
        ((lo, hi),), shift = sweep.spread()
        assert [lo, hi] == pytest.approx([0.01, 0.01], rel=1e-12)
        assert abs(shift) < 1e-12
        assert sweep.warnings == ()

    def test_a_left_out_row_leaves_the_fit_and_its_spread(self):
        hs = (0.4, 0.3, 0.2, 0.1)
        values = [99.0] + [0.5 / h**2 for h in hs[1:]]
        left_out = [{"h": 0.4, "reason": "no negative eigenvalue"}]
        sweep = exact_sweep(hs, (-2.0,), None, values, left_out)
        assert sweep.fit.coefficient(-2.0) == pytest.approx(0.5, rel=1e-12)
        assert sweep.fit.residual_norm < 1e-12
        ((lo, hi),), shift = sweep.spread()
        assert [lo, hi] == pytest.approx([0.5, 0.5], rel=1e-12)
        assert sweep.results[0].quantum_sum == 99.0  # the row itself stays

    def test_exact_fit_warns(self):
        # as many fitted rows as exponents: the fit passes through every
        # row, so its residual is 0 and no row can be left out of it
        exact = ("exact fit: as many rows as exponents ({}), so no residual and "
                 "no leave-one-out range")
        pair = exact_sweep((0.12, 0.05), (-2.0, -1.0), (0.125, -0.02))
        assert pair.fit.residual_norm < 1e-12
        assert pair.warnings == (exact.format(2),)
        left_out = [{"h": 0.4, "reason": "empty"}]
        one = exact_sweep((0.4, 0.2), (-1.8,), (0.01,), left_out=left_out)
        assert one.warnings[-1] == exact.format(1)
        assert exact_sweep((0.4, 0.2), (-1.8,), (0.01,)).warnings == ()

    def test_no_fit_when_fewer_rows_than_exponents_remain(self):
        hs = (0.4, 0.2)
        left_out = [{"h": h, "reason": "empty"} for h in hs[1:]]
        sweep = exact_sweep(hs, (-2.0, -1.0), (1.0, 1.0), left_out=left_out)
        assert sweep.fit is None and sweep.summary() is None
        assert sweep.spread() == ((None, None), None)
        assert sweep.warnings == (
            "no fit: 1 of 2 rows are left out of it, too few remain for the "
            "exponents [-2.0, -1.0]",
        )
        with pytest.raises(ValueError, match="one of the h values"):
            exact_sweep(hs, (-1.0,), (1.0,), left_out=[{"h": 0.3, "reason": ""}])


class TestRichardson:
    def test_cancels_second_order_error(self):
        exact = 2.0
        coarse = exact + 0.04
        fine = exact + 0.01  # error ratio 4 at order 2
        assert richardson(coarse, fine) == pytest.approx(exact)


class TestPinnedMap:
    def test_results_in_item_order(self, blas_pins):
        def late_first(i):
            time.sleep(0.002 * (8 - i))  # later items finish first
            return i * i

        assert list(_pinned_map(late_first, list(range(8)))) == [
            i * i for i in range(8)
        ]
        assert [get() for get in blas_pins] == [2] * len(blas_pins)

    def test_worker_exception_reaches_the_caller(self, blas_pins):
        raised_in = []

        def fail_at_three(i):
            if i == 3:
                raised_in.append(threading.current_thread())
                raise RuntimeError("item 3 failed")
            return i

        results = _pinned_map(fail_at_three, list(range(6)))
        assert [next(results) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(RuntimeError, match="item 3 failed"):
            next(results)
        assert raised_in and threading.main_thread() not in raised_in
        assert [get() for get in blas_pins] == [2] * len(blas_pins)

    def test_early_close_restores_the_pins(self, blas_pins):
        if not blas_pins:
            pytest.skip("no bundled OpenBLAS to pin")
        def counts(_):
            return [get() for get in blas_pins]

        results = _pinned_map(counts, list(range(6)))
        assert next(results) == [1] * len(blas_pins)
        assert [get() for get in blas_pins] == [1] * len(blas_pins)
        results.close()
        assert [get() for get in blas_pins] == [2] * len(blas_pins)

    def test_successive_maps_run_on_the_same_worker_threads(self, blas_pins):
        # each pair of items meets at the barrier, so each map uses both
        # workers; a pool started per map would bring new threads
        barrier = threading.Barrier(2)

        def worker(_):
            barrier.wait(timeout=30)
            return threading.current_thread()

        first, second = (set(_pinned_map(worker, list(range(4)))) for _ in range(2))
        assert len(first) == 2 and threading.main_thread() not in first
        assert second == first

    def test_one_usable_cpu_runs_every_item_on_one_thread(self, monkeypatch):
        monkeypatch.setattr(numerics, "_usable_cpus", lambda: 1)
        threads = set(_pinned_map(lambda _: threading.current_thread(), list(range(6))))
        assert len(threads) == 1 and threading.main_thread() not in threads

    def test_nested_map_raises_instead_of_waiting_on_its_own_pool(self, blas_pins):
        # one outer item, so a second worker is free: without the check the
        # nested map would run there rather than hang this test
        def nested(i):
            return list(_pinned_map(abs, [i]))

        with pytest.raises(RuntimeError, match="inside a pool worker"):
            list(_pinned_map(nested, [-1]))
        assert [get() for get in blas_pins] == [2] * len(blas_pins)
        assert list(_pinned_map(abs, [-1, -2])) == [1, 2]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_a_forked_child_maps_on_fresh_threads(self):
        src = str(Path(numerics.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *sys.path]))
        done = subprocess.run(
            [sys.executable, "-W", "ignore::DeprecationWarning", "-c", FORK_AFTER_MAP],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        assert done.stdout.splitlines()[-1] == "child exit 0", done.stdout


FORK_AFTER_MAP = """
import os, signal

from scottlab import numerics

numerics._usable_cpus = lambda: 2
squares = [i * i for i in range(8)]
assert list(numerics._pinned_map(lambda i: i * i, list(range(8)))) == squares
pid = os.fork()
if pid == 0:
    # the child has none of the parent's pool threads: a map that waited on
    # them would hang, so the alarm ends it
    signal.alarm(30)
    ok = list(numerics._pinned_map(lambda i: i * i, list(range(8)))) == squares
    os._exit(0 if ok else 1)
_, status = os.waitpid(pid, 0)
print("child exit", os.waitstatus_to_exitcode(status))
"""


class TestPinned:
    def test_one_thread_inside_and_restored_after_return_and_raise(self, blas_pins):
        if not blas_pins:
            pytest.skip("no bundled OpenBLAS to pin")

        @_pinned
        def counts(fail):
            if fail:
                raise RuntimeError("pinned call failed")
            return [get() for get in blas_pins]

        assert counts(False) == [1] * len(blas_pins)
        assert [get() for get in blas_pins] == [2] * len(blas_pins)
        with pytest.raises(RuntimeError, match="pinned call failed"):
            counts(True)
        assert [get() for get in blas_pins] == [2] * len(blas_pins)


WARM_FAULTS = """
import json, math, resource, sys

import scottlab.cli
from scottlab import coherent, numerics
from scottlab.numerics import Grid1D


def faults(run):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


if sys.argv[1] == "coherent-check":
    argv = ["coherent-check", "--h", "0.4,0.25", "--out", sys.argv[2]]

    def run():
        assert scottlab.cli.main(argv) == 0
else:
    # the trial-density benchmark's h = 0.6 case, on acceptance criterion
    # 8's grid rule
    p = coherent.CoherentParams(h=0.6, a=0.6 ** -0.8)
    spread = 1.0 / math.sqrt(2.0 * p.a)
    half = 1.5 + 7.0 * spread + 0.5
    dx = math.pi * p.h / (1.0 + 10.0 / math.sqrt(p.a) + 5.0 * spread)
    grid = Grid1D.uniform(-half, half, 2 * math.ceil(half / dx) + 1)
    sym = coherent.harmonic_symbol(offset=-1.0)

    def run():
        coherent.trial_density_matrix(sym, p, grid, support_radius=1.5)

# two warm-up runs, then the faults of each of the next three, every one
# of which is checked: the pool's threads, and the malloc arenas they took
# in the warm-up, outlive the calls, so no warm run starts a thread on a
# fresh arena (whose first use faulted a few hundred pages)
run()
run()
print(json.dumps({
    "active": numerics._KEEPS_FREED_BUFFERS,
    "faults": [faults(run) for _ in range(3)],
}))
"""


class TestAllocatorPolicy:
    @pytest.mark.parametrize("workload", ["coherent-check", "trial-density"])
    def test_warm_runs_fault_in_no_fresh_pages(self, workload, tmp_path):
        # each in a fresh process, whose heap only the package's import has
        # set up: one workload's large frees would raise glibc's dynamic
        # thresholds for the other.  Under glibc's defaults a warm run
        # faulted in 3,600 to 3,900 pages (coherent-check) and 1,300 to 1,400
        # (one trial density) that the run before gave back
        src = str(Path(numerics.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *sys.path]))
        done = subprocess.run(
            [sys.executable, "-c", WARM_FAULTS, workload, str(tmp_path / "out.csv")],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        report = json.loads(done.stdout.splitlines()[-1])
        if not report["active"]:
            pytest.skip("this libc has no working mallopt")
        assert max(report["faults"]) < 200, report

    @pytest.mark.parametrize(
        "libc",
        [SimpleNamespace(), SimpleNamespace(mallopt=lambda param, value: 0)],
        ids=["no-mallopt", "mallopt-refuses"],
    )
    def test_no_working_mallopt_is_a_no_op(self, libc):
        assert _keep_freed_buffers(libc) is False


class TestPositivity:
    """Every h, z, radius and scale the library takes goes through one
    positivity check."""

    CONSTRUCTORS = {
        "CoherentParams": lambda v: CoherentParams(h=v, a=1.0),
        "GridOperator": lambda v: GridOperator(
            matrix=np.eye(8), grid=Grid1D.uniform(0.0, 1.0, 8), h=v
        ),
        "RadialProblem": lambda v: RadialProblem.build(
            lambda r: 1.0 / r, h=v, r_max=1.0, spacing=0.01
        ),
        "neg_sum_1d": lambda v: neg_sum_1d(
            lambda x: -np.ones_like(x), v, Grid1D.uniform(0.0, 1.0, 64)
        ),
        "WeylSpec": lambda v: WeylSpec(n=1, potential=lambda x: x * x - 1.0, h=v),
        "scott_term": lambda v: scott_term([1.0], v),
        "tf_length_scale": tf_length_scale,
        "atomic_tf": atomic_tf,
        "make_bump": lambda v: Bump(center=0.0, radius=v),
        "PartitionPair": lambda v: PartitionPair(R=v),
        "tf_scaling_transform": lambda v: tf_scaling_transform(atomic_tf(1.0), v),
        "trial_density_matrix": lambda v: trial_density_matrix(
            harmonic_symbol(-1.0),
            CoherentParams(h=0.4, a=0.4**-0.8),
            Grid1D.uniform(-4, 4, 33),
            v,
        ),
        "fit_power_series": lambda v: fit_power_series(
            [v, 0.2, 0.1], [1.0, 2.0, 4.0], (-1.0,)
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_zero_negative_and_non_finite(self, name, bad):
        with pytest.raises(ValueError, match="must be positive and finite"):
            self.CONSTRUCTORS[name](bad)
