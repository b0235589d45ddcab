"""Acceptance criteria, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Each test prints a
summary line with the measured numbers and asserts the stated tolerance and
time budget.
"""

import math
import resource
import time
from fractions import Fraction

import numpy as np
import pytest

from scottlab.coherent import (
    CoherentParams,
    PhasePoint,
    _factor_rank,
    _trial_nodes,
    gaussian_moment_cancellation,
    harmonic_symbol,
    representation_error_norm,
    resolution_of_identity_check,
    schrodinger_operator,
    trial_density_matrix,
    weight_w,
)
from scottlab.numerics import Grid1D, _row_workers
from scottlab.scott import (
    hydrogen_exact_sum,
    hydrogen_expansion_check,
    scott_experiment_tf,
)
from scottlab.semiclassics import WeylSpec, weyl_energy
from scottlab.spectra import RadialProblem, neg_sum_radial
from scottlab.thomas_fermi import atomic_tf, coulomb_energy_D
from scottlab import cli

from reference import (
    PartitionPair,
    ims_identity_check,
    ode_residual_norm,
    tf_scaling_transform,
)


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    def check(self, label):
        elapsed = time.perf_counter() - self.start
        print(f"{label} [{elapsed:.1f}s of {self.limit:.0f}s allowed]")
        assert elapsed < self.limit, f"budget exceeded: {elapsed:.1f}s"


def minor_faults() -> int:
    """Minor page faults of this process so far: pages it touched fresh."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def test_criterion_1_hydrogen_exact_sum():
    budget = Budget(1.0)
    value = hydrogen_exact_sum(1, 0.1)
    assert value == -70.0
    for K in range(1, 51):
        exp = hydrogen_expansion_check(1, K)
        assert exp.remainder == Fraction(K, 6)
    budget.check("criterion 1 PASS: sum(z=1, h=0.1) = -70 exactly, "
                 "remainder = K/6 for K = 1..50")


def test_criterion_2_radial_sum_matches_closed_form():
    budget = Budget(120.0)
    devs = []
    for h in (0.2, 0.1):
        spacing = min(h / 8.0, h * h / 5.0)
        prob = RadialProblem.build(
            lambda r: 1.0 / r, h=h, r_max=6.0, spacing=spacing
        )
        quantum = neg_sum_radial(prob, shift=1.0).total.value
        exact = hydrogen_exact_sum(1, h)
        dev = abs(quantum - exact) / abs(exact)
        devs.append(dev)
        assert dev < 0.01, f"h={h}: {quantum} vs {exact} ({dev:.2%})"
    budget.check(
        "criterion 2 PASS: radial Coulomb sum within "
        f"{max(devs):.2%} of the Bohr closed form at h = 0.2, 0.1"
    )


def test_criterion_3_weyl_shifted_coulomb():
    budget = Budget(1.0)
    value = weyl_energy(
        WeylSpec(n=3, potential=lambda r: -1.0 / r + 1.0, h=1.0)
    )
    assert value == pytest.approx(-1.0 / 12.0, abs=1e-6)
    budget.check(f"criterion 3 PASS: Weyl integral {value:.9f} = -1/12 within 1e-6")


def test_criterion_4_tf_atom(universal, atom_z1):
    budget = Budget(30.0)
    slope = universal.initial_slope
    assert slope == pytest.approx(-1.588071, abs=1e-4)
    resid = ode_residual_norm(universal)
    assert resid < 1e-6
    count = atom_z1.electron_count()
    assert count == pytest.approx(1.0, abs=1e-4)
    lhs = 2.0 * weyl_energy(
        WeylSpec(n=3, potential=lambda r: -atom_z1.v_tf(r), h=2**-0.5)
    )
    rhs = atom_z1.E_TF + atom_z1.D_rho
    assert lhs == pytest.approx(rhs, rel=1e-3)
    budget.check(
        f"criterion 4 PASS: slope {slope:.6f}, residual {resid:.2e}, "
        f"charge {count:.6f}, energy identity rel "
        f"{abs(lhs - rhs) / abs(rhs):.2e}"
    )


def test_criterion_5_tf_scaling_between_charges():
    budget = Budget(60.0)
    # independent solves: neither atom is derived from the other
    sol1 = atomic_tf(1.0)
    sol8 = atomic_tf(8.0)
    moved = tf_scaling_transform(sol1, 0.5)  # z -> 8, gamma = 1/2
    assert moved.z == pytest.approx(8.0)
    r = np.geomspace(1e-3, 5.0, 200)
    rel = np.max(np.abs(moved.v_tf(r) / sol8.v_tf(r) - 1.0))
    assert rel < 1e-3
    ratio = sol8.E_TF / sol1.E_TF
    assert ratio == pytest.approx(8.0 ** (7.0 / 3.0), rel=1e-3)
    budget.check(
        f"criterion 5 PASS: gamma = 1/2 potential map within {rel:.2e} "
        f"pointwise, energy ratio {ratio:.4f} vs 8^(7/3)"
    )


def test_criterion_6_scott_coefficient(scott_z1):
    budget = Budget(1200.0)
    coeff = scott_z1.fit.coefficient(-2.0)
    assert 0.115 <= coeff <= 0.135, f"coefficient {coeff} escapes [0.115, 0.135]"
    halved = scott_experiment_tf(1.0, scott_z1.h_values, spacing_scale=0.5)
    drift = abs(halved.fit.coefficient(-2.0) - coeff)
    assert drift <= 0.005, f"grid-halving drift {drift}"
    budget.check(
        f"criterion 6 PASS: Scott coefficient {coeff:.6f} (target 1/8), "
        f"grid-halving drift {drift:.2e}"
    )


def _weight_deviation(p):
    alpha = p.a / (1.0 - p.h * p.a)
    half = 9.0 / math.sqrt(alpha)
    t = np.linspace(-half, half, 801)
    w = weight_w(p, t[:, None], t[None, :])
    dt = t[1] - t[0]
    return abs(float(np.trapezoid(np.trapezoid(w, dx=dt), dx=dt)) - 1.0)


def _representation_grid(p, half_width):
    dx = min(p.h, 1.0 / math.sqrt(p.b)) / 6.0
    n = int(round(2.0 * half_width / dx)) + 1
    return Grid1D.uniform(-half_width, half_width, n)


def test_criterion_7_coherent_identities():
    budget = Budget(300.0)
    h_values = (0.4, 0.2, 0.1)
    half_widths = {0.4: 5.0, 0.2: 4.0, 0.1: 4.0}
    weight_devs, resolution_devs, cancels, ratios = [], [], [], []
    seconds, faults, ranks = [], [], []
    for h in h_values:
        start, faults_before = time.perf_counter(), minor_faults()
        p = CoherentParams(h=h, a=h**-0.8)
        ranks.append(_factor_rank(p))
        weight_devs.append(_weight_deviation(p))

        res_grid = _representation_grid(p, 7.0)
        psi = np.exp(-res_grid.points**2)
        psi /= np.linalg.norm(psi)
        resolution_devs.append(resolution_of_identity_check(p, psi, res_grid))
        if h > 0.1:
            # second Gaussian vector, offset and wider
            psi2 = np.exp(-((res_grid.points - 0.5) ** 2) / 1.5)
            psi2 /= np.linalg.norm(psi2)
            resolution_devs.append(resolution_of_identity_check(p, psi2, res_grid))

        cancels.append(
            abs(gaussian_moment_cancellation(harmonic_symbol(), p, PhasePoint(0.3, -0.7)))
        )

        err = representation_error_norm(
            harmonic_symbol(), p, _representation_grid(p, half_widths[h])
        )
        ratios.append(err / (p.h**2 * p.b))
        seconds.append(time.perf_counter() - start)
        faults.append(minor_faults() - faults_before)

    assert max(weight_devs) < 1e-8, f"weight normalization {max(weight_devs):.2e}"
    assert max(resolution_devs) < 1e-6, f"resolution {max(resolution_devs):.2e}"
    assert max(cancels) < 1e-8, f"cancellation {max(cancels):.2e}"
    stability = max(ratios) / min(ratios)
    assert stability < 2.0, f"representation ratio stability {stability:.3f}"
    budget.check(
        f"criterion 7 PASS: weight {max(weight_devs):.1e}, resolution "
        f"{max(resolution_devs):.1e}, cancellation {max(cancels):.1e}, "
        f"err/(h^2 b) stability {stability:.3f} over h = 0.4, 0.2, 0.1; "
        + ", ".join(
            f"{s:.2f}s, {f} minor faults and factor rank {k} at h = {h}"
            for s, f, k, h in zip(seconds, faults, ranks, h_values)
        )
    )


def test_criterion_8_trial_density_upper_bound(mapped_rows, column_blocks):
    budget = Budget(300.0)
    sym = harmonic_symbol(offset=-1.0)
    support = 1.5
    constants = []
    seconds = []
    faults = []
    sizes = []
    for h in (0.2, 0.1):
        start, faults_before = time.perf_counter(), minor_faults()
        column_blocks.clear()
        p = CoherentParams(h=h, a=h**-0.8)
        sigma_spread = 1.0 / math.sqrt(2.0 * p.a)
        q_half = 1.0 + 10.0 / math.sqrt(p.a)
        half = support + 7.0 * sigma_spread + 0.5
        dx = math.pi * p.h / (q_half + 5.0 * sigma_spread)
        n = 2 * int(math.ceil(half / dx)) + 1
        grid = Grid1D.uniform(-half, half, n)

        gamma = trial_density_matrix(sym, p, grid, support_radius=support)
        w = gamma.eigenvalues()
        assert w[0] >= -1e-6 and w[-1] <= 1.0 + 1e-6, (
            f"h={h}: spectrum [{w[0]:.2e}, {w[-1]:.8f}]"
        )

        H = schrodinger_operator(sym, grid, p.h)
        energy = float(np.real(np.sum(H.matrix * gamma.matrix.T)))
        assert energy >= H.negative_sum()

        weyl = weyl_energy(WeylSpec(n=1, potential=lambda u: u * u - 1.0, h=h))
        c_h = (energy - weyl) * h ** (1.0 - 6.0 / 5.0)
        assert c_h > 0.0
        constants.append(c_h)
        seconds.append(time.perf_counter() - start)
        faults.append(minor_faults() - faults_before)
        us, qs, _ = _trial_nodes(sym, p, grid, support)
        sizes.append(
            f"{grid.size} points, {us.size} u-rows ({len(mapped_rows[-1])} solved) "
            f"x {qs.size} q-nodes, {sum(map(sum, column_blocks))} node columns"
        )
    stability = max(constants) / min(constants)
    assert stability < 2.0, f"C drifted by {stability:.3f} under halving"
    budget.check(
        f"criterion 8 PASS: gamma spectra in [0, 1], variational bound holds, "
        f"C(h) = {constants[0]:.4f} -> {constants[1]:.4f} under h halving; "
        f"{seconds[0]:.1f}s and {faults[0]} minor faults at h = 0.2 ({sizes[0]}), "
        f"{seconds[1]:.1f}s and {faults[1]} minor faults at h = 0.1 ({sizes[1]}) "
        f"on {_row_workers()} row workers"
    )


def test_criterion_9_localization_and_cli(tmp_path):
    budget = Budget(120.0)
    grid = Grid1D.uniform(-6.0, 6.0, 256)
    H = schrodinger_operator(harmonic_symbol(offset=-1.0), grid, h=0.2)
    ims = ims_identity_check(H, PartitionPair(R=2.0))
    assert ims < 1e-4

    part = PartitionPair(R=3.0)
    d = np.linspace(0.0, 50.0, 200001)
    closure = np.max(np.abs(part.inner(d) ** 2 + part.outer(d) ** 2 - 1.0))
    assert closure < 1e-10

    r = np.linspace(0.0, 1.0, 20001)
    ball = coulomb_energy_D(r, np.full_like(r, 3.0 / (4.0 * math.pi)))
    assert ball == pytest.approx(0.6, abs=1e-6)

    blobs = set()
    path = tmp_path / "det.csv"
    for _ in range(3):
        status = cli.main(
            ["weyl", "--n", "3", "--potential", "coulomb", "--z", "1",
             "--shift", "1", "--h", "1", "--out", str(path)]
        )
        assert status == 0
        blobs.add(path.read_bytes())
    assert len(blobs) == 1, "CLI output changed between identical runs"
    budget.check(
        f"criterion 9 PASS: IMS {ims:.1e}, partition closure {closure:.1e}, "
        f"D(ball) = {ball:.8f}, CLI byte-identical across 3 runs"
    )
