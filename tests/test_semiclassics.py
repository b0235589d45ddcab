"""Weyl integrals against closed forms and a Monte Carlo cross-check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from scottlab import semiclassics
from scottlab.numerics import Bump
from scottlab.semiclassics import (
    WeylSpec,
    _bisect,
    _cuts,
    local_trace_experiment,
    unit_ball_volume,
    weyl_energy,
    weyl_prefactor,
)


class TestBallVolume:
    def test_table(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)

    def test_weyl_prefactor(self):
        assert weyl_prefactor(3) == pytest.approx(-1.0 / (15.0 * math.pi**2), rel=1e-15)
        assert weyl_prefactor(1, h=0.5) == pytest.approx(-4.0 / (3.0 * math.pi), rel=1e-15)


def scalar(potential, x):
    """potential at the single point x, as a float."""
    return float(np.asarray(potential(np.asarray([x], dtype=float))).reshape(-1)[0])


def looped_bisection(potential, lo, hi):
    """One bracket's edge, bisected on its own, in scalar arithmetic."""
    neg_lo = scalar(potential, lo) < 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-14 + 1e-14 * abs(mid):
            return mid
        if (scalar(potential, mid) < 0.0) == neg_lo:
            lo = mid
        else:
            hi = mid


def looped_cuts(potential, points):
    """_cuts with its sign changes found by walking the point pairs one by
    one, each bisected on its own."""
    neg = np.asarray(potential(points), dtype=float) < 0.0
    edges = [
        looped_bisection(potential, float(points[i]), float(points[i + 1]))
        for i in range(len(points) - 1)
        if neg[i] != neg[i + 1]
    ]
    return sorted([float(x) for x in points] + edges), neg.tolist()


class TestCuts:
    @pytest.mark.parametrize(
        "potential, count, open_end",
        [
            (lambda x: (x * x - 1.0) * (x * x - 4.0), 2, False),
            (lambda x: (x * x - 1.0) * (x * x - 4.0) * (2.5 - x), 3, True),
            (lambda x: x * x + 1.0, 0, False),
        ],
        ids=["two-wells", "open-tail", "nowhere-negative"],
    )
    def test_same_cuts_as_the_probe_loop(self, potential, count, open_end):
        probes = np.linspace(-3.0, 3.0, 64)
        cuts, neg = _cuts(potential, probes)
        # the segments of {V < 0}: runs of panels with V < 0 at the midpoint,
        # as the position integral takes them without a bump
        inside = np.asarray(potential(0.5 * (cuts[:-1] + cuts[1:]))) < 0.0
        starts = inside & ~np.concatenate([[False], inside[:-1]])
        assert (int(starts.sum()), bool(neg[-1])) == (count, open_end)
        # bitwise: the same bisection steps on the same brackets, in order
        assert (cuts.tolist(), neg.tolist()) == looped_cuts(potential, probes)
        # each edge within 2e-14 (1 + |x|) of scipy's brentq root: both are
        # within their tolerance of the true one
        edges = sorted(set(cuts.tolist()) - set(probes.tolist()))
        assert len(edges) == 2 * count - open_end
        for edge in edges:
            i = np.searchsorted(probes, edge)
            root = optimize.brentq(
                lambda s: scalar(potential, s), probes[i - 1], probes[i],
                xtol=1e-14, rtol=1e-14,
            )
            assert abs(edge - root) <= 2e-14 * (1.0 + abs(root))

    def test_few_potential_calls(self):
        # u^2 - 1 on the n = 1 probes: two brackets 2.5 wide take 48 steps
        # each to 1e-14, one call per _LOOKAHEAD of them after the sign read
        calls = []

        def potential(x):
            calls.append(x.size)
            return x * x - 1.0

        cuts, _ = _cuts(potential, np.linspace(-1e4, 1e4, 8001))
        assert cuts.size == 8003
        assert len(calls) <= 10


class TestBisection:
    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(-4.0, 0.99),
        b=st.floats(1.01, 6.0),
        shift=st.floats(-0.5, 0.5),
    )
    def test_within_tolerance_of_scipys_brentq(self, a, b, shift):
        # a cubic with one root in (a, b), near 1 + shift/3, and an
        # oscillating one; both roots within 1e-14 (1 + |x|) of the true one
        for f in (
            lambda x: (x - 1.0 - shift / 3.0) * (x * x + 1.0),
            lambda x: np.tanh(3.0 * (x - 1.0)) + 0.1 * np.sin(5.0 * x) * shift,
        ):
            if (scalar(f, a) < 0) == (scalar(f, b) < 0):
                continue
            root = optimize.brentq(f, a, b, xtol=1e-14, rtol=1e-14)
            neg_lo = np.array([scalar(f, a) < 0])
            edge = _bisect(f, np.array([a]), np.array([b]), neg_lo, 1e-14, 1e-14)
            assert abs(edge[0] - root) <= 2e-14 * (1.0 + abs(root))

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError, match="NaN at x = 0.5"):
            _bisect(
                lambda x: np.where(x > 0.0, np.nan, -1.0),
                np.array([-1.0]), np.array([2.0]), np.array([True]), 1e-14, 1e-14,
            )

    def test_nan_off_the_path_is_not_read(self):
        # the first step goes to [-1, 0.5], so the samples past 1 that the
        # potential was asked for lie off the path
        seen = []

        def potential(x):
            seen.append(x.copy())
            return np.where(x > 1.0, np.nan, x - 0.3)

        edge = _bisect(
            potential, np.array([-1.0]), np.array([2.0]), np.array([True]), 1e-14, 1e-14
        )
        assert np.any(np.concatenate(seen) > 1.0)
        assert abs(edge[0] - 0.3) <= 2e-14


def quad_position_integral(spec, cuts, tail=False):
    """int bump^2 |V_-|^(n/2+1) (4 pi r^2 for n = 3) by scipy's quad, panel by
    panel over the consecutive cuts, plus [cuts[-1], inf) with tail."""
    power = spec.n / 2.0 + 1.0

    def integrand(x):
        w = max(-scalar(spec.potential, x), 0.0) ** power
        if spec.bump is not None:
            w *= float(spec.bump(x)) ** 2
        return w * (4.0 * math.pi * x * x if spec.n == 3 else 1.0)

    bounds = list(zip(cuts[:-1], cuts[1:])) + ([(cuts[-1], np.inf)] if tail else [])
    return sum(
        integrate.quad(integrand, a, b, epsabs=1e-15, epsrel=1e-13, limit=400)[0]
        for a, b in bounds
    )


class TestQuadratureAgainstScipy:
    @pytest.mark.parametrize("case", ["harmonic", "coulomb", "tf", "bump1", "bump3"])
    def test_within_1e_12_of_quad(self, atom_z1, case):
        ladder = list(np.geomspace(1e-9, 1e7, 35))
        if case == "harmonic":
            spec = WeylSpec(n=1, potential=lambda x: x * x - 1.0)
            cuts, tail = [-1.0, 1.0], False
        elif case == "coulomb":
            spec = WeylSpec(n=3, potential=lambda r: -1.0 / r + 1.0)
            cuts, tail = [0.0, 1.0], False
        elif case == "tf":
            spec = WeylSpec(n=3, potential=lambda r: -atom_z1.v_tf(r), h=2**-0.5)
            cuts, tail = [0.0] + ladder, True
        elif case == "bump1":
            bump = Bump(center=0.3, radius=1.2)
            spec = WeylSpec(n=1, potential=lambda x: x * x - 1.0, bump=bump)
            cuts, tail = [-0.9, -0.3, 0.9, 1.5], False
        else:  # local-trace --n 3: a well whose edge lies in the bump's plateau
            spec = WeylSpec(
                n=3,
                potential=lambda r: np.where(r < 1.0, -((1.0 - r * r) ** 2), 0.0),
                bump=Bump(center=0.0, radius=2.0),
            )
            cuts, tail = [0.0, 1.0, 2.0], False
        expect = quad_position_integral(spec, cuts, tail)
        expect *= weyl_prefactor(spec.n, spec.h)
        assert weyl_energy(spec) == pytest.approx(expect, rel=1e-12, abs=0.0)


    @pytest.mark.parametrize("offset", [1e-2, 1e-3, 5e-4, 1e-5])
    def test_turning_point_just_past_a_plateau_edge(self, offset):
        # the plateau's right edge lies offset below the turning point x = 1;
        # cut only there, the sliver [1 - offset, 1] missed every Kronrod
        # node and read as zero (4.5e-8 relative at offset 1e-3)
        bump = Bump(center=0.5 - offset, radius=1.0)
        spec = WeylSpec(n=1, potential=lambda x: x * x - 1.0, bump=bump)
        c = bump.center
        cuts = [c - 1.0, c - 0.5, c + 0.5, 1.0, c + 1.0]
        expect = weyl_prefactor(1) * quad_position_integral(spec, cuts)
        assert weyl_energy(spec) == pytest.approx(expect, rel=1e-12, abs=0.0)


class TestWeylEnergy:
    def test_tf_integrand_starts_from_decade_panels(self, monkeypatch, atom_z1):
        # -V_TF < 0 on every probe interval of [1e-9, 1e7]: joined into
        # panels no wider than a decade, plus (0, 1e-9), the refinement
        # starts from 18 panels, where one per probe interval was 800
        starts = []
        refine = semiclassics._refine

        def counted(f, a, b, span):
            starts.append(a.size)
            return refine(f, a, b, span)

        monkeypatch.setattr(semiclassics, "_refine", counted)
        spec = WeylSpec(n=3, potential=lambda r: -atom_z1.v_tf(r), h=2**-0.5)
        value = weyl_energy(spec)
        assert starts[0] <= 20 and starts[1:] == [1]  # then the tail past 1e7
        assert value == pytest.approx(-0.25624837473788964, rel=1e-14, abs=0.0)

    def test_ball_indicator(self):
        # |V_-|^(5/2) integrates to the ball volume
        spec = WeylSpec(n=3, potential=lambda r: -1.0 * (r < 1.0), h=1.0)
        assert weyl_energy(spec) == pytest.approx(-4.0 / (45.0 * math.pi), rel=1e-6)

    def test_shifted_coulomb(self):
        # -1/|u| + 1 at h = 1 gives exactly -1/12
        spec = WeylSpec(n=3, potential=lambda r: -1.0 / r + 1.0, h=1.0)
        assert weyl_energy(spec) == pytest.approx(-1.0 / 12.0, abs=1e-6)

    def test_1d_harmonic(self):
        # int (1 - x^2)^(3/2) = 3 pi / 8, so the energy is -1/(4h)
        spec = WeylSpec(n=1, potential=lambda x: x * x - 1.0, h=0.5)
        assert weyl_energy(spec) == pytest.approx(-0.5, rel=1e-9)

    def test_h_prefactor_scaling(self):
        def v(r):
            return -1.0 / r + 1.0

        w1 = weyl_energy(WeylSpec(n=3, potential=v, h=1.0))
        w2 = weyl_energy(WeylSpec(n=3, potential=v, h=0.5))
        assert w2 == pytest.approx(8.0 * w1, rel=1e-12)

    def test_well_strictly_inside_one_bump_panel(self):
        # V < 0 on (0.5, 1.5), within the plateau panel [-1.5, 1.5]: no cut
        # sees a sign change, so only that panel's Kronrod nodes find the
        # well, and every bump panel must be integrated.  The closed form
        # is -(2 / (3 pi)) (3 pi / 8) (1/2)^4 = -1/64
        bump = Bump(center=0.0, radius=3.0)
        spec = WeylSpec(n=1, potential=lambda x: (x - 1.0) ** 2 - 0.25, bump=bump)
        assert weyl_energy(spec) == pytest.approx(-1.0 / 64.0, rel=1e-12, abs=0.0)

    def test_positive_potential_gives_zero(self):
        spec = WeylSpec(n=1, potential=lambda x: x * x + 0.5, h=1.0)
        with pytest.warns(UserWarning, match="exactly 0"):
            assert weyl_energy(spec) == 0.0

    @pytest.mark.parametrize(
        "depth, bump, sampling",
        [
            (1e-2, None, "8001 probes 2.5 apart on [-10000, 10000]"),
            (1e-4, Bump(0.0, 2.0), "the bump's cuts -2, -1, 1, 2 and the Kronrod"),
        ],
        ids=["between-probes", "between-kronrod-nodes"],
    )
    def test_well_narrower_than_the_sampling_warns(self, depth, bump, sampling):
        # (x - 0.7)^2 - depth is a well of width 2 sqrt(depth) and energy
        # -(2 / (3 pi)) (3 pi / 8) depth^2 = -depth^2 / 4, but it falls
        # between the sample points and the Kronrod nodes: 0, with a warning
        # naming the sampling instead of a silent 0
        spec = WeylSpec(n=1, potential=lambda x: (x - 0.7) ** 2 - depth, bump=bump)
        with pytest.warns(UserWarning) as caught:
            assert weyl_energy(spec) == 0.0
        [message] = [str(w.message) for w in caught]
        assert message.startswith("Weyl position integral is exactly 0")
        assert sampling in message

    def test_bump_weight_matches_quadrature(self):
        # constant well: the integral reduces to the bump's squared mass
        bump = Bump(center=0.0, radius=2.0)
        spec = WeylSpec(n=1, potential=lambda x: -np.ones_like(x), bump=bump, h=1.0)
        x = np.linspace(-2.0, 2.0, 200001)
        mass = float(np.trapezoid(bump(x) ** 2, x))
        expect = -(2.0 * 2.0 / 3.0) / (2.0 * math.pi) * mass
        assert weyl_energy(spec) == pytest.approx(expect, rel=1e-8)

    def test_monte_carlo_cross_check(self):
        # independent estimate of int (1 - x^2)^(3/2) over [-1, 1]
        rng = np.random.default_rng(123)
        x = rng.uniform(-1.0, 1.0, 40000)
        samples = (1.0 - x * x) ** 1.5
        mc = 2.0 * float(np.mean(samples))
        sigma = 2.0 * float(np.std(samples)) / math.sqrt(x.size)
        spec = WeylSpec(n=1, potential=lambda t: t * t - 1.0, h=1.0)
        integral = -weyl_energy(spec) * 2.0 * math.pi / (2.0 * 2.0 / 3.0)
        assert abs(integral - mc) < 3.0 * sigma

    def test_non_integrable_tail_raises(self):
        spec = WeylSpec(n=1, potential=lambda x: -(x * x), h=1.0)
        with pytest.raises(ValueError, match="position integral"):
            weyl_energy(spec)

    @pytest.mark.parametrize("n, bump", [(1, None), (3, None), (1, Bump(0.0, 2.0))])
    def test_nan_inside_a_negative_segment_raises(self, n, bump):
        # V = x^2 - 1 but NaN on (0.2, 0.4), inside the well: no finite Weyl
        # energy comes out, whether the quadrature meets the NaN (n = 1, no
        # probe there) or the bisection does (n = 3, probes there)
        def potential(x):
            x = np.asarray(x, dtype=float)
            return np.where((x > 0.2) & (x < 0.4), np.nan, x * x - 1.0)

        message = "position integral" if n == 1 else "NaN at x"
        with pytest.raises(ValueError, match=message):
            weyl_energy(WeylSpec(n=n, potential=potential, bump=bump))

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError, match="n = 1 and n = 3"):
            WeylSpec(n=2, potential=lambda x: -x)
        with pytest.raises(ValueError, match="h must be positive"):
            WeylSpec(n=1, potential=lambda x: -x, h=0.0)
        # vanishing at every r > 0, this bump would give a Weyl term of 0
        with pytest.raises(ValueError, match="must reach some radius r > 0"):
            WeylSpec(n=3, potential=lambda r: -1.0 / r, bump=Bump(-3.0, 2.0))


class TestLocalTrace:
    def test_1d_harmonic_sweep(self):
        # plateau covers the well, so the Weyl term is exactly -1/(4h);
        # the level sum oscillates around it as h moves (and matches it
        # exactly whenever 1/(2h) is an integer), so only convergence and
        # bookkeeping are asserted, not a residual rate
        bump = Bump(center=0.0, radius=3.0)
        sweep = local_trace_experiment(
            lambda x: x * x - 1.0, bump, (0.4, 0.2, 0.1), n=1
        )
        assert sweep.h_values == (0.4, 0.2, 0.1) and sweep.left_out == ()
        for row in sweep.results:
            assert row.scott_term == 0.0
            assert row.weyl_sum == pytest.approx(-1.0 / (4.0 * row.h), rel=1e-9)
            assert row.quantum_sum == pytest.approx(row.weyl_sum, rel=0.08)
            assert row.residual == row.quantum_sum - row.weyl_sum
        assert math.isfinite(sweep.fit.coefficient(6.0 / 5.0 - 1.0))

    def test_rejects_bad_arguments(self):
        bump = Bump(center=0.0, radius=3.0)
        v = lambda x: x * x - 1.0
        with pytest.raises(ValueError, match="strictly decreasing"):
            local_trace_experiment(v, bump, (0.1, 0.2), n=1)
        with pytest.raises(ValueError, match="n = 1 and n = 3"):
            local_trace_experiment(v, bump, (0.2, 0.1), n=2)

    @pytest.mark.parametrize("center", [-5.0, -2.4, -2.0])
    def test_radial_bump_must_reach_a_positive_radius(self, center):
        # with center + radius <= 0 the bump vanishes at every r > 0, so the
        # n = 3 trace would be a sum of zeros
        bump = Bump(center=center, radius=2.0)
        with pytest.raises(ValueError, match="must reach some radius r > 0"):
            local_trace_experiment(lambda r: -1.0 / r, bump, (0.4, 0.3), n=3)
