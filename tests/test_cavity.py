"""Reflection physics and CZ fidelity, cross-checked against independent routes.

Frozen oracle values (computed by the scripts embedded below before they
were frozen, not by the module under test):

* r(0) with one coupled atom at (g, kappa, gamma)/2pi = (27, 2.4, 2.6) MHz
  equals 1 - 2/(1 + 4C) = 0.99572930...
* bare-cavity mode overlap O/sqrt(E) for the standard T = 200/kappa
  Gaussian pulse is -0.99504 (the ring-down delay 4/kappa shifts the
  pulse slightly).
"""

import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from dfsqc import cavity
from dfsqc.cavity import (
    CavityModelError,
    CavityParams,
    PulseSpec,
    cz_diagonal,
    cz_gate_fidelity,
    cz_output_state,
    photon_loss,
    reflection_coefficient,
    _chirp_z,
    _spectral_moments,
)
from dfsqc.config import ScenarioConfig
from dfsqc.scenarios import run_fidelity_sweep, run_g_sweep

MHZ = 2 * math.pi * 1e6


def realistic_params(n_coupled=0) -> CavityParams:
    return CavityParams(27 * MHZ, 2.4 * MHZ, 2.6 * MHZ, n_coupled)


def standard_pulse(alpha=1.26) -> PulseSpec:
    p = realistic_params()
    return PulseSpec(200 / p.kappa, alpha)


def nbar_sweep(values, pulse, p) -> np.ndarray:
    """Uniform-weight CZ fidelity over a grid of mean photon numbers."""
    return np.array([cz_gate_fidelity(None, pulse.with_alpha(math.sqrt(x)), p)
                     for x in values])


def g_sweep(ratios, pulse, p) -> np.ndarray:
    """Uniform-weight CZ fidelity over a grid of coupling ratios."""
    return np.array([cz_gate_fidelity(None, pulse, p.scaled_g(x)) for x in ratios])


def oracle_reflection(omega, g, kappa, gamma, n_coupled):
    """Independent route: solve the driven linear system numerically.

    (kappa/2 - i w) a + i G s = -sqrt(kappa) a_in
    i G a + (gamma/2 - i w) s = 0
    r = 1 + sqrt(kappa) a / a_in
    """
    G = math.sqrt(n_coupled) * g
    m = np.array(
        [[kappa / 2 - 1j * omega, 1j * G], [1j * G, gamma / 2 - 1j * omega]]
    )
    rhs = np.array([-math.sqrt(kappa), 0.0])
    a, _ = np.linalg.solve(m, rhs)
    return 1.0 + math.sqrt(kappa) * a


class TestReflectionCoefficient:
    def test_bare_cavity_phase_flip(self):
        assert reflection_coefficient(0.0, realistic_params(0)) == pytest.approx(-1.0)

    def test_one_atom_frozen_value(self):
        r = reflection_coefficient(0.0, realistic_params(1))
        assert r == pytest.approx(0.9957293035479632, abs=1e-12)
        c = realistic_params().cooperativity
        assert r == pytest.approx(1 - 2 / (1 + 4 * c), abs=1e-12)

    def test_matches_linear_system_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = rng.uniform(5, 60) * MHZ
            kappa = rng.uniform(0.5, 10) * MHZ
            gamma = rng.uniform(0.5, 10) * MHZ
            omega = rng.uniform(-50, 50) * MHZ
            for n in (1, 2):
                p = CavityParams(g, kappa, gamma, n)
                expect = oracle_reflection(omega, g, kappa, gamma, n)
                assert reflection_coefficient(omega, p) == pytest.approx(
                    expect, abs=1e-12
                )

    def test_lossless_when_gamma_zero(self):
        p = CavityParams(27 * MHZ, 2.4 * MHZ, 0.0, 1)
        w = np.linspace(-100, 100, 10_001) * MHZ
        np.testing.assert_allclose(np.abs(reflection_coefficient(w, p)), 1.0,
                                   atol=1e-12)
        assert reflection_coefficient(0.0, p) == pytest.approx(1.0)

    def test_passivity_over_random_parameters(self):
        rng = np.random.default_rng(9)
        w = np.linspace(-200, 200, 10_000) * MHZ
        for _ in range(100):
            p = CavityParams(
                rng.uniform(1, 80) * MHZ,
                rng.uniform(0.1, 20) * MHZ,
                rng.uniform(0.0, 20) * MHZ,
                int(rng.integers(0, 3)),
            )
            assert np.max(np.abs(reflection_coefficient(w, p))) <= 1 + 1e-12

    def test_cooperativity_reported(self):
        assert realistic_params().cooperativity == pytest.approx(116.8269, abs=1e-3)

    def test_individual_couplings_for_two_atoms(self):
        p = CavityParams(27 * MHZ, 2.4 * MHZ, 2.6 * MHZ, 2, g2=13 * MHZ)
        assert p.bright_coupling_sq() == pytest.approx((27**2 + 13**2) * MHZ**2)
        equal = CavityParams(27 * MHZ, 2.4 * MHZ, 2.6 * MHZ, 2)
        assert equal.bright_coupling_sq() == pytest.approx(2 * (27 * MHZ) ** 2)

    def test_lossy_kernel_bit_identical_to_guarded_expression(self):
        # the gamma > 0 path skips the pole == 0 guard, which can never fire
        w = standard_pulse().grids["w"]
        rng = np.random.default_rng(11)
        cases = [realistic_params(1), realistic_params(2)] + [
            CavityParams(rng.uniform(5, 60) * MHZ, rng.uniform(0.5, 10) * MHZ,
                         rng.uniform(0.01, 10) * MHZ, int(rng.integers(1, 3)))
            for _ in range(10)]
        for p in cases:
            G2 = p.bright_coupling_sq()
            pole = p.gamma / 2 - 1j * w
            with np.errstate(divide="ignore", invalid="ignore"):
                old = 1.0 - p.kappa / (p.kappa / 2 - 1j * w + G2 / pole)
            old = np.where(np.abs(pole) == 0.0, 1.0 + 0j, old)
            assert reflection_coefficient(w, p).tobytes() == old.tobytes()


class TestChirpZ:
    @pytest.mark.parametrize("n, m", [(7, 13), (13, 7), (9, 9)])
    def test_matches_direct_sum(self, n, m):
        rng = np.random.default_rng(n * m)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        n0, dn, k0, dk = 0.37, 0.21, -1.9, 0.13
        rows = k0 + dk * np.arange(m)
        cols = n0 + dn * np.arange(n)
        direct = np.exp(1j * np.outer(rows, cols)) @ x
        np.testing.assert_allclose(_chirp_z(x, n0, dn, k0, dk, m),
                                   direct, rtol=1e-12)


class TestReflectionMoments:
    def test_bare_cavity_narrowband(self):
        O, E = _spectral_moments(standard_pulse(), realistic_params(), 0)
        # phase flip with a small ring-down delay; frozen oracle overlap
        assert 1 - E < 1e-3
        assert abs(O) / math.sqrt(E) > 0.99
        assert (O / math.sqrt(E)).real == pytest.approx(-0.995037, abs=2e-5)
        assert abs(cmath.phase(O)) == pytest.approx(math.pi, abs=1e-6)

    def test_eta_scaling_with_coupled_atoms(self):
        p = realistic_params()
        for n in (1, 2):
            eta = photon_loss(standard_pulse(), p.with_coupled(n))
            predicted = p.kappa * p.gamma / (n * p.g**2)
            assert eta == pytest.approx(predicted, rel=0.2)
            _, E = _spectral_moments(standard_pulse(), p, n)
            assert eta == pytest.approx(1 - E, abs=1e-15)

    def test_short_pulse_warns(self):
        p = realistic_params(0)
        pulse = PulseSpec(5 / p.kappa, 1.0)
        with pytest.warns(UserWarning, match="adiabatic"):
            photon_loss(pulse, p)
        photon_loss(pulse, p)  # a memo hit meets no new cavity: no warning

    def test_time_domain_langevin_cross_check(self):
        """Frequency-domain moments vs the exact time-domain propagator (independent)."""
        rng = np.random.default_rng(12)
        for _ in range(10):
            kappa = rng.uniform(1, 5) * MHZ
            g = rng.uniform(10, 40) * MHZ
            gamma = rng.uniform(0.5, 5) * MHZ
            n = int(rng.integers(1, 3))
            p = CavityParams(g, kappa, gamma, n)
            pulse = PulseSpec(rng.uniform(30, 80) / kappa, 1.0)
            # the Gaussian mode on the pulse's own time samples
            t_grid = (np.arange(cavity.N_TIME) + 0.5) * (pulse.T / cavity.N_TIME)
            f_grid = np.exp(-((t_grid - pulse.T / 2) ** 2) / (pulse.T / 5) ** 2)
            f_grid /= math.sqrt(np.sum(f_grid**2) * (pulse.T / cavity.N_TIME))
            G = math.sqrt(p.bright_coupling_sq())

            t_end = 2.0 * pulse.T
            ts = np.linspace(0, t_end, 8192)
            dt = ts[1] - ts[0]
            fin = np.interp(ts, t_grid, f_grid, left=0.0, right=0.0)
            # y = (a, s) obeys y' = A y + b fin with fin linear between the ts
            # samples, so one step is exact: the generator augmented by
            # (fin(t_k), fin(t_k+1) - fin(t_k)), in time units of dt
            aug = np.zeros((4, 4), dtype=complex)
            aug[:2, :2] = np.array([[-kappa / 2, -1j * G], [-1j * G, -gamma / 2]]) * dt
            aug[0, 2] = -math.sqrt(kappa) * dt
            aug[2, 3] = 1.0
            step = expm(aug)
            prop, from_level, from_slope = step[:2, :2], step[:2, 2], step[:2, 3]
            y = np.zeros(2, dtype=complex)
            a = np.zeros(len(ts), dtype=complex)
            for k in range(len(ts) - 1):
                y = prop @ y + from_level * fin[k] + from_slope * (fin[k + 1] - fin[k])
                a[k + 1] = y[0]
            fout = fin + math.sqrt(kappa) * a
            energy = float(np.sum(np.abs(fout) ** 2) * dt)
            matched = complex(np.sum(np.conj(fin) * fout) * dt)

            O, E = _spectral_moments(pulse, p, n)
            assert math.sqrt(E) == pytest.approx(math.sqrt(energy), abs=1e-4)
            assert cmath.phase(O) == pytest.approx(cmath.phase(matched), abs=1e-4)


class TestCzOutput:
    def test_component_coupling_counts(self):
        pulse, p = standard_pulse(), realistic_params()
        comps = cz_output_state(pulse, p)
        counts = {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 0}
        assert comps == {c: _spectral_moments(pulse, p, n) for c, n in counts.items()}
        assert len(set(comps.values())) == 3  # (0, 1) and (1, 0) coincide

    def test_bare_component_phase_flip(self):
        O, E = cz_output_state(standard_pulse(), realistic_params())[(1, 1)]
        assert abs(cmath.phase(O)) == pytest.approx(math.pi, abs=1e-6)
        assert math.sqrt(E) == pytest.approx(1.0, abs=1e-12)

    def test_coupled_components_taylor_amplitude(self):
        # |alpha'/alpha| = sqrt(E) ~ 1 - kappa*gamma/(2 n g^2) from expanding r(0)
        p = realistic_params()
        comps = cz_output_state(standard_pulse(), p)
        for (m, n), (O, E) in comps.items():
            if (m, n) == (1, 1):
                continue
            n_coupled = (m == 0) + (n == 0)
            predicted = 1 - p.kappa * p.gamma / (2 * n_coupled * p.g**2)
            assert math.sqrt(E) == pytest.approx(predicted, abs=2e-4)
            assert abs(cmath.phase(O)) < 1e-3

    def test_cz_diagonal_working_point_frozen_values(self):
        # entry m + 2n; (1, 1) sees the bare cavity and reflects losslessly
        d = cz_diagonal(standard_pulse(), realistic_params())
        np.testing.assert_allclose(d, [0.99631893, 0.99266281, 0.99266281, -1.0],
                                   rtol=0, atol=1e-8)
        assert d[1] == d[2]

    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(CavityModelError, match="eps"):
            cz_gate_fidelity([1.0, 1.0, 0.0, 0.0], standard_pulse(), realistic_params())


class TestCzFidelity:
    def test_working_point_frozen_value(self):
        f = cz_gate_fidelity(None, standard_pulse(), realistic_params())
        assert 0.98 <= f <= 1.0
        assert f == pytest.approx(0.99569, abs=5e-4)

    def test_config_working_point_pinned(self):
        # frozen from the direct O(N^2) DFT sum, which the chirp-z route must match
        path = Path(__file__).resolve().parent.parent / "configs" / "cz-fidelity.yaml"
        cfg = ScenarioConfig.from_file(path)
        params = cfg.physics()
        f = cz_gate_fidelity(None, cfg.pulse(params), params)
        assert f == pytest.approx(0.9956948030703393, abs=1e-12)

    def test_with_alpha_shares_grids(self):
        pulse = standard_pulse()
        other = pulse.with_alpha(0.5)
        assert other.alpha == 0.5 and pulse.alpha == 1.26
        assert other.grids is pulse.grids
        assert other.T == pulse.T

    def test_with_alpha_matches_fresh_pulse(self):
        # the memoized moments are shared with the copy; alpha must not enter
        pulse, p = standard_pulse(), realistic_params()
        cz_gate_fidelity(None, pulse, p)
        copy, fresh = pulse.with_alpha(0.5), standard_pulse(alpha=0.5)
        assert cz_output_state(copy, p) == cz_output_state(fresh, p)
        assert cz_gate_fidelity(None, copy, p) == cz_gate_fidelity(None, fresh, p)

    def test_small_alpha_limit(self):
        # oracle: F -> |sum w Otilde|^2 / sum w E as alpha -> 0
        p = realistic_params()
        comps = cz_output_state(standard_pulse(), p)
        # the ideal output carries -f_in on the bare-cavity (1, 1) component
        num = np.mean([-O if c == (1, 1) else O for c, (O, _) in comps.items()])
        den = np.mean([E for _, E in comps.values()])
        limit = abs(num) ** 2 / den
        f = cz_gate_fidelity(None, standard_pulse(alpha=1e-4), p)
        assert f == pytest.approx(limit, abs=1e-9)

    def test_ideal_limit_is_unit_fidelity(self):
        # gamma = 0, huge coupling, very narrowband pulse
        p = CavityParams(27e3 * MHZ, 2.4 * MHZ, 0.0)
        pulse = PulseSpec(2e5 / p.kappa, 1.26)
        assert cz_gate_fidelity(None, pulse, p) == pytest.approx(1.0, abs=1e-6)

    def test_haar_random_inputs_stay_bounded(self):
        rng = np.random.default_rng(4)
        p, pulse = realistic_params(), standard_pulse()
        for _ in range(20):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            f = cz_gate_fidelity(v, pulse, p)
            assert 0.0 <= f <= 1.0


class TestFidelitySweep:
    def test_monotone_in_photon_number(self):
        fids = nbar_sweep(np.linspace(0.1, 4.0, 20), standard_pulse(), realistic_params())
        assert np.all(np.diff(fids) <= 1e-12)

    def test_g_sweep_stability(self):
        fids = g_sweep(np.linspace(0.5, 1.0, 11), standard_pulse(), realistic_params())
        spread = fids.max() - fids.min()
        assert spread <= 2e-2

    def test_single_point_consistency(self):
        pulse, p = standard_pulse(), realistic_params()
        fids = nbar_sweep([1.5876], pulse, p)
        assert fids[0] == pytest.approx(cz_gate_fidelity(None, pulse, p), abs=1e-12)

    def test_eta_proportional_to_inverse_g_squared(self):
        p = realistic_params()
        pulse = standard_pulse()
        scaled = []
        for g_mhz in np.linspace(10, 50, 9):
            pp = CavityParams(g_mhz * MHZ, p.kappa, p.gamma, 1)
            eta = photon_loss(pulse, pp)
            scaled.append(eta * pp.g**2 / (p.kappa * p.gamma))
        assert max(scaled) / min(scaled) - 1 <= 0.2


class TestSpectralMomentMemo:
    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        inner = cavity.reflection_coefficient

        def counting(omega, p):
            count[0] += 1
            return inner(omega, p)

        monkeypatch.setattr(cavity, "reflection_coefficient", counting)
        return count

    def test_nbar_sweep_makes_one_pass_per_coupling(self, calls):
        # the working point and all 20 grid points share one pulse memo
        run_fidelity_sweep(ScenarioConfig.from_dict({"kind": "fidelity-sweep"}))
        assert calls[0] == 3  # n_coupled 0, 1 and 2

    def test_one_atom_photon_loss_served_after_g_point(self, calls):
        pulse, p = standard_pulse(), realistic_params()
        g_sweep([0.7], pulse, p)
        assert calls[0] == 3
        photon_loss(pulse, p.scaled_g(0.7).with_coupled(1))
        assert calls[0] == 3

    def test_g_sweep_shares_bare_cavity_pass(self, calls):
        g_sweep(np.linspace(0.5, 1.0, 4), standard_pulse(), realistic_params())
        assert calls[0] == 1 + 2 * 4

    def test_g_sweep_runner_makes_one_pass_per_coupling(self, calls):
        # per ratio: one and two atoms (its eta read from the memo); the
        # bare cavity once; then the 9 one-atom points of the eta check
        run_g_sweep(ScenarioConfig.from_dict({"kind": "g-sweep", "sweep": {"points": 4}}))
        assert calls[0] == 1 + 2 * 4 + 9

    @pytest.mark.parametrize("variant", [
        dict(gamma=1.3 * MHZ), dict(gamma=0.0), dict(kappa=3.1 * MHZ),
        dict(g2=13 * MHZ)], ids=["gamma", "gamma-zero", "kappa", "g2"])
    def test_each_rate_is_part_of_the_key(self, variant):
        pulse, base = standard_pulse(), realistic_params()
        rates = dict(g=base.g, kappa=base.kappa, gamma=base.gamma)
        other = CavityParams(**{**rates, **variant})
        for n in (0, 1, 2):
            _spectral_moments(pulse, base, n)
        for n in (2, 1, 0):
            got = _spectral_moments(pulse, other, n)
            assert got == _spectral_moments(standard_pulse(), other, n)
        assert _spectral_moments(pulse, other, 2) != _spectral_moments(pulse, base, 2)

    def test_second_coupling_ignored_with_one_atom(self, calls):
        pulse, p = standard_pulse(), realistic_params()
        _spectral_moments(pulse, p, 1)
        _spectral_moments(pulse, CavityParams(p.g, p.kappa, p.gamma, g2=13 * MHZ), 1)
        assert calls[0] == 1
