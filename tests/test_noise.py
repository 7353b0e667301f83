"""Noise components, exact moments, transport spectrum, dephasing channel."""

import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from dfsqc.register import QuantumRegister, apply_unitary, fidelity, rz
from dfsqc.logical import LogicalQubit, apply_dephasing_channel, pair_ket
from dfsqc.noise import (
    EchoSequence,
    NoiseModelError,
    NoiseSpectrum,
    TransportNoise,
    echo_variance_analytic,
    free_variance_analytic,
    monte_carlo_dephasing,
    suppression_factor,
    transport_phase_std,
    variance_covariance,
)
from dfsqc import noise
from dfsqc.cli import main
from dfsqc.noise import (
    MC_COMPONENTS,
    ROOT_BITS,
    _ROOTS,
    _component_grid,
    _phase_coefficients,
    _root_indices,
)
from dfsqc.scenarios import narrow_line_spectrum

Q = LogicalQubit(0, 1)


def default_spectrum():
    """Band-limited white, tau_co = 1 ms, cutoff 2*pi*100 Hz."""
    return NoiseSpectrum.band_limited_white(tau_co=1e-3)


def filter_function_dfs(omega, dt):
    """Echo filter sin^4(dt*w/2)/(dt*w)^2 with unit proportionality constant.

    Zero at w = 0, its w -> 0 limit; small-argument behavior (dt*w)^2/16.
    """
    w = np.asarray(omega, dtype=float)
    x = dt * w
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.sin(x / 2.0) ** 4 / x**2
    return np.where(x == 0.0, 0.0, val)


def echo_filter_sq(omega, dt, n_cycles):
    """|Y_n(w)|^2 = 16 dt^2 F(w, dt) sin^2(n w dt)/sin^2(w dt), swap echo x n."""
    x = dt * np.asarray(omega, dtype=float)
    sin_x = np.sin(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        comb = (np.sin(n_cycles * x) / sin_x) ** 2
    comb = np.where(np.abs(sin_x) < 1e-9, float(n_cycles**2), comb)
    return 16.0 * dt**2 * filter_function_dfs(omega, dt) * comb


def free_filter_sq(omega, total_time):
    """|W(w)|^2 = 4 sin^2(w T/2)/w^2 of free evolution over T."""
    w = np.asarray(omega, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 4.0 * np.sin(w * total_time / 2.0) ** 2 / w**2
    return np.where(w == 0.0, total_time**2, val)


def transport_weight(omega, tau_t):
    """sin^2(w tau_T/2): what a transport of tau_T leaves of S(w)."""
    return np.sin(np.asarray(omega, dtype=float) * tau_t / 2.0) ** 2


def band_quad(spectrum, weight):
    """int S(w) weight(w) dw over the two-sided band by scipy quad.

    A tabulated spectrum is piecewise linear, so its rows are breakpoints.
    """
    lo, points = 0.0, None
    if spectrum.table is not None:
        rows = spectrum.table[0]
        lo, points = rows[0], rows[1:-1]
    val, err = quad(lambda w: float(spectrum.psd(w) * weight(w)), lo, spectrum.band(),
                    points=points, limit=4000, epsrel=1e-12, epsabs=0.0)
    assert err <= 1e-11 * abs(val)
    return 2.0 * val


def integrated_power(spectrum, n_grid=200001):
    """Trapezoid quadrature of S over the synthesis band."""
    w = np.linspace(-spectrum.band(), spectrum.band(), n_grid)
    return float(np.trapezoid(spectrum.psd(w), w))


def transport_spectrum(omega, tn, kernel_width=None):
    """Quadrature reference for the transport-filtered spectrum.

    S_tT(w) = int S(u) sin^2(u tau_T/2) K(w - u) du with K a normalized
    Gaussian of standard deviation 4/tau_T (``kernel_width`` overrides; as
    it shrinks the kernel tends to a delta, leaving the bare sin^2 filter).
    """
    sd = 4.0 / tn.tau_T if kernel_width is None else kernel_width
    band = tn.base.band()

    def one(w):
        def integrand(u):
            k = math.exp(-((w - u) ** 2) / (2 * sd**2)) / (sd * math.sqrt(2 * math.pi))
            return float(tn.base.psd(u)) * math.sin(u * tn.tau_T / 2.0) ** 2 * k

        # the kernel restricts the support to u within a few sd of w
        lo, hi = max(-band, w - 12 * sd), min(band, w + 12 * sd)
        if lo >= hi:
            return 0.0
        val, err = quad(integrand, lo, hi, limit=400)
        assert err <= max(1e-12, 1e-6 * abs(val)), f"quadrature did not converge at w = {w}"
        return val

    w = np.asarray(omega, dtype=float)
    if w.ndim == 0:
        return one(float(w))
    return np.array([one(float(x)) for x in w])


class TestSpectra:
    def test_integrated_power_white(self):
        s = NoiseSpectrum.band_limited_white(tau_co=1e-3)
        assert s.total_power == pytest.approx(1e6)
        assert integrated_power(s) == pytest.approx(s.total_power, rel=0.01)

    def test_integrated_power_lorentzian(self):
        s = NoiseSpectrum.lorentzian(total_power=2e5, cutoff=100.0)
        assert integrated_power(s) == pytest.approx(2e5, rel=0.01)

    def test_table_round_trip(self, tmp_path):
        w = np.linspace(0, 500, 200)
        vals = np.exp(-((w - 200) ** 2) / (2 * 30**2))
        path = tmp_path / "spec.txt"
        np.savetxt(path, np.column_stack([w, vals]))
        s = NoiseSpectrum.from_table_file(path)
        np.testing.assert_allclose(s.psd(w), vals, atol=1e-12)
        assert integrated_power(s) == pytest.approx(s.total_power, rel=0.01)

    def test_negative_table_rejected(self):
        with pytest.raises(NoiseModelError, match="non-negative"):
            NoiseSpectrum.from_table([0.0, 1.0], [1.0, -1.0])

    def test_zero_table_rejected(self):
        # S = 0 everywhere: no dephasing, and an echo/free ratio of 0/0
        with pytest.raises(NoiseModelError, match="zero total power"):
            NoiseSpectrum.from_table([100.0, 200.0], [0.0, 0.0])

    def test_negative_omega_table_rejected(self):
        # psd reads the table at |w|, so rows at w < 0 would be counted twice
        w = np.linspace(-50.0, 100.0, 151)
        with pytest.raises(NoiseModelError, match=">= 0"):
            NoiseSpectrum.from_table(w, np.ones_like(w))

    def test_slow_spectrum_warning(self):
        with pytest.warns(UserWarning, match="tau_co"):
            NoiseSpectrum.band_limited_white(tau_co=1e-3, cutoff=2e4)

    def test_parameter_validation(self):
        with pytest.raises(NoiseModelError):
            NoiseSpectrum.band_limited_white(total_power=1.0, tau_co=1.0)
        with pytest.raises(NoiseModelError):
            NoiseSpectrum("band-limited-white", -1.0, 100.0)


class TestSynthesis:
    def test_component_power_matches_quadrature(self):
        # each cosine carries the power of its band slice: A_k^2/2 = 2 S(w_k) dw
        for s in (default_spectrum(),
                  NoiseSpectrum.lorentzian(total_power=2e5, cutoff=100.0)):
            freqs, amps = _component_grid(s, 512)
            dw = s.band() / 512
            np.testing.assert_allclose(freqs, (np.arange(512) + 0.5) * dw, rtol=1e-15)
            np.testing.assert_allclose(amps**2 / 2, 2 * s.psd(freqs) * dw, rtol=1e-14)
        # Parseval oracle: sum A_k^2/2 equals the quadrature of S
        _, amps = _component_grid(default_spectrum(), 2048)
        assert float(np.sum(amps**2) / 2) == pytest.approx(
            integrated_power(default_spectrum()), rel=1e-6
        )

    def test_zero_power_gives_zero_trace(self):
        for s in (NoiseSpectrum.band_limited_white(total_power=0.0),
                  NoiseSpectrum.lorentzian(total_power=0.0)):
            _, amps = _component_grid(s, 64)
            assert np.all(amps == 0.0)

    def test_sample_variance_near_total_power(self):
        # free phase over T << 1/band is eps*T: its variance is total_power*T^2
        s = default_spectrum()
        seq = EchoSequence(1e-3 / s.cutoff)
        stats = monte_carlo_dephasing([seq], s, 5000, 7)
        assert stats.var[0, 1] / seq.total_time**2 == pytest.approx(s.total_power, rel=0.1)

    def test_determinism(self):
        s = default_spectrum()
        seq = EchoSequence(0.05 / s.cutoff)
        a = monte_carlo_dephasing([seq], s, 200, 99).var
        assert np.array_equal(monte_carlo_dephasing([seq], s, 200, 99).var, a)
        assert not np.any(monte_carlo_dephasing([seq], s, 200, 100).var == a)


class TestFilterFunction:
    def test_value_at_pi(self):
        dt = 0.37
        assert filter_function_dfs(math.pi / dt, dt) == pytest.approx(
            1.0 / math.pi**2
        )

    def test_small_argument_quadratic(self):
        dt = 1.0
        for w in (1e-3, 2e-3, 5e-3):
            assert filter_function_dfs(w, dt) == pytest.approx(
                (dt * w) ** 2 / 16, rel=1e-4
            )

    def test_zero_at_harmonics_and_origin(self):
        dt = 0.2
        assert filter_function_dfs(0.0, dt) == 0.0
        assert filter_function_dfs(2 * math.pi / dt, dt) == pytest.approx(
            0.0, abs=1e-25
        )


class TestEchoVariance:
    def test_monte_carlo_matches_analytic(self):
        s = default_spectrum()
        seq = EchoSequence(0.1 / s.cutoff)
        stats = monte_carlo_dephasing([seq], s, 10_000, 2024)
        exact = (echo_variance_analytic(seq, s), free_variance_analytic(seq.total_time, s))
        assert np.all(np.abs(stats.var[0] - exact) <= 5 * stats.stderr[0])

    def test_multi_cycle_sequence(self):
        s = default_spectrum()
        seq = EchoSequence(0.05 / s.cutoff, n_cycles=4)
        stats = monte_carlo_dephasing([seq], s, 2000, 5)
        ve = echo_variance_analytic(seq, s)
        assert abs(stats.var[0, 0] - ve) <= 5 * stats.stderr[0, 0]

    def test_zero_noise(self):
        s = NoiseSpectrum.band_limited_white(total_power=0.0)
        stats = monte_carlo_dephasing([EchoSequence(1e-4)], s, 200, 1)
        assert np.all(stats.var == 0.0) and np.all(stats.stderr == 0.0)

    def test_doubling_power_doubles_variances(self):
        cut = 2 * math.pi * 10
        s1 = NoiseSpectrum.band_limited_white(total_power=1e5, cutoff=cut)
        s2 = NoiseSpectrum.band_limited_white(total_power=2e5, cutoff=cut)
        seq = EchoSequence(1e-4)
        a = monte_carlo_dephasing([seq], s1, 500, 77)
        b = monte_carlo_dephasing([seq], s2, 500, 77)
        # same seed, amplitudes scale by sqrt(2): exact factor 2
        assert b.var == pytest.approx(2 * a.var, rel=1e-12)
        assert b.stderr == pytest.approx(2 * a.stderr, rel=1e-12)

    def test_suppression_slope_is_two(self):
        s = default_spectrum()
        prods = np.array([0.01, 0.02, 0.05, 0.1])
        seqs = [EchoSequence(p / s.cutoff) for p in prods]
        ratios = [echo_variance_analytic(q, s) / free_variance_analytic(q.total_time, s)
                  for q in seqs]
        slope = np.polyfit(np.log(prods), np.log(ratios), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_requires_enough_realizations(self):
        with pytest.raises(NoiseModelError):
            monte_carlo_dephasing([EchoSequence(1e-4)], default_spectrum(), 10, 1)

    def test_sequence_is_frozen(self):
        seq = EchoSequence(1e-4, 2)
        for name, value in (("dt", 2e-4), ("n_cycles", 3)):
            with pytest.raises(FrozenInstanceError):
                setattr(seq, name, value)


LORENTZIAN = NoiseSpectrum.lorentzian(tau_co=1e-3, cutoff=100.0)
# the table below steps from 0 to S at w = 100, its first row and so the
# lower edge of its first cell: its synthesized moments sit 2.8e-7 (echo)
# and 4.1e-7 (free) off the continuous integrals (measured)
TABLE_RTOL = 1e-6


class TestExactMoments:
    """The analytic columns against quad of the continuous filter integrals.

    Tolerances are the 512-component midpoint error, measured: the moments
    themselves are exact for the synthesized process.
    """

    @pytest.mark.parametrize("n_cycles", [1, 2, 3])
    @pytest.mark.parametrize("spectrum, rtol", [(default_spectrum(), 1e-6), (LORENTZIAN, 2e-5)],
                             ids=["band-limited-white", "lorentzian"])
    @pytest.mark.parametrize("product", [0.01, 0.1, 1.0])
    def test_echo_and_free_match_quad(self, spectrum, rtol, product, n_cycles):
        seq = EchoSequence(product / spectrum.cutoff, n_cycles)
        echo = band_quad(spectrum, lambda w: echo_filter_sq(w, seq.dt, n_cycles))
        free = band_quad(spectrum, lambda w: free_filter_sq(w, seq.total_time))
        assert abs(echo_variance_analytic(seq, spectrum) - echo) <= rtol * echo
        assert abs(free_variance_analytic(seq.total_time, spectrum) - free) <= rtol * free

    @pytest.mark.parametrize("product", [0.02, 0.1, 1.0, 3.0])
    def test_narrow_line_transport_power_matches_quad(self, product):
        tau = 100e-6
        w0 = product / tau
        tn = TransportNoise(tau, narrow_line_spectrum(w0, w0 / 50))
        ref = band_quad(tn.base, lambda w: transport_weight(w, tau))
        assert abs(tn.power - ref) <= 1e-8 * ref

    @pytest.mark.parametrize("first", [100.5, 100.0, 0.25],
                             ids=["first-on-midpoint", "first-on-edge", "first-in-cell-0"])
    def test_table_moments_sample_the_first_rows_cell(self, first):
        # the table steps from 0 to S at ``first``.  Its cells span its rows,
        # so the step is the lower edge of cell 0 and every cell is smooth:
        # the midpoint sums meet quad over the rows to O(dw^2) (2.0e-6,
        # measured).  The ids say where the step would fall in a [0, band]
        # grid of 1 rad/s cells, whose step cell is off by up to 1e-3.
        spectrum = NoiseSpectrum.from_table([first, 300.0, 512.0], [1.0, 2.0, 0.5])
        freqs, _ = _component_grid(spectrum, MC_COMPONENTS)
        dw = (512.0 - first) / MC_COMPONENTS
        assert freqs[0] == first + dw / 2 and freqs[-1] == pytest.approx(512.0 - dw / 2)

        tau = 5e-3
        seqs = [EchoSequence(1e-3, 1), EchoSequence(3e-3, 3)]
        pairs = [(TransportNoise(tau, spectrum).power,
                  band_quad(spectrum, lambda w: transport_weight(w, tau)))]
        for seq in seqs:
            pairs.append((echo_variance_analytic(seq, spectrum),
                          band_quad(spectrum, lambda w: echo_filter_sq(w, seq.dt, seq.n_cycles))))
            pairs.append((free_variance_analytic(seq.total_time, spectrum),
                          band_quad(spectrum, lambda w: free_filter_sq(w, seq.total_time))))
        for got, ref in pairs:
            assert abs(got - ref) <= 5e-6 * ref

    def test_variances_are_half_the_coefficient_norms(self):
        # a phase sum_k (c_k cos th_k - s_k sin th_k) in uniform independent th_k
        s = LORENTZIAN
        seq = EchoSequence(0.02 / s.cutoff, 2)
        c, sn = (a.astype(np.longdouble) for a in _phase_coefficients(seq, s))
        echo, free = (c**2 + sn**2).sum(axis=0) / 2
        assert echo_variance_analytic(seq, s) == pytest.approx(float(echo), rel=1e-14)
        assert free_variance_analytic(seq.total_time, s) == pytest.approx(float(free),
                                                                          rel=1e-14)

    @pytest.mark.parametrize("spectrum, n_cycles", [(default_spectrum(), 2), (LORENTZIAN, 1)],
                             ids=["band-limited-white", "lorentzian"])
    def test_monte_carlo_mean_is_the_exact_moment(self, spectrum, n_cycles):
        # sampling error only: 40 seeds' mean within 4 standard errors
        seq = EchoSequence(0.05 / spectrum.cutoff, n_cycles)
        runs = np.array([monte_carlo_dephasing([seq], spectrum, 1000, seed).var[0]
                         for seed in range(40)])
        exact = (echo_variance_analytic(seq, spectrum),
                 free_variance_analytic(seq.total_time, spectrum))
        stderr = runs.std(axis=0, ddof=1) / math.sqrt(len(runs))
        assert np.all(np.abs(runs.mean(axis=0) - exact) <= 4 * stderr)

    def test_table_decoupling_run(self, tmp_path):
        # a table starting above w = 0, end to end through the CLI
        table = tmp_path / "table.txt"
        table.write_text("100 1\n200 3\n300 4\n400 4\n500 2\n600 1\n")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("kind: decoupling\nname: tabled\nrealizations: 2000\n"
                       f"noise: {{model: table, table_path: {table}}}\n")
        assert main(["simulate", str(cfg), "--check", "--out", str(tmp_path / "out")]) == 0
        lines = [l for l in (tmp_path / "out" / "tabled.csv").read_text().splitlines()
                 if not l.startswith("#")]
        spectrum = NoiseSpectrum.from_table_file(table)
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, map(float, line.split(","))))
            seq = EchoSequence(row["dt"])
            assert row["var_echo_analytic"] == echo_variance_analytic(seq, spectrum)
            echo = band_quad(spectrum, lambda w: echo_filter_sq(w, seq.dt, 1))
            free = band_quad(spectrum, lambda w: free_filter_sq(w, seq.total_time))
            assert abs(row["var_echo_analytic"] - echo) <= TABLE_RTOL * echo
            assert abs(row["var_free_analytic"] - free) <= TABLE_RTOL * free


def root_indices(seed, n_realizations):
    """The root indices monte_carlo_dephasing draws from ``seed``, by shifts.

    Component 4 i + j of the block is bits 16 j to 16 j + 11 of raw word i,
    which does not depend on the host's byte order.
    """
    raw = np.random.default_rng(seed).bit_generator.random_raw(
        n_realizations * MC_COMPONENTS // 4)
    lanes = [(raw >> np.uint64(16 * j)) & np.uint64(4095) for j in range(4)]
    return np.stack(lanes, axis=1).reshape(n_realizations, MC_COMPONENTS)


def _longdouble_variances(seq, spectrum, n_realizations, seed, n_components=512):
    """Echo and free variances from the segment-difference sums, in longdouble.

    Same phases as ``monte_carlo_dephasing``, whatever its chunking, with
    the angles 2 pi j/4096 taken in extended precision, which also absorbs
    the sin(w t1 + th) - sin(w t0 + th) cancellation.
    """
    ld = np.longdouble
    freqs, amps = (np.asarray(a, dtype=ld) for a in _component_grid(spectrum, n_components))
    phases = root_indices(seed, n_realizations).astype(ld) * (2 * np.pi * ld(1) / 4096)
    echo = np.zeros(n_realizations, dtype=ld)
    free = np.zeros(n_realizations, dtype=ld)
    prev = np.sin(phases)
    for j in range(1, 2 * seq.n_cycles + 1):
        cur = np.sin(phases + freqs * (j * ld(seq.dt)))
        seg = ((cur - prev) / freqs) @ amps
        echo += seg if j % 2 else -seg
        free += seg
        prev = cur
    return float(np.var(echo, ddof=1)), float(np.var(free, ddof=1))


def reference_dephasing(seqs, spectrum, n_realizations, seed):
    """monte_carlo_dephasing's block loop as expressions, a new array per operation."""
    c, s = (np.hstack(cols) for cols in zip(*(_phase_coefficients(q, spectrum)
                                              for q in seqs)))
    cols = np.stack([c, -s], axis=1).reshape(2 * MC_COMPONENTS, c.shape[1])
    index = root_indices(seed, n_realizations)
    phase = np.empty((c.shape[1], n_realizations))
    for done in range(0, n_realizations, noise.MC_CHUNK):
        z = _ROOTS[index[done:done + noise.MC_CHUNK]]
        phase[:, done:done + len(z)] = (z.view(float) @ cols).T
    return np.var(phase, axis=1, ddof=1).reshape(-1, 2)


class TestMonteCarloSums:
    @pytest.mark.parametrize("n_cycles", [1, 3])
    def test_matches_longdouble_reference(self, n_cycles):
        s = default_spectrum()
        seq = EchoSequence(0.01 / s.cutoff, n_cycles)
        stats = monte_carlo_dephasing([seq], s, 4000, 811)
        ref = _longdouble_variances(seq, s, 4000, 811)
        assert stats.var[0] == pytest.approx(ref, rel=1e-13, abs=0)

    def test_draw_stream_unchanged(self):
        # 5000 realizations of 512 twelve-bit phases, four to a raw word,
        # however many sequences share them
        s = default_spectrum()
        gen = np.random.default_rng(42)
        monte_carlo_dephasing([EchoSequence(p / s.cutoff) for p in (0.01, 0.05, 0.1)],
                              s, 5000, gen)
        fresh = np.random.default_rng(42)
        fresh.bit_generator.random_raw(5000 * 512 // 4)
        assert gen.bit_generator.random_raw() == fresh.bit_generator.random_raw()

    @pytest.mark.parametrize("n_realizations", [4000, 4037])
    def test_stats_are_the_reference_block_loop(self, n_realizations):
        s = LORENTZIAN
        seqs = [EchoSequence(0.03 / s.cutoff, 2), EchoSequence(0.3 / s.cutoff, 2)]
        stats = monte_carlo_dephasing(seqs, s, n_realizations, 123)
        assert np.array_equal(stats.var, reference_dephasing(seqs, s, n_realizations, 123))

    def test_stats_do_not_depend_on_chunk(self, monkeypatch):
        s = default_spectrum()
        seq = EchoSequence(0.05 / s.cutoff, 2)
        monkeypatch.setattr(noise, "MC_CHUNK", 64)
        a = monte_carlo_dephasing([seq], s, 1000, 3)
        monkeypatch.setattr(noise, "MC_CHUNK", 100)
        b = monte_carlo_dephasing([seq], s, 1000, 3)
        assert np.array_equal(b.var, a.var) and np.array_equal(b.cov, a.cov)

    def test_free_phase_depends_only_on_record_length(self):
        # both sequences integrate the same noise record over 4 dt
        s = default_spectrum()
        dt = 0.02 / s.cutoff
        two = monte_carlo_dephasing([EchoSequence(dt, 2)], s, 1000, 5)
        one = monte_carlo_dephasing([EchoSequence(2 * dt, 1)], s, 1000, 5)
        assert two.var[0, 1] == pytest.approx(one.var[0, 1], rel=1e-13, abs=0)

    def test_warm_call_does_not_fault_per_block(self):
        # A new 256 KB temporary per block of a 63-block call page-faults
        # on every block once the allocator returns it to the system: 224
        # faults a call, measured in a fresh process, against 0.  The
        # pytest process's heap hides that, so the calls run in a child;
        # the first call maps the buffers, the next ones reuse them.
        code = (
            "import resource\n"
            "from dfsqc.noise import EchoSequence, NoiseSpectrum, monte_carlo_dephasing\n"
            "s = NoiseSpectrum.band_limited_white(tau_co=1e-3)\n"
            "seq = EchoSequence(0.05 / s.cutoff, 2)\n"
            "monte_carlo_dephasing([seq], s, 4000, 1)\n"
            "faults = []\n"
            "for seed in (2, 3, 4):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    monte_carlo_dephasing([seq], s, 4000, seed)\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(min(faults))\n")
        src = str(Path(noise.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src})
        assert int(out.stdout) <= 100


class TestSharedPass:
    """Every sequence of a scenario reads one set of realizations."""

    def test_each_sequence_gets_its_own_pass_statistics(self):
        s = LORENTZIAN
        seqs = [EchoSequence(p / s.cutoff, 2) for p in (0.01, 0.05, 0.2)]
        shared = monte_carlo_dephasing(seqs, s, 1000, 8)
        assert shared.var.shape == shared.stderr.shape == (3, 2)
        assert shared.cov.shape == (6, 6)
        for i, seq in enumerate(seqs):
            alone = monte_carlo_dephasing([seq], s, 1000, 8)
            assert shared.var[i] == pytest.approx(alone.var[0], rel=1e-12)
            assert shared.cov[2 * i:2 * i + 2, 2 * i:2 * i + 2] == pytest.approx(
                alone.cov, rel=1e-12)

    def test_shared_echo_variances_correlate(self):
        # the reason the slope's standard error needs the covariance
        s = default_spectrum()
        seqs = [EchoSequence(p / s.cutoff) for p in (0.01, 0.1)]
        cov = monte_carlo_dephasing(seqs, s, 1000, 1).cov
        assert cov[0, 2] / math.sqrt(cov[0, 0] * cov[2, 2]) > 0.99

    def test_covariance_is_exact_over_the_roots(self):
        # Sigma and the joint fourth cumulant K of the phases, each averaged
        # over the 4096 roots component by component and summed
        rng = np.random.default_rng(3)
        c, s = rng.normal(size=(2, 5, 3))
        cos, sin = _ROOTS.real, _ROOTS.imag
        y = c[:, None, :] * cos[None, :, None] - s[:, None, :] * sin[None, :, None]
        m2 = np.einsum("kri,krj->kij", y, y) / len(_ROOTS)
        m4 = np.einsum("kri,krj->kij", y * y, y * y) / len(_ROOTS)
        var = np.einsum("kii->ki", m2)
        sigma = m2.sum(axis=0)
        cumulant = (m4 - var[:, :, None] * var[:, None, :] - 2 * m2**2).sum(axis=0)
        n = 1000
        assert variance_covariance(c, s, n) == pytest.approx(
            2 * sigma**2 / (n - 1) + cumulant / n, rel=1e-12, abs=1e-15)
        # the diagonal cumulant is -(3/8) sum_k a_k^4
        a2 = c**2 + s**2
        assert np.diag(cumulant) == pytest.approx(-3 / 8 * (a2**2).sum(axis=0), rel=1e-12)


class TestRootsOfUnity:
    def test_table_has_the_moments_of_uniform_phases(self):
        # mean(z^m) = 0 for 0 < |m| < 4096: every moment of order < 4096 in
        # cos and sin is that of a uniform continuous phase
        assert _ROOTS.shape == (2**ROOT_BITS,) == (4096,)
        z = _ROOTS.astype(np.clongdouble)
        for m in [1, 2, 3, 4, 5, 6, 7, 8, 4095]:
            assert abs(np.mean(z**m)) <= 1e-12, m
        assert np.abs(np.abs(z) - 1).max() <= 2e-16
        assert float(np.mean(z.real**4)) == pytest.approx(3 / 8, rel=1e-15)
        assert float(np.mean(z.imag**4)) == pytest.approx(3 / 8, rel=1e-15)

    def test_indices_are_the_raw_words_lanes_low_first(self):
        out = np.empty((noise.MC_CHUNK, MC_COMPONENTS), dtype=np.uint16)
        assert _root_indices(np.random.default_rng(77), out) is out
        assert np.array_equal(out, root_indices(77, noise.MC_CHUNK))
        assert out.max() == 4095 and out.min() == 0


class TestTransportSpectrum:
    def test_zero_base_spectrum(self):
        tn = TransportNoise(100e-6,
                            NoiseSpectrum.band_limited_white(total_power=0.0))
        assert transport_spectrum(100.0, tn) == 0.0
        assert suppression_factor(tn) == 0.0

    def test_kernel_limit_recovers_free_precession(self):
        tn = TransportNoise(100e-6, default_spectrum())
        w = 2 * math.pi * 40
        bare = float(tn.base.psd(w)) * math.sin(w * tn.tau_T / 2) ** 2
        val = transport_spectrum(w, tn, kernel_width=1e-4)
        assert val == pytest.approx(bare, rel=1e-9)

    def test_integral_identity(self):
        # int S_tT dw == int S(u) sin^2(u tau/2) du (normalized kernel)
        tn = TransportNoise(100e-6, default_spectrum())
        sd = 4.0 / tn.tau_T
        w = np.linspace(-tn.base.band() - 10 * sd, tn.base.band() + 10 * sd, 3001)
        integral = np.trapezoid(transport_spectrum(w, tn), w)
        assert integral == pytest.approx(tn.power, rel=1e-6)

    def test_narrow_line_low_frequency_suppression(self):
        tau = 100e-6
        for prod in (0.02, 0.05, 0.1):
            w0 = prod / tau
            tn = TransportNoise(tau, narrow_line_spectrum(w0, w0 / 50))
            predicted = (tau * w0) ** 2 / 8
            assert suppression_factor(tn) == pytest.approx(predicted, rel=0.2)

    def test_high_frequency_no_suppression(self):
        # frozen oracle: ratio -> sin^2(w0 tau/2)/2 = 0.4599 at w0*tau = 10
        tau = 100e-6
        w0 = 10.0 / tau
        tn = TransportNoise(tau, narrow_line_spectrum(w0, w0 / 200))
        expected = math.sin(w0 * tau / 2) ** 2 / 2
        assert suppression_factor(tn) == pytest.approx(expected, rel=0.05)
        assert suppression_factor(tn) > 0.1

    def test_phase_std_scaling(self):
        # std = tau_T sqrt(power), the power against a quad of the collapsed
        # integral int S(u) sin^2(u tau_T/2) du
        for tau in (100e-6, 200e-6):
            tn = TransportNoise(tau, default_spectrum())
            band = tn.base.band()
            power, _ = quad(lambda u: float(tn.base.psd(u)) * math.sin(u * tau / 2) ** 2,
                            -band, band, limit=200)
            assert tn.power == pytest.approx(power, rel=1e-6)
            assert transport_phase_std(tn) == tau * math.sqrt(tn.power)

    def test_model_is_frozen(self):
        tn = TransportNoise(100e-6, default_spectrum())
        for name, value in (("tau_T", 50e-6), ("base", default_spectrum()), ("power", 0.0)):
            with pytest.raises(FrozenInstanceError):
                setattr(tn, name, value)
        with pytest.raises(FrozenInstanceError):
            tn.base.total_power = 0.0


class TestDephasingChannel:
    def test_zero_phase_identity(self):
        psi = pair_ket((0.3 + 0.1j, 0.7))
        reg = QuantumRegister(2, psi.copy())
        apply_dephasing_channel(reg, Q, 0.0)
        np.testing.assert_allclose(reg.amplitudes, psi, atol=1e-15)

    def test_pi_maps_plus_to_minus(self):
        reg = QuantumRegister(2, pair_ket("+L"))
        apply_dephasing_channel(reg, Q, math.pi)
        assert fidelity(pair_ket("-L"), reg.amplitudes) == pytest.approx(1.0)

    def test_relative_phase_convention(self):
        reg = QuantumRegister(2, pair_ket("+L"))
        phi = 0.618
        apply_dephasing_channel(reg, Q, phi)
        c0 = np.vdot(pair_ket("0L"), reg.amplitudes)
        c1 = np.vdot(pair_ket("1L"), reg.amplitudes)
        assert np.angle(c1 / c0) == pytest.approx(phi)

    def test_collective_phase_leaves_logical_states(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            psi = pair_ket((v[0], v[1]))
            reg = QuantumRegister(2, psi.copy())
            phi = rng.uniform(-8, 8)
            apply_unitary(reg, rz(phi), [Q.atom_a])
            apply_unitary(reg, rz(phi), [Q.atom_b])
            assert fidelity(psi, reg.amplitudes) >= 1.0 - 1e-12

    def test_never_mixes_logical_and_leakage(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            reg = QuantumRegister(2, psi.copy())
            apply_dephasing_channel(reg, Q, rng.uniform(-5, 5))
            assert abs(np.linalg.norm(reg.amplitudes) - 1) < 1e-12
            # leakage amplitudes are exactly preserved (diagonal channel)
            np.testing.assert_allclose(reg.amplitudes[0], psi[0], atol=1e-14)
            np.testing.assert_allclose(reg.amplitudes[3], psi[3], atol=1e-14)
