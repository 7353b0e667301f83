"""Stochastic dephasing, the swap-echo Monte Carlo, and transport noise.

The dephasing rate eps(t) is a real stationary Gaussian process with a
two-sided power spectral density S(w) normalized so that

    <eps(t) eps(t + tau)> = int S(w) e^{i w tau} dw,   int S dw = total_power.

Spectral synthesis draws eps(t) = sum_k A_k cos(w_k t + theta_k) on a
midpoint grid of MC_COMPONENTS frequencies with A_k = 2 sqrt(S(w_k) dw)
(folding the two sides), so the sample variance reproduces total_power
exactly and segment integrals of eps have closed forms.  The grid spans
[0, band] for the modeled spectra and a table's own rows otherwise.  The
Monte Carlo writes each segment integral by the midpoint identity and
folds the signed sum over segments into coefficient columns c_k, s_k (echo
and free phase), so a realization costs one table lookup per component,
whatever the number of echo cycles: theta_k is drawn uniformly from the
4096th roots of unity, once per realization for all sequences of a
scenario.  That is exact for every statistic reported, not an
approximation of continuous phases: the mean of e^{i m theta} over the
4096 roots vanishes for 0 < |m| < 4096, so every moment of order below
4096 in cos(theta_k) and sin(theta_k), the variances (order 2) and their
covariances (order 4) among them, equals its value under uniform
continuous phases.

The analytic echo and free variances are the exact moments of the
synthesis, sum_k (c_k^2 + s_k^2)/2 for uniform independent theta_k, so the
Monte Carlo differs from them by sampling error alone, whose covariance
:func:`variance_covariance` gives exactly.  They approach the
continuous filter integrals int S |Y|^2 dw (swap echo [dt, U_x, dt, U_x]:
|Y_1(w)|^2 = 16 sin^4(w dt/2)/w^2; free: 4 sin^2(w T/2)/w^2) as the
component spacing shrinks.

Transport noise: moving the atom pair with separation time tau_T filters
the spectrum through sin^2(w tau_T/2) and smears it with a Gaussian kernel
of width 4/tau_T (motion through the spatially correlated field); a frozen
:class:`TransportNoise` computes that power once, on the same grid, and
:func:`suppression_factor` refers it to one atom.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .register import as_generator

TWO_PI = 2.0 * math.pi
LORENTZIAN_BAND_FACTOR = 200.0  # hard synthesis cutoff, keeps 99.7% of power
MC_COMPONENTS = 512  # cosine components per realization; four phases per raw word
# realizations per block, so the (64, MC_COMPONENTS) arrays stay in cache; it
# sets the BLAS summation order (the last bits of the variances), not the draws
MC_CHUNK = 64
ROOT_BITS = 12  # a Monte Carlo phase is one of the 2**ROOT_BITS roots of unity
_ROOTS = np.exp(1j * (TWO_PI / 2**ROOT_BITS) * np.arange(2**ROOT_BITS))


class NoiseModelError(ValueError):
    pass


@dataclass(frozen=True)
class NoiseSpectrum:
    """Two-sided dephasing spectrum S(w) >= 0 with int S dw = total_power.

    Models: "band-limited-white" (flat up to the cutoff), "lorentzian"
    (corner frequency = cutoff, hard-truncated at 200x the corner for
    synthesis) and "table" (two-column (w, S) samples, interpolated, even
    in w).  ``total_power`` is in rad^2/s^2; the coherence-time
    parameterization uses total_power = 1/tau_co^2.
    """

    model: str
    total_power: float
    cutoff: float
    table: tuple | None = None

    def __post_init__(self):
        if self.model not in ("band-limited-white", "lorentzian", "table"):
            raise NoiseModelError(f"unknown spectrum model {self.model!r}")
        if self.total_power < 0:
            raise NoiseModelError("total_power must be >= 0")
        if self.cutoff <= 0:
            raise NoiseModelError("cutoff must be positive")
        # tau_co = 1/sqrt(total_power) only parameterizes the modeled spectra
        if self.model != "table" and self.total_power > 0:
            tau_co = 1.0 / math.sqrt(self.total_power)
            if self.cutoff * tau_co > 1.0:
                warnings.warn(
                    f"cutoff * tau_co = {self.cutoff * tau_co:.2f} > 1: spectrum "
                    "is not slow compared to the coherence time",
                    stacklevel=2,
                )

    @classmethod
    def band_limited_white(cls, total_power=None, tau_co=None, cutoff=TWO_PI * 100.0):
        return cls("band-limited-white", _power_from(total_power, tau_co), cutoff)

    @classmethod
    def lorentzian(cls, total_power=None, tau_co=None, cutoff=TWO_PI * 100.0):
        return cls("lorentzian", _power_from(total_power, tau_co), cutoff)

    @classmethod
    def from_table(cls, omegas, values):
        """Tabulated spectrum; w >= 0 samples of the (even) two-sided S."""
        w = np.asarray(omegas, dtype=float)
        s = np.asarray(values, dtype=float)
        if w.ndim != 1 or w.shape != s.shape or w.size < 2:
            raise NoiseModelError("table needs matching 1-d omega and S columns")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(s))):
            raise NoiseModelError("table omega and S values must be finite")
        if np.any(s < 0):
            raise NoiseModelError("spectral density must be non-negative")
        if np.any(w < 0):
            # psd reads the table at |w|: a negative row would be counted twice
            raise NoiseModelError("table omega values must be >= 0")
        order = np.argsort(w)
        w, s = w[order], s[order]
        power = 2.0 * float(np.trapezoid(s, w))
        if power == 0.0:
            # no dephasing to suppress: the echo/free ratio would be 0/0
            raise NoiseModelError("table spectrum has zero total power")
        return cls("table", power, float(w[-1]), table=(w, s))

    @classmethod
    def from_table_file(cls, path):
        data = np.loadtxt(path, ndmin=2)
        try:
            if data.shape[1] != 2:
                raise NoiseModelError(f"needs two columns (w, S), has {data.shape[1]}")
            return cls.from_table(data[:, 0], data[:, 1])
        except NoiseModelError as exc:
            raise NoiseModelError(f"noise table {path}: {exc}") from None

    # -- evaluation ----------------------------------------------------
    def band(self) -> float:
        """Highest frequency carrying appreciable power (synthesis cutoff)."""
        if self.model == "lorentzian":
            return LORENTZIAN_BAND_FACTOR * self.cutoff
        return self.cutoff

    def psd(self, omega) -> np.ndarray:
        w = np.abs(np.asarray(omega, dtype=float))
        if self.total_power == 0.0:
            return np.zeros_like(w)
        if self.model == "band-limited-white":
            s0 = self.total_power / (2.0 * self.cutoff)
            return np.where(w <= self.cutoff, s0, 0.0)
        if self.model == "lorentzian":
            s0 = self.total_power / (math.pi * self.cutoff)
            raw = s0 / (1.0 + (w / self.cutoff) ** 2)
            return np.where(w <= self.band(), raw, 0.0)
        tw, ts = self.table
        return np.interp(w, tw, ts, left=0.0, right=0.0)


def _power_from(total_power, tau_co):
    if (total_power is None) == (tau_co is None):
        raise NoiseModelError("give exactly one of total_power or tau_co")
    if tau_co is not None:
        if tau_co <= 0:
            raise NoiseModelError("tau_co must be positive")
        return 1.0 / tau_co**2
    return float(total_power)


@dataclass(frozen=True)
class TransportNoise:
    """Dephasing accrued while shuttling atoms; each transport lasts tau_T.

    ``power`` is the total power of the transport-filtered spectrum,
    int S_tT(w) dw, computed once when the model is built.  S_tT(w) =
    int S(w - v) sin^2((w - v) tau_T/2) K(v) dv with K a normalized
    Gaussian of standard deviation 4/tau_T.  Integrating over all
    frequencies collapses the kernel exactly, leaving
    int S(u) sin^2(u tau_T/2) du, which on the synthesis grid is
    sum_k A_k^2 sin^2(w_k tau_T/2)/2.
    """

    tau_T: float
    base: NoiseSpectrum
    power: float = field(init=False)

    def __post_init__(self):
        if self.tau_T <= 0:
            raise NoiseModelError("separation time must be positive")
        freqs, amps = _component_grid(self.base, MC_COMPONENTS)
        power = 0.5 * float(np.sum((amps * np.sin(freqs * self.tau_T / 2.0)) ** 2))
        object.__setattr__(self, "power", power)


@dataclass(frozen=True)
class EchoSequence:
    """Swap-echo cycle [dt, U_x, dt, U_x] repeated n_cycles times."""

    dt: float
    n_cycles: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise NoiseModelError("cycle time dt must be positive")
        if self.n_cycles < 1:
            raise NoiseModelError("n_cycles must be >= 1")

    @property
    def total_time(self) -> float:
        return 2.0 * self.dt * self.n_cycles


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def _component_grid(spectrum: NoiseSpectrum, n_components: int):
    """Midpoint frequencies w_k and cosine amplitudes A_k = 2 sqrt(S(w_k) dw).

    The cells span [0, band], or a table's first to last row, so that no
    cell straddles the step from zero at a table's first row.
    """
    lo = 0.0 if spectrum.table is None else spectrum.table[0][0]
    dw = (spectrum.band() - lo) / n_components
    freqs = lo + (np.arange(n_components) + 0.5) * dw
    amps = 2.0 * np.sqrt(spectrum.psd(freqs) * dw)
    return freqs, amps


def _phase_coefficients(seq: EchoSequence, spectrum: NoiseSpectrum):
    """Columns (c, s), echo then free: a phase is sum_k (c_k cos th_k - s_k sin th_k).

    A segment integral of A cos(w t + th) is 2 A sin(w (t1 - t0)/2)
    cos(w (t0 + t1)/2 + th)/w, so no cancelling difference of sines is formed.
    """
    freqs, amps = _component_grid(spectrum, MC_COMPONENTS)
    centers = np.multiply.outer(freqs, (2 * np.arange(seq.n_cycles) + 1) * seq.dt)
    echo_amp = 4.0 * amps * np.sin(freqs * seq.dt / 2.0) ** 2 / freqs
    half_t = freqs * seq.total_time / 2.0
    free_amp = 2.0 * amps * np.sin(half_t) / freqs
    c = np.column_stack([echo_amp * np.sin(centers).sum(axis=1),
                         free_amp * np.cos(half_t)])
    s = np.column_stack([-echo_amp * np.cos(centers).sum(axis=1),
                         free_amp * np.sin(half_t)])
    return c, s


def echo_variance_analytic(seq: EchoSequence, spectrum: NoiseSpectrum) -> float:
    """Exact variance sum_k (c_k^2 + s_k^2)/2 of the synthesized echo phase."""
    c, s = _phase_coefficients(seq, spectrum)
    return 0.5 * float(np.sum(c[:, 0] ** 2 + s[:, 0] ** 2))


def free_variance_analytic(total_time: float, spectrum: NoiseSpectrum) -> float:
    """Exact variance of the synthesized phase accumulated freely over total_time."""
    # the free column depends on the record length alone
    c, s = _phase_coefficients(EchoSequence(total_time / 2.0), spectrum)
    return 0.5 * float(np.sum(c[:, 1] ** 2 + s[:, 1] ** 2))


class DephasingStats(NamedTuple):
    """Sample variances ``var[i] = (echo, free)`` of sequence i and the exact
    covariance ``cov`` of their entries in ``var.ravel()`` order."""

    var: np.ndarray
    cov: np.ndarray

    @property
    def stderr(self) -> np.ndarray:
        """Exact standard errors, shaped like ``var``."""
        return np.sqrt(np.diag(self.cov)).reshape(self.var.shape)


def monte_carlo_dephasing(seqs: list[EchoSequence], spectrum: NoiseSpectrum,
                          n_realizations: int, rng) -> DephasingStats:
    """Echo and free phase variances of every sequence in ``seqs``, sampled
    over one set of noise realizations.

    The sequences' columns (:func:`_phase_coefficients`) stand side by
    side, so a block of realizations costs one draw and one real product,
    (cos th_k, sin th_k) pairs times the interleaved columns (c, -s), for
    all 2P phases.  Each th_k is a 4096th root of unity, drawn as 12 raw
    bits (:func:`_root_indices`) and read from a table.  Realizations come
    MC_CHUNK at a time, in buffers allocated once per call: a new 256 KB
    temporary per block would be served by glibc with mmap, or trimmed after
    it is freed, and page-fault in again on every block.
    """
    if n_realizations < 100:
        raise NoiseModelError("need at least 100 realizations")
    gen = as_generator(rng)
    c, s = (np.hstack(cols) for cols in zip(*(_phase_coefficients(q, spectrum)
                                              for q in seqs)))
    cols = np.stack([c, -s], axis=1).reshape(2 * MC_COMPONENTS, c.shape[1])
    index = np.empty((MC_CHUNK, MC_COMPONENTS), dtype=np.uint16)
    roots = np.empty((MC_CHUNK, MC_COMPONENTS), dtype=complex)

    phase = np.empty((c.shape[1], n_realizations))  # rows: echo, free of each sequence
    done = 0
    while done < n_realizations:
        m = min(MC_CHUNK, n_realizations - done)
        # the indices are below 4096, so "clip" clips nothing; "raise" would buffer
        z = _ROOTS.take(_root_indices(gen, index[:m]), out=roots[:m], mode="clip")
        phase[:, done:done + m] = (z.view(float) @ cols).T
        done += m

    var = np.var(phase, axis=1, ddof=1).reshape(-1, 2)
    return DephasingStats(var, variance_covariance(c, s, n_realizations))


def variance_covariance(c: np.ndarray, s: np.ndarray, n_realizations: int) -> np.ndarray:
    """Exact covariance of the sample variances (ddof 1) of the phases
    sum_k (c_kj cos th_k - s_kj sin th_k), one per column j:
    2 Sigma_ij^2/(n - 1) + K_ij/n, with Sigma = (C^T C + S^T S)/2 and K the
    joint fourth cumulant, summed over the independent components,
    -(c_ki c_kj + s_ki s_kj)^2/4 - (c_ki^2 + s_ki^2)(c_kj^2 + s_kj^2)/8.
    Its diagonal, -(3/8) sum_k a_k^4, is where a random-phase cosine departs
    from a Gaussian."""
    sigma = (c.T @ c + s.T @ s) / 2.0
    c2, s2, cs = c * c, s * s, c * s
    a2 = c2 + s2
    cumulant = -((c2.T @ c2 + s2.T @ s2 + 2.0 * cs.T @ cs) / 4.0 + a2.T @ a2 / 8.0)
    return 2.0 * sigma**2 / (n_realizations - 1) + cumulant / n_realizations


def _root_indices(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill uint16 ``out`` with uniform 12-bit root indices, four per raw word.

    A word's 16-bit lanes are read least significant first, (word >> 16 j)
    & 4095 for lane j, whatever the host's byte order, so a seed gives the
    same phases everywhere; a call consumes out.size/4 raw words.
    """
    raw = gen.bit_generator.random_raw(out.size // 4)
    lanes = raw.astype("<u8", copy=False).view("<u2").reshape(out.shape)
    return np.bitwise_and(lanes, 2**ROOT_BITS - 1, out=out)


# ---------------------------------------------------------------------------
# transport noise
# ---------------------------------------------------------------------------

def suppression_factor(tn: TransportNoise) -> float:
    """Transported-to-stored dephasing power ratio, referred to one atom.

    The differential-mode power is split symmetrically over the atom pair
    (factor 1/2), so a narrow noise line at w0 << 1/tau_T is suppressed by
    sin^2(w0 tau_T/2)/2 -> (tau_T w0)^2 / 8.
    """
    if tn.base.total_power == 0.0:
        return 0.0
    return 0.5 * tn.power / tn.base.total_power


def transport_phase_std(tn: TransportNoise) -> float:
    """Std of the differential phase accrued over one transport of tau_T."""
    return tn.tau_T * math.sqrt(tn.power)
