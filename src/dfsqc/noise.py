"""Stochastic dephasing: one synthesis, one filter fold, the Monte Carlo.

The dephasing rate eps(t) is a real stationary Gaussian process, <eps(t)
eps(t + tau)> = int S(w) e^{i w tau} dw with int S dw = total_power, made
as eps(t) = sum_k A_k cos(w_k t + theta_k) (Shinozuka & Deodatis 1991)
from one :class:`Synthesis` record per spectrum: the midpoints w_k of
MC_COMPONENTS cells and A_k = 2 sqrt(S(w_k) dw), folding the two sides.

A filter is its switching times alone (Cywinski et al. 2008): the phase
int y(t) eps(t) dt, y = +1, -1, +1, ... between them.  The swap echo
[dt, U_x, dt, U_x] x n is dt (0, 1, ..., 2n); free evolution is (0, T).
One fold, :func:`phase_columns`, turns each filter into a column (c_k, s_k),
phase = sum_k (c_k cos theta_k - s_k sin theta_k), and every statistic
reads the columns: the exact variances sum_k (c_k^2 + s_k^2)/2, the Monte
Carlo and the exact covariance of its sample variances.  The exact
variances approach the integrals int S |Y|^2 dw as dw shrinks.

The Monte Carlo draws each theta_k from the 4096th roots of unity, exact
for every statistic reported: the mean of e^{i m theta} over the roots
vanishes for 0 < |m| < 4096, so every moment below order 4096 in cos and
sin, the variances (order 2) and covariances (order 4) among them, is that
of uniform continuous phases.

Transport noise: a shuttle of separation time tau_T filters the spectrum
through sin^2(w tau_T/2).  A Gaussian kernel of width 4/tau_T (motion
through the spatially correlated field) integrates out of the total power
exactly and changes no number.
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
                warnings.warn(f"cutoff * tau_co = {self.cutoff * tau_co:.2f} > 1: spectrum is "
                              "not slow compared to the coherence time", stacklevel=2)

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

    ``power`` is the transport-filtered power int S(u) sin^2(u tau_T/2) du,
    sum_k A_k^2 sin^2(w_k tau_T/2)/2 on the synthesis record, computed once
    when the model is built.
    """

    tau_T: float
    base: NoiseSpectrum
    power: float = field(init=False)

    def __post_init__(self):
        if self.tau_T <= 0:
            raise NoiseModelError("separation time must be positive")
        freqs, amps = synthesize(self.base)
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
    def edges(self) -> np.ndarray:
        """Switching times dt (0, 1, ..., 2 n_cycles): the swap echo as a filter."""
        return self.dt * np.arange(2 * self.n_cycles + 1)


class Synthesis(NamedTuple):
    """A spectrum's MC_COMPONENTS midpoint frequencies w_k and cosine
    amplitudes A_k = 2 sqrt(S(w_k) dw), both read-only."""

    freqs: np.ndarray
    amps: np.ndarray


def synthesize(spectrum: NoiseSpectrum) -> Synthesis:
    """The synthesis record of ``spectrum``.  The cells span [0, band], or a
    table's first to last row, so that no cell straddles the step from zero
    at a table's first row."""
    lo = 0.0 if spectrum.table is None else spectrum.table[0][0]
    dw = (spectrum.band() - lo) / MC_COMPONENTS
    freqs = lo + (np.arange(MC_COMPONENTS) + 0.5) * dw
    record = Synthesis(freqs, 2.0 * np.sqrt(spectrum.psd(freqs) * dw))
    for array in record:
        array.flags.writeable = False
    return record


def phase_columns(synth: Synthesis, filters) -> tuple[np.ndarray, np.ndarray]:
    """Columns (c, s), one per filter, of the phases int y(t) eps(t) dt =
    sum_k (c_k cos th_k - s_k sin th_k).

    A filter is its switching times t_0 < t_1 < ...: y is +1 on the first
    segment and changes sign at each later time.  In complex form a segment
    adds a e^{ip}, a = 2 A sin(w_k (t1 - t0)/2)/w_k at p = w_k (t0 + t1)/2
    (the midpoint identity), and a (+, -) pair (a0 - a1) e^{ip0} -
    2i a1 sin(g) e^{i(p0 + g)} with g = (p1 - p0)/2, so a balanced pair, an
    echo cycle, cancels nothing.  A lone last segment pairs with an empty one.
    """
    freqs, amps = synth
    cols = []
    for edges in filters:
        t = np.asarray(edges, dtype=float)
        t = np.append(t, t[-1]) if len(t) % 2 == 0 else t
        half = np.diff(t) / 2.0
        w0, w1 = (2.0 * amps[:, None] * np.sin(np.multiply.outer(freqs, h)) / freqs[:, None]
                  for h in (half[0::2], half[1::2]))
        p0 = np.multiply.outer(freqs, (t[:-1:2] + t[1::2]) / 2.0)
        g = np.multiply.outer(freqs, (half[0::2] + half[1::2]) / 2.0)
        lead, skew = 2.0 * w1 * np.sin(g), w0 - w1
        cols.append(((skew * np.cos(p0) + lead * np.sin(p0 + g)).sum(axis=1),
                     (skew * np.sin(p0) - lead * np.cos(p0 + g)).sum(axis=1)))
    return tuple(np.column_stack(col) for col in zip(*cols))


def phase_variances(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Exact variance sum_k (c_k^2 + s_k^2)/2 of each column's phase, summed
    column by column so that no column's bits depend on another's."""
    return 0.5 * np.array([np.sum(col) for col in (c**2 + s**2).T])


def echo_variance_analytic(seq: EchoSequence, spectrum: NoiseSpectrum) -> float:
    """Exact variance of the synthesized echo phase."""
    return float(phase_variances(*phase_columns(synthesize(spectrum), [seq.edges]))[0])


def free_variance_analytic(total_time: float, spectrum: NoiseSpectrum) -> float:
    """Exact variance of the synthesized phase accumulated freely over total_time."""
    return float(phase_variances(*phase_columns(synthesize(spectrum), [(0, total_time)]))[0])


class DephasingStats(NamedTuple):
    """Sample variances ``var[i] = (echo, free)`` of point i and the exact
    covariance ``cov`` of their entries in ``var.ravel()`` order."""

    var: np.ndarray
    cov: np.ndarray

    @property
    def stderr(self) -> np.ndarray:
        """Exact standard errors, shaped like ``var``."""
        return np.sqrt(np.diag(self.cov)).reshape(self.var.shape)


def monte_carlo_dephasing(c: np.ndarray, s: np.ndarray, n_realizations: int,
                          rng) -> DephasingStats:
    """Sample variances of the phases of the columns ``(c, s)``, paired
    (echo, free), over one set of realizations: a block of realizations is
    one draw and one product of (cos th_k, sin th_k) pairs with the
    interleaved columns (c, -s).  Each th_k is a 4096th root of unity, 12 raw
    bits (:func:`_root_indices`).  Blocks of MC_CHUNK reuse buffers allocated
    once per call: a new 256 KB temporary per block would be served by glibc
    with mmap, or trimmed after it is freed, and page-fault on every block.
    """
    if n_realizations < 100:
        raise NoiseModelError("need at least 100 realizations")
    gen = as_generator(rng)
    cols = np.stack([c, -s], axis=1).reshape(2 * MC_COMPONENTS, c.shape[1])
    index = np.empty((MC_CHUNK, MC_COMPONENTS), dtype=np.uint16)
    roots = np.empty((MC_CHUNK, MC_COMPONENTS), dtype=complex)
    phase = np.empty((c.shape[1], n_realizations))  # one row per column
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
