"""Stochastic dephasing, the swap-echo Monte Carlo, and transport noise.

The dephasing rate eps(t) is a real stationary Gaussian process with a
two-sided power spectral density S(w) normalized so that

    <eps(t) eps(t + tau)> = int S(w) e^{i w tau} dw,   int S dw = total_power.

Spectral synthesis draws eps(t) = sum_k A_k cos(w_k t + theta_k) on a
midpoint grid of MC_COMPONENTS frequencies with A_k = 2 sqrt(S(w_k) dw)
(folding the two sides), so the sample variance reproduces total_power
exactly and segment integrals of eps have closed forms.  The Monte Carlo
writes each segment integral by the midpoint identity and folds the signed
sum over segments into coefficient columns c_k, s_k (echo and free phase),
so a realization costs cos(theta_k) and sin(theta_k), from a 4096-entry
table and a short Taylor series (:func:`_sincos_turns`), whatever the
number of echo cycles.  Its block buffers are allocated once per call: a
new 256 KB temporary per operation is served by glibc with mmap, or
trimmed after it is freed, and page-faults in again on every block.

The analytic echo and free variances are the exact moments of the
synthesis, sum_k (c_k^2 + s_k^2)/2 for uniform independent theta_k, so the
Monte Carlo differs from them by sampling error alone.  They approach the
continuous filter integrals int S |Y|^2 dw (swap echo [dt, U_x, dt, U_x]:
|Y_1(w)|^2 = 16 sin^4(w dt/2)/w^2; free: 4 sin^2(w T/2)/w^2) as the
component spacing shrinks.

Transport noise: moving the atom pair with separation time tau_T filters
the spectrum through sin^2(w tau_T/2) and smears it with a Gaussian kernel
of width 4/tau_T (motion through the spatially correlated field).  A
frozen :class:`TransportNoise` computes the transported power once, when
it is built, on the same component grid; every transport lasts its tau_T
and reads that power.  The differential dephasing power is referred
symmetrically to the two atoms (factor 1/2), so a narrow noise line at
w0 << 1/tau_T is suppressed by sin^2(w0 tau_T/2)/2 -> (tau_T w0)^2/8.
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
MC_COMPONENTS = 512  # cosine components per Monte Carlo noise realization
# realizations per block, so the (64, MC_COMPONENTS) arrays stay in cache; it
# sets the BLAS summation order (the last bits of the variances), not the draws
MC_CHUNK = 64
SINCOS_TABLE = 4096  # entries per turn of the sincos table
_TABLE_STEP = TWO_PI / SINCOS_TABLE
_COS_TABLE = np.cos(np.arange(SINCOS_TABLE) * _TABLE_STEP)
_SIN_TABLE = np.sin(np.arange(SINCOS_TABLE) * _TABLE_STEP)


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
        return cls("table", 2.0 * float(np.trapezoid(s, w)), float(w[-1]), table=(w, s))

    @classmethod
    def from_table_file(cls, path):
        data = np.loadtxt(path, ndmin=2)
        if data.shape[1] != 2:
            raise NoiseModelError(f"table file needs two columns (w, S), has {data.shape[1]}")
        return cls.from_table(data[:, 0], data[:, 1])

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
    """Midpoint frequencies w_k and cosine amplitudes A_k = 2 sqrt(S(w_k) dw)."""
    band = spectrum.band()
    dw = band / n_components
    freqs = (np.arange(n_components) + 0.5) * dw
    amps = 2.0 * np.sqrt(spectrum.psd(freqs) * dw)
    return freqs, amps


def _phase_coefficients(seq: EchoSequence, spectrum: NoiseSpectrum):
    """Columns (c, s), echo then free: a phase is sum_k (c_k cos th_k - s_k sin th_k)."""
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
    var_echo: float
    var_free: float
    stderr_echo: float
    stderr_free: float
    n_realizations: int


def _sincos_turns(u: np.ndarray, work: np.ndarray, index: np.ndarray):
    """cos(2 pi u) and sin(2 pi u) for turns 0 <= u < 1, without libm.

    With j = floor(4096 u) the angle splits into the table angle
    2 pi j/4096 and a residual x = (4096 u - j) 2 pi/4096 <= 1.54e-3; both
    4096 u and the subtraction are exact.  cos x = 1 - x^2/2 + x^4/24 and
    sin x = x - x^3/6 + x^5/120 truncate below 2e-20, and the angle-addition
    formulas add the small corrections to the table entries last, so a
    result carries one rounding on top of its table entry's.  Over 10^6
    draws it is within 8.9e-16 of np.cos(2 pi u) (whose argument is itself
    rounded), and cos^2 + sin^2, summed in extended precision, within
    3.0e-16 of 1.

    Nothing is allocated: ``u`` and ``work``, five float arrays of u's
    shape, are overwritten, ``index`` (intp, u's shape) receives j, and
    (cos, sin) are returned in two of the ``work`` arrays.  The ufuncs are
    those of the expressions in the comments, in the same order, so the
    bits do not depend on the buffers.
    """
    whole, x2, versin_x, sin_x, tmp = work
    x = np.multiply(u, SINCOS_TABLE, out=u)  # scaled = 4096 u
    np.trunc(x, out=whole)
    np.copyto(index, whole, casting="unsafe")  # whole.astype(np.intp)
    np.subtract(x, whole, out=x)
    np.multiply(x, _TABLE_STEP, out=x)  # x = (scaled - whole) * step
    np.multiply(x, x, out=x2)
    # versin_x = 1 - cos(x) = x2 * (0.5 - x2 * (1/24))
    np.multiply(x2, 1.0 / 24.0, out=versin_x)
    np.subtract(0.5, versin_x, out=versin_x)
    np.multiply(x2, versin_x, out=versin_x)
    # sin_x = x * (1 - x2 * (1/6 - x2 * (1/120)))
    np.multiply(x2, 1.0 / 120.0, out=sin_x)
    np.subtract(1.0 / 6.0, sin_x, out=sin_x)
    np.multiply(x2, sin_x, out=sin_x)
    np.subtract(1.0, sin_x, out=sin_x)
    np.multiply(x, sin_x, out=sin_x)
    # j < 4096 since u < 1, so "clip" clips nothing; "raise" would buffer
    cos_j = _COS_TABLE.take(index, out=whole, mode="clip")
    sin_j = _SIN_TABLE.take(index, out=x2, mode="clip")
    # cos = cos_j - (cos_j * versin_x + sin_j * sin_x)
    np.multiply(cos_j, versin_x, out=x)
    np.multiply(sin_j, sin_x, out=tmp)
    np.add(x, tmp, out=x)
    # sin = sin_j + (cos_j * sin_x - sin_j * versin_x)
    np.multiply(cos_j, sin_x, out=sin_x)
    np.multiply(sin_j, versin_x, out=versin_x)
    np.subtract(sin_x, versin_x, out=sin_x)
    return (np.subtract(cos_j, x, out=cos_j),
            np.add(sin_j, sin_x, out=sin_j))


def monte_carlo_dephasing(seq: EchoSequence, spectrum: NoiseSpectrum,
                          n_realizations: int, rng) -> DephasingStats:
    """Sample echo and free phase variances over noise realizations.

    Per realization the echo phase is sum over cycles of (integral of eps
    over the first half) - (second half); the free phase integrates eps
    over the whole record.  By the midpoint identity the integral of
    A cos(w t + th) over [t0, t1] is 2 A sin(w (t1 - t0)/2) cos(w m + th)/w
    with m = (t0 + t1)/2, so the cancelling difference
    sin(w t1 + th) - sin(w t0 + th) is never formed.  The two halves of
    cycle c pair up to 4 A sin^2(w dt/2) sin(w tau_c + th)/w with
    tau_c = (2c + 1) dt, and the free phase is one segment over [0, T].
    Expanding in cos(th) and sin(th) folds both sums, once per call, into
    per-component coefficients c[k] and s[k] with an echo and a free
    column (:func:`_phase_coefficients`); a chunk of realizations then
    costs cos(th) @ c - sin(th) @ s, two transcendentals per component
    whatever n_cycles is.  Phases are drawn as turns th/(2 pi) =
    gen.random(), the same stream as gen.uniform(0, 2 pi), MC_CHUNK
    realizations at a time, and :func:`_sincos_turns` evaluates both
    transcendentals from a table, within 1e-15 of libm, in buffers
    allocated once per call (so concurrent calls share none).  The draws
    do not depend on MC_CHUNK; the BLAS summation order, and so the last
    bits of the variances, do.
    """
    if n_realizations < 100:
        raise NoiseModelError("need at least 100 realizations")
    gen = as_generator(rng)
    c, s = _phase_coefficients(seq, spectrum)
    block = (MC_CHUNK, MC_COMPONENTS)
    buffers = np.empty((6,) + block)  # the turns, then _sincos_turns' work
    index = np.empty(block, dtype=np.intp)

    phase = np.empty((2, n_realizations))  # rows: echo, free
    done = 0
    while done < n_realizations:
        m = min(MC_CHUNK, n_realizations - done)
        u = gen.random(out=buffers[0, :m])
        cos_th, sin_th = _sincos_turns(u, buffers[1:, :m], index[:m])
        phase[:, done:done + m] = (cos_th @ c - sin_th @ s).T
        done += m

    var_echo, var_free = (float(v) for v in np.var(phase, axis=1, ddof=1))
    factor = math.sqrt(2.0 / (n_realizations - 1))
    return DephasingStats(var_echo, var_free, var_echo * factor,
                          var_free * factor, n_realizations)


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
