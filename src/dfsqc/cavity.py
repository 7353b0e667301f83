"""Pulse-level model of the atom-cavity interface.

A single-sided cavity (decay rate kappa) couples the |0> -> |e> transition
of the atoms inside it (coupling g per atom, excited-state decay gamma).
In the low-saturation regime the intracavity field and the atomic
polarization form a linear system driven by the input pulse, so a
reflected pulse is fully described by the frequency-dependent reflection
coefficient

    r(w) = 1 - kappa / (kappa/2 - i w + G^2 / (gamma/2 - i w)),

with G^2 the summed coupling of the atoms currently in |0> (atoms in |1>
are dark).  With no coupled atom this reduces to the bare-cavity response,
r(0) = -1: a resonant pulse is reflected with a flipped phase.  That
conditional phase is what turns one reflection into a physical CZ gate on
the two atoms addressed by the pulse.

All pulse propagation is done spectrally on a fixed grid (4096 samples
spanning 16 standard deviations of the pulse spectrum) so results are
bit-reproducible.  Transforms between the time and frequency grids use the
chirp-z method (Bluestein), O(N log N) on FFTs.  The spectral moments
<f, r f> and <rf, rf> of a pulse are memoized in its grids, keyed on the
exact floats (kappa, gamma, G^2) that fix r(w); they do not depend on the
amplitude alpha, so every ``with_alpha`` copy shares them, and a sweep makes
one reflection pass per distinct coupling.  A reflection is nothing but
these moments: :func:`cz_output_state` gives the pair (O, E) of each
logical CZ component, the conditional phase is arg O and the photon loss
1 - E.  The CZ fidelity follows the conditional-state convention: branch
amplitudes keep the photon-loss conditioning factors and the global output
state is normalized at the end.  :func:`cz_diagonal` is the same
reflection as a diagonal map on the two addressed atoms, the lossy CZ a
protocol run applies; its only cache is the pulse's moment memo.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

N_TIME = 4096
N_FREQ = 4096
FREQ_WINDOW_SIGMAS = 16.0
SHAPE_ATOL = 1e-10

COMPONENTS = ((0, 0), (0, 1), (1, 0), (1, 1))


class CavityModelError(ValueError):
    pass


@dataclass
class CavityParams:
    """Atom-cavity rates in rad/s plus the number of coupled atoms.

    ``g2`` optionally gives the second atom its own coupling; by default
    both coupled atoms share ``g`` and act as one bright mode with
    G^2 = g^2 + g2^2.
    """

    g: float
    kappa: float
    gamma: float
    n_coupled: int = 0
    g2: float | None = None

    def __post_init__(self):
        if self.g <= 0 or self.kappa <= 0 or self.gamma < 0:
            raise CavityModelError("rates must be positive (gamma may be zero)")
        if self.n_coupled not in (0, 1, 2):
            raise CavityModelError("n_coupled must be 0, 1 or 2")

    @property
    def cooperativity(self) -> float:
        """Strong-coupling figure of merit C = g^2/(kappa*gamma)."""
        if self.gamma == 0:
            return math.inf
        return self.g**2 / (self.kappa * self.gamma)

    def bright_coupling_sq(self, n_coupled=None) -> float:
        n = self.n_coupled if n_coupled is None else n_coupled
        if n == 0:
            return 0.0
        if n == 1:
            return self.g**2
        g2 = self.g if self.g2 is None else self.g2
        return self.g**2 + g2**2

    def with_coupled(self, n: int) -> "CavityParams":
        return CavityParams(self.g, self.kappa, self.gamma, n, self.g2)

    def scaled_g(self, ratio: float) -> "CavityParams":
        g2 = None if self.g2 is None else self.g2 * ratio
        return CavityParams(self.g * ratio, self.kappa, self.gamma, self.n_coupled, g2)


def reflection_coefficient(omega, p: CavityParams) -> complex | np.ndarray:
    """Amplitude reflection r(omega) for detuning omega from cavity resonance.

    For gamma = 0 and a coupled atom the response is lossless; the w -> 0
    limit is +1 and is returned exactly at omega = 0.
    """
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    G2 = p.bright_coupling_sq()
    if G2 == 0.0:
        r = 1.0 - p.kappa / (p.kappa / 2 - 1j * w)
    elif p.gamma > 0:  # the pole gamma/2 - i w cannot vanish
        iw = 1j * w
        r = G2 / (p.gamma / 2 - iw)
        r += p.kappa / 2 - iw
        np.divide(p.kappa, r, out=r)
        np.subtract(1.0, r, out=r)
    else:
        pole = p.gamma / 2 - 1j * w
        with np.errstate(divide="ignore", invalid="ignore"):
            r = 1.0 - p.kappa / (p.kappa / 2 - 1j * w + G2 / pole)
        r = np.where(np.abs(pole) == 0.0, 1.0 + 0j, r)
    return complex(r[0]) if scalar else r


# ---------------------------------------------------------------------------
# pulses
# ---------------------------------------------------------------------------

def _default_gaussian(T: float) -> Callable[[np.ndarray], np.ndarray]:
    def f(t):
        return np.exp(-((t - T / 2) ** 2) / (T / 5) ** 2)

    return f


def _chirp_z(x: np.ndarray, n0: float, dn: float, k0: float, dk: float,
             m: int, sign: float) -> np.ndarray:
    """sum_n exp(sign*1j*(k0 + k*dk)*(n0 + n*dn)) * x[n] for k < m.

    Bluestein's chirp-z transform: k*n = (k^2 + n^2 - (k - n)^2)/2 turns the
    sum into a convolution with a chirp, done with zero-padded FFTs.
    """
    n = x.shape[0]
    nfft = 1 << (n + m - 2).bit_length()  # >= n + m - 1: no wrap-around
    half = sign * dk * dn / 2.0
    j = np.arange(1 - n, m, dtype=float)
    kernel = np.fft.fft(np.exp(-1j * half * j**2), nfft)
    nn, kk = np.arange(n, dtype=float), np.arange(m, dtype=float)
    u = x * np.exp(1j * (sign * k0 * dn * nn + half * nn**2))
    conv = np.fft.ifft(np.fft.fft(u, nfft) * kernel)[n - 1:n - 1 + m]
    return conv * np.exp(1j * (sign * n0 * (k0 + dk * kk) + half * kk**2))


@dataclass(eq=False)
class PulseSpec:
    """Input pulse: duration T, normalized shape f(t) on [0, T], amplitude.

    ``kind`` selects a plain coherent state or the odd cat
    N_-(|alpha> - |-alpha>) with N_- = 1/sqrt(2(1 - e^{-2|alpha|^2})).
    A user-supplied shape must satisfy int |f|^2 dt = 1 within 1e-10; use
    :meth:`gaussian` for the standard pulse which is normalized exactly on
    the sampling grid.
    """

    T: float
    alpha: complex = 1.0
    kind: str = "coherent"
    shape: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.T <= 0:
            raise CavityModelError("pulse duration must be positive")
        if self.kind not in ("coherent", "odd_cat"):
            raise CavityModelError("kind must be 'coherent' or 'odd_cat'")
        self._grids = None

    @classmethod
    def gaussian(cls, T: float, alpha: complex = 1.0, kind: str = "coherent"):
        return cls(T, alpha, kind)

    @property
    def mean_photon_number(self) -> float:
        return abs(self.alpha) ** 2

    def with_alpha(self, alpha: complex) -> "PulseSpec":
        """The same pulse with amplitude ``alpha``; shares the cached grids."""
        spec = replace(self, alpha=alpha)
        spec._grids = self.grids
        return spec

    # -- sampled grids, built once ------------------------------------
    def _build(self):
        t = (np.arange(N_TIME) + 0.5) * (self.T / N_TIME)
        dt = self.T / N_TIME
        fn = self.shape if self.shape is not None else _default_gaussian(self.T)
        f = np.asarray(fn(t), dtype=complex)
        norm = float(np.sum(np.abs(f) ** 2) * dt)
        if self.shape is None:
            f = f / math.sqrt(norm)
        elif abs(norm - 1.0) > SHAPE_ATOL:
            raise CavityModelError(
                f"pulse shape is not normalized: int |f|^2 dt = {norm:.6g}"
            )

        # provisional FFT to locate the spectrum, then a dedicated window
        pad = 4
        spec = np.fft.fftshift(np.fft.fft(f, n=pad * N_TIME)) * dt
        wgrid = np.fft.fftshift(np.fft.fftfreq(pad * N_TIME, dt)) * 2 * math.pi
        weight = np.abs(spec) ** 2
        weight /= weight.sum()
        mean = float(np.sum(wgrid * weight))
        sigma = math.sqrt(float(np.sum((wgrid - mean) ** 2 * weight)))

        half = FREQ_WINDOW_SIGMAS / 2.0 * sigma
        w = mean + np.linspace(-half, half, N_FREQ)
        dw = w[1] - w[0]
        ft = _chirp_z(f, t[0], dt, w[0], dw, N_FREQ, +1.0) * dt
        norm_w = float(np.sum(np.abs(ft) ** 2) * dw / (2 * math.pi))
        self._grids = {"t": t, "dt": dt, "f": f, "w": w, "dw": dw,
                       "ft": ft, "norm_w": norm_w, "moments": {}}

    @property
    def grids(self) -> dict:
        if self._grids is None:
            self._build()
        return self._grids


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

@dataclass
class ReflectionResult:
    """Reflected-pulse summary.

    amp_ratio is alpha'/alpha: magnitude from the reflected energy, phase
    from the matched filter <f_in, r f_in>.  eta = 1 - |amp_ratio|^2 is the
    photon loss.  mode_overlap is <f_out, f_in> between normalized modes.
    """

    amp_ratio: complex
    eta: float
    mode_overlap: complex
    out_shape: np.ndarray
    out_times: np.ndarray


def _spectral_moments(ps: PulseSpec, p: CavityParams, n_coupled: int, rf=None):
    """Matched-filter overlap O = <f, r f> and energy ratio E = <rf, rf>.

    Memoized in the pulse grids on (kappa, gamma, G^2), every input of r(w)
    besides the grid.  A caller that already holds r f on the grid for
    ``n_coupled`` atoms passes it as ``rf``.
    """
    g = ps.grids
    memo = g["moments"]
    key = (p.kappa, p.gamma, p.bright_coupling_sq(n_coupled))
    if key not in memo:
        if rf is None:
            rf = reflection_coefficient(g["w"], p.with_coupled(n_coupled)) * g["ft"]
        scale = g["dw"] / (2 * math.pi) / g["norm_w"]
        O = complex(np.sum(np.conj(g["ft"]) * rf) * scale)
        E = float(np.real(np.sum(np.abs(rf) ** 2) * scale))
        memo[key] = O, min(E, 1.0 + 1e-12)
    return memo[key]


def photon_loss(ps: PulseSpec, p: CavityParams) -> float:
    """eta = 1 - |alpha'/alpha|^2 from the spectral moments alone (fast)."""
    _, E = _spectral_moments(ps, p, p.n_coupled)
    return min(max(1.0 - E, 0.0), 1.0)


def propagate_pulse(ps: PulseSpec, p: CavityParams) -> ReflectionResult:
    """Reflect the pulse off the (possibly atom-loaded) cavity.

    Spectral route: transform the shape, apply r(w), transform back.  The
    output mode is reported on a grid twice the input duration to capture
    the cavity ring-down tail.
    """
    if ps.T * p.kappa < 10:
        warnings.warn(
            f"pulse duration T*kappa = {ps.T * p.kappa:.2f} < 10: outside the "
            "adiabatic regime, reflection is strongly distorted",
            stacklevel=2,
        )
    g = ps.grids
    rf = reflection_coefficient(g["w"], p) * g["ft"]
    O, E = _spectral_moments(ps, p, p.n_coupled, rf)
    if ps.alpha == 0:
        amp_ratio, eta = 1.0 + 0j, 0.0  # vacuum in, vacuum out (convention)
    else:
        amp_ratio = math.sqrt(max(E, 0.0)) * cmath.exp(1j * cmath.phase(O))
        eta = min(max(1.0 - E, 0.0), 1.0)

    dt = g["dt"]
    t_out = (np.arange(2 * N_TIME) + 0.5) * dt
    scale = g["dw"] / (2 * math.pi)
    out = _chirp_z(rf, g["w"][0], g["dw"], t_out[0], dt, 2 * N_TIME, -1.0) * scale
    nrm = math.sqrt(float(np.sum(np.abs(out) ** 2) * dt))
    if nrm > 0:
        out = out / nrm
    mode_overlap = O / math.sqrt(E) if E > 0 else 0.0 + 0j
    return ReflectionResult(amp_ratio, eta, mode_overlap, out, t_out)


# ---------------------------------------------------------------------------
# logical CZ through one reflection
# ---------------------------------------------------------------------------

def _as_weights(eps) -> dict:
    if eps is None:
        return {c: 0.25 for c in COMPONENTS}
    if isinstance(eps, dict):
        amp = {c: complex(eps[c]) for c in COMPONENTS}
    else:
        arr = np.asarray(eps, dtype=complex).reshape(4)
        amp = {c: arr[i] for i, c in enumerate(COMPONENTS)}
    total = sum(abs(v) ** 2 for v in amp.values())
    if abs(total - 1.0) > 1e-10:
        raise CavityModelError(f"sum |eps|^2 = {total:.6g}, expected 1")
    return {c: abs(v) ** 2 for c, v in amp.items()}


def cz_output_state(ps: PulseSpec, p: CavityParams) -> dict:
    """The moments (O, E) of each logical component (m, n) of the CZ input.

    Component (m, n) couples (m == 0) + (n == 0) atoms: atom 1 and atom 3
    couple through their |0> level, and (1, 1) sees the bare cavity.  Its
    conditional phase is arg O.  The moments do not depend on the atomic
    amplitudes, which only weight the components.
    """
    if ps.kind != "odd_cat":
        raise CavityModelError("the CZ probe pulse must be an odd cat")
    return {(m, n): _spectral_moments(ps, p, (m == 0) + (n == 0))
            for (m, n) in COMPONENTS}


def _branch_overlap(x: float, otil: complex) -> complex:
    """<ideal cat | reflected cat> including the no-loss conditioning.

    Equals sinh(x*Otilde)/sinh(x) written in overflow-safe form; the
    photon-loss factor e^{-x eta/2} cancels exactly against the coherent
    overlap terms because eta = 1 - E.
    """
    if x < 1e-12:
        return otil
    return -np.exp(x * (otil - 1.0)) * np.expm1(-2.0 * x * otil) / (
        -math.expm1(-2.0 * x)
    )


def _branch_norm_sq(x: float, E: float) -> float:
    """Squared norm of a reflected cat branch conditioned on no loss."""
    if x < 1e-12:
        return E
    return math.exp(x * (E - 1.0)) * math.expm1(-2.0 * x * E) / math.expm1(-2.0 * x)


def cz_diagonal(ps: PulseSpec, p: CavityParams) -> np.ndarray:
    """Diagonal of the lossy CZ on two addressed atoms, entry m + 2n for atom
    values (m, n).

    Magnitude is the cat-branch norm conditioned on no spontaneous emission,
    phase the conditional reflection phase arg O.  Tends to the exact CZ as
    g -> inf, gamma -> 0.
    """
    x = ps.mean_photon_number
    out = np.zeros(4, dtype=complex)
    for (m, n), (O, E) in cz_output_state(ps, p).items():
        out[m + 2 * n] = math.sqrt(_branch_norm_sq(x, E)) * np.exp(1j * cmath.phase(O))
    return out


def cz_gate_fidelity(eps, ps: PulseSpec, p: CavityParams) -> float:
    """Fidelity of one reflection against the ideal CZ output.

    F = |<Psi_ideal|Psi_out>|^2 with the output state conditioned on no
    spontaneous-emission loss and globally renormalized.  The ideal output
    carries the input cat with mode -f_in on the (1,1) component and +f_in
    elsewhere, so its overlap with the reflected mode is -O there and O
    elsewhere.  Multimode coherent overlaps reduce the four +/- cat cross
    terms to sinh ratios per component.
    """
    weights = _as_weights(eps)
    comps = cz_output_state(ps, p)
    x = ps.mean_photon_number
    num = 0.0 + 0j
    den = 0.0
    for c, w in weights.items():
        O, E = comps[c]
        num += w * _branch_overlap(x, -O if c == (1, 1) else O)
        den += w * _branch_norm_sq(x, E)
    if den <= 0:
        return 0.0
    fid = float(abs(num) ** 2 / den)
    if fid > 1.0 + 1e-9:
        raise CavityModelError(f"fidelity {fid} exceeds 1: numerical breakdown")
    return min(fid, 1.0)


def fidelity_sweep(values, ps: PulseSpec, p: CavityParams,
                   vary: str = "nbar") -> np.ndarray:
    """Rows (x, F) of the uniform-weight CZ input over a grid of mean photon
    number or coupling ratio."""
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        raise CavityModelError("sweep grid must not be empty")
    rows = []
    for x in values:
        if vary == "nbar":
            if x < 0:
                raise CavityModelError("mean photon number must be >= 0")
            rows.append((x, cz_gate_fidelity(None, ps.with_alpha(math.sqrt(x)), p)))
        elif vary == "g_ratio":
            rows.append((x, cz_gate_fidelity(None, ps, p.scaled_g(x))))
        else:
            raise CavityModelError(f"unknown sweep variable {vary!r}")
    return np.array(rows)
