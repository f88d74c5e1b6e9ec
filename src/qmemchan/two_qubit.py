"""Closed-form two-use capacity machinery.

For two channel uses the output of the Schmidt-diagonal pure state

    |psi(theta, phi)> = cos(theta)|00> + e^{i phi} sin(theta)|11>

has a 4x4 matrix with known sparsity, so its spectrum, entropy and the
capacity of the induced Pauli-orbit ensemble come in closed form.  The sign
of the threshold

    f = |a^2 + mu d^2| - 2|a|

decides whether the maximally entangled state (theta = pi/4, f >= 0) or a
basis product state (theta = 0) minimizes the output entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelParams
from .errors import InvalidParameterError
from .linalg import ket_to_dm, shannon_entropy


class OptimalFamily(Enum):
    PRODUCT = "product"
    MAX_ENTANGLED = "max_entangled"


@dataclass(frozen=True)
class InputAngle:
    """Schmidt angles: theta in [0, pi/2], phi in [0, 2 pi)."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2 + 1e-12:
            raise InvalidParameterError(f"theta = {self.theta} outside [0, pi/2]")
        if not 0.0 <= self.phi < 2 * math.pi:
            raise InvalidParameterError(f"phi = {self.phi} outside [0, 2 pi)")

    def ket(self) -> np.ndarray:
        psi = np.zeros(4, dtype=complex)
        psi[0] = math.cos(self.theta)
        psi[3] = math.sin(self.theta) * np.exp(1j * self.phi)
        return psi

    def density_matrix(self) -> np.ndarray:
        return ket_to_dm(self.ket())


@dataclass(frozen=True)
class TwoUseSpectrum:
    """Two-use flip-pattern probabilities and the coherence coefficient.

    lambda01 doubles as lambda10; c multiplies the surviving |00><11|
    coherence.  c = (a^2 + mu d^2)/4 and may be negative.
    """

    lambda00: float
    lambda01: float
    lambda11: float
    c: float

    def probabilities(self) -> np.ndarray:
        return np.array([self.lambda00, self.lambda01, self.lambda01, self.lambda11])

    def matrix_elements(self, angle: InputAngle):
        """(alpha, beta, gamma, delta) of the output matrix for psi(theta, phi)."""
        cos2 = math.cos(angle.theta) ** 2
        sin2 = math.sin(angle.theta) ** 2
        alpha = cos2 * self.lambda00 + sin2 * self.lambda11
        beta = sin2 * self.lambda00 + cos2 * self.lambda11
        delta = self.c * np.exp(1j * angle.phi) * math.sin(2 * angle.theta) / 2.0
        return alpha, beta, self.lambda01, delta


def lambda_pair(params: ChannelParams) -> TwoUseSpectrum:
    """Two-use flip probabilities: branch-pair weighted products of the
    per-branch keep/flip probabilities (1 +/- x_i)/2.

    This is the n = 2 case of ``hmm_rate.path_measure`` (lambda00, lambda01,
    lambda11) and of ``channel.pauli_multipliers`` (c = lambda({0, 1})).  It
    stays in closed form because its arithmetic fixes the bytes of the
    fig1 and fig2 datasets."""
    mu = params.mu
    x0, x1 = params.x0, params.x1
    same = (1.0 + mu) / 4.0
    cross = (1.0 - mu) / 4.0
    keep0, keep1 = (1.0 + x0) / 2.0, (1.0 + x1) / 2.0
    flip0, flip1 = (1.0 - x0) / 2.0, (1.0 - x1) / 2.0
    lam00 = same * (keep0 * keep0 + keep1 * keep1) + cross * 2.0 * keep0 * keep1
    lam01 = same * (keep0 * flip0 + keep1 * flip1) + cross * (keep0 * flip1 + flip0 * keep1)
    lam11 = same * (flip0 * flip0 + flip1 * flip1) + cross * 2.0 * flip0 * flip1
    c = ((1.0 + mu) * (x0 * x0 + x1 * x1) + 2.0 * (1.0 - mu) * x0 * x1) / 4.0
    return TwoUseSpectrum(lambda00=lam00, lambda01=lam01, lambda11=lam11, c=c)


def threshold_f(params: ChannelParams) -> float:
    """f = |a^2 + mu d^2| - 2|a|; f >= 0 means entangled inputs win."""
    return abs(params.a**2 + params.mu * params.d**2) - 2.0 * abs(params.a)


def output_state(params: ChannelParams, angle: InputAngle) -> np.ndarray:
    """The 4x4 two-use output of psi(theta, phi).

    Only alpha, beta, the double gamma and the |00><11| coherence survive.
    The coherence entry at (1,1 -> 0,0), i.e. row 3 column 0, carries the
    phase +phi; its conjugate sits at (0, 3).
    """
    spectrum = lambda_pair(params)
    alpha, beta, gamma, delta = spectrum.matrix_elements(angle)
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = alpha
    out[1, 1] = gamma
    out[2, 2] = gamma
    out[3, 3] = beta
    out[3, 0] = delta
    out[0, 3] = np.conj(delta)
    return out


def output_eigenvalues(params: ChannelParams, angle: InputAngle) -> np.ndarray:
    """Closed-form output spectrum, sorted descending; sums to 1."""
    spectrum = lambda_pair(params)
    alpha, beta, gamma, delta = spectrum.matrix_elements(angle)
    root = math.sqrt((alpha - beta) ** 2 + 4.0 * abs(delta) ** 2)
    eigs = np.array([(alpha + beta + root) / 2.0, gamma, gamma, (alpha + beta - root) / 2.0])
    return np.sort(eigs)[::-1]


def _entropy_at(params: ChannelParams, theta: float) -> float:
    return shannon_entropy(output_eigenvalues(params, InputAngle(theta)))


def product_branch_capacity(spectrum: TwoUseSpectrum) -> float:
    """1 - S/2 at theta = 0, where the output is diag(l00, l01, l01, l11)."""
    return 1.0 - shannon_entropy(spectrum.probabilities()) / 2.0


def entangled_branch_capacity(spectrum: TwoUseSpectrum) -> float:
    """1 - S/2 at theta = pi/4, output spectrum {1 - 3 l01, l01, l01, l01}."""
    lam = spectrum.lambda01
    return 1.0 - shannon_entropy(np.array([1.0 - 3.0 * lam, lam, lam, lam])) / 2.0


@dataclass(frozen=True)
class TwoUseCapacity:
    capacity_bits_per_use: float
    optimal_family: OptimalFamily
    theta_star: float
    f: float
    c2_product: float
    c2_entangled: float
    spectrum: TwoUseSpectrum


def two_use_capacity(params: ChannelParams) -> TwoUseCapacity:
    """Two-use capacity 1 - S_min/2 with the family picked by sign(f).

    Ties (f = 0) are reported as MAX_ENTANGLED; both branch values coincide
    there.
    """
    spectrum = lambda_pair(params)
    f = threshold_f(params)
    c2_prod = product_branch_capacity(spectrum)
    c2_ent = entangled_branch_capacity(spectrum)
    if f >= 0.0:
        family, theta_star, capacity = OptimalFamily.MAX_ENTANGLED, math.pi / 4, c2_ent
    else:
        family, theta_star, capacity = OptimalFamily.PRODUCT, 0.0, c2_prod
    return TwoUseCapacity(
        capacity_bits_per_use=capacity,
        optimal_family=family,
        theta_star=theta_star,
        f=f,
        c2_product=c2_prod,
        c2_entangled=c2_ent,
        spectrum=spectrum,
    )


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# grid points of the coarse theta scan, endpoints included
THETA_GRID_SIZE = 65


def numeric_theta_scan(params: ChannelParams) -> float:
    """Grid + golden-section argmin of the output entropy over theta in [0, pi/4].

    The grid has THETA_GRID_SIZE points; golden section then refines the
    bracket around its best point.  Validates the endpoint dichotomy
    numerically; accurate to 1e-6.  A flat entropy landscape (degenerate
    channel) returns 0 by convention.
    """
    thetas = np.linspace(0.0, math.pi / 4, THETA_GRID_SIZE)
    values = np.array([_entropy_at(params, t) for t in thetas])
    if values.max() - values.min() < 1e-12:
        return 0.0
    best = int(np.argmin(values))
    lo = thetas[max(best - 1, 0)]
    hi = thetas[min(best + 1, THETA_GRID_SIZE - 1)]
    # golden-section shrink; the objective is unimodal on the bracket
    left = hi - _GOLDEN * (hi - lo)
    right = lo + _GOLDEN * (hi - lo)
    f_left = _entropy_at(params, left)
    f_right = _entropy_at(params, right)
    while hi - lo > 1e-7:
        if f_left <= f_right:
            hi, right, f_right = right, left, f_left
            left = hi - _GOLDEN * (hi - lo)
            f_left = _entropy_at(params, left)
        else:
            lo, left, f_left = left, right, f_right
            right = lo + _GOLDEN * (hi - lo)
            f_right = _entropy_at(params, right)
    return float((lo + hi) / 2.0)
