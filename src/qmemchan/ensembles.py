"""Input-state families and ensemble information quantities.

Each family names a pure n-qubit state; the ensemble actually fed to the
channel is its equiprobable Pauli orbit {sigma_w rho sigma_w : w in
{0,1,2,3}^n}.  The channel commutes with Pauli-string conjugation and the
orbit averages to the maximally mixed state, so the ensemble's Holevo
quantity collapses to I_n = n - S(Gamma_n(rho)) and the 4**n orbit is never
materialized (except in tests).

S(Gamma_n(rho)) comes from one of two paths:

- dense: build the 2**n x 2**n output with ``apply_gamma_n_fast`` and take
  its ``eigvalsh`` spectrum; any family, n <= 10.
- stabilizer: the basis product, GHZ and half-chain states are stabilizer
  states, so Gamma_n(rho) = 2**-n sum_{g in S} lambda(supp g) g lies in the
  commutative algebra of their stabilizer group S and ``stabilizer_spectrum``
  writes its spectrum in closed form from the flip law and
  ``pauli_multipliers``, with no density matrix; n <= 24 (the
  flip-string enumeration cap).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import DEFAULT_MAX_QUBITS, ChannelParams, apply_gamma_n_fast, pauli_multipliers
from .errors import InvalidParameterError
from .hmm_rate import EXACT_ENUMERATION_MAX, FlipProcess, path_measure
from .linalg import (
    ket_to_dm,
    num_qubits,
    pauli_conjugate,
    shannon_entropy,
    von_neumann_entropy,
)

FAMILY_KINDS = ("product", "ghz", "w", "max_entangled", "schmidt")
STABILIZER_KINDS = ("product", "ghz", "max_entangled")

# Stabilizer families up to this many qubits still take the dense path.  The
# closed-form spectra agree with eigvalsh to ~1e-16 per eigenvalue, but at
# n = 4 and 6 the I_n values move by up to 7.5e-14, which changes 51 cells of
# fig4.csv/fig5.csv in the 12th significant digit, and the figure bytes are
# pinned by perfbench/figure_hashes.json.  Once those hashes are regenerated
# this constant can go and every stabilizer family use stabilizer_spectrum.
DENSE_STABILIZER_MAX_QUBITS = 8

# one Bell pair: row = its Bell-basis label (Phi+, or one of the other three),
# column = whether the pair lies in the support; the entry sums the label's
# characters over the pair's stabilizer elements of that support
_BELL_PAIR_KERNEL = np.array([[1.0, 3.0], [1.0, -1.0]])


@dataclass(frozen=True)
class InputFamily:
    """A named pure input state on n qubits.

    kind: 'product' (a computational basis state, see ``bits``), 'ghz', 'w',
    'max_entangled' (maximal entanglement between the first and second half
    of the chain, n even) or 'schmidt' (two-qubit cos|00> + e^{i phi} sin|11>).
    """

    kind: str
    n: int
    bits: int = 0
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise InvalidParameterError(f"unknown family kind {self.kind!r}")
        if self.n < 1:
            raise InvalidParameterError(f"n = {self.n} must be >= 1")
        if self.kind == "w" and self.n < 2:
            raise InvalidParameterError("the W state needs n >= 2")
        if self.kind == "max_entangled" and self.n % 2 != 0:
            raise InvalidParameterError("half-chain entanglement needs even n")
        if self.kind == "schmidt" and self.n != 2:
            raise InvalidParameterError("the Schmidt-pair family is two-qubit")
        if self.kind == "product" and not 0 <= self.bits < 2**self.n:
            raise InvalidParameterError(f"bits = {self.bits} out of range for n = {self.n}")

    def state_vector(self) -> np.ndarray:
        dim = 2**self.n
        psi = np.zeros(dim, dtype=complex)
        if self.kind == "product":
            psi[self.bits] = 1.0
        elif self.kind == "ghz":
            psi[0] = psi[dim - 1] = 1.0 / math.sqrt(2.0)
        elif self.kind == "w":
            amp = 1.0 / math.sqrt(self.n)
            for k in range(self.n):
                psi[1 << k] = amp
        elif self.kind == "max_entangled":
            half = 2 ** (self.n // 2)
            amp = 1.0 / math.sqrt(half)
            for j in range(half):
                psi[j * half + j] = amp
        else:  # schmidt
            psi[0] = math.cos(self.theta)
            psi[dim - 1] = math.sin(self.theta) * np.exp(1j * self.phi)
        return psi


def basis_product(n: int, bits: int = 0) -> InputFamily:
    return InputFamily(kind="product", n=n, bits=bits)


def ghz(n: int) -> InputFamily:
    return InputFamily(kind="ghz", n=n)


def w_state(n: int) -> InputFamily:
    return InputFamily(kind="w", n=n)


def max_entangled_halves(n: int) -> InputFamily:
    return InputFamily(kind="max_entangled", n=n)


def schmidt_pair(theta: float, phi: float = 0.0) -> InputFamily:
    return InputFamily(kind="schmidt", n=2, theta=theta, phi=phi)


def generate(family: InputFamily) -> np.ndarray:
    """Density matrix of the family's pure state."""
    return ket_to_dm(family.state_vector())


@dataclass(frozen=True)
class HolevoEnsemble:
    states: tuple
    probs: np.ndarray

    def __post_init__(self):
        if len(self.states) != len(self.probs):
            raise InvalidParameterError("states and probs length mismatch")
        if abs(float(np.sum(self.probs)) - 1.0) > 1e-12 or np.any(np.asarray(self.probs) < 0):
            raise InvalidParameterError("probs is not a probability vector")
        dims = {s.shape for s in self.states}
        if len(dims) != 1:
            raise InvalidParameterError(f"mixed state dimensions {dims}")


def pauli_orbit_ensemble(rho: np.ndarray) -> HolevoEnsemble:
    """The explicit equiprobable Pauli orbit of rho (4**n members; small n only)."""
    n = num_qubits(rho)
    states = tuple(
        pauli_conjugate(rho, indices) for indices in itertools.product(range(4), repeat=n)
    )
    probs = np.full(len(states), 1.0 / len(states))
    return HolevoEnsemble(states=states, probs=probs)


def holevo_quantity(ensemble: HolevoEnsemble, params: ChannelParams) -> float:
    """S(average output) - average output entropy for a fixed ensemble, in bits."""
    outputs = [apply_gamma_n_fast(state, params) for state in ensemble.states]
    average = sum(p * out for p, out in zip(ensemble.probs, outputs))
    mean_entropy = sum(p * von_neumann_entropy(out) for p, out in zip(ensemble.probs, outputs))
    return von_neumann_entropy(average) - mean_entropy


@dataclass(frozen=True)
class MutualInformation:
    family: InputFamily
    i_n: float
    per_use: float


def stabilizer_spectrum(family: InputFamily, params: ChannelParams) -> np.ndarray:
    """Eigenvalues of Gamma_n(rho) for a product, GHZ or half-chain input.

    Unordered, 2**n of them, with multiplicity.  P below is the flip law
    ``path_measure`` (the output spectrum of any basis product state):

    - product: P.
    - GHZ: the output is diagonal except for the |0..0><1..1| coherence,
      which the channel scales by lambda(all qubits).  Each complement pair
      {z, ~z} other than {0..0, 1..1} gives (P(z) + P(~z))/2 twice; that
      pair gives (P(0..0) + P(1..1))/2 +/- lambda(all)/2.
    - max_entangled: m = n/2 Bell pairs (j, j + m), so the output is
      diagonal in the Bell basis.  lambda is taken on the 2**m pair masks u
      (qubits j and j + m in the support iff u_j = 1); the eigenvalue of a
      label B (the pairs not in Phi+) is 2**-n sum_u lambda(u) prod_j
      K[B_j, u_j] with K = _BELL_PAIR_KERNEL, and has multiplicity 3**|B|.
    """
    n = family.n
    if family.kind not in STABILIZER_KINDS:
        raise InvalidParameterError(f"family {family.kind!r} is not a stabilizer state")
    if n > EXACT_ENUMERATION_MAX:
        raise InvalidParameterError(
            f"family {family.kind!r}: n = {n} exceeds the cap {EXACT_ENUMERATION_MAX} "
            "of the stabilizer path"
        )
    if family.kind == "max_entangled":
        m = n // 2
        bits = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
        spectrum = pauli_multipliers(params, np.hstack([bits, bits]))
        for axis in range(m):
            spectrum = np.einsum(
                "bu,aur->abr", _BELL_PAIR_KERNEL, spectrum.reshape(2**axis, 2, -1)
            )
        return np.repeat(spectrum.ravel() / 2**n, 3 ** bits.sum(axis=1))
    law = path_measure(FlipProcess.from_params(params), n)
    if family.kind == "product":
        return law
    spectrum = (law + law[::-1]) / 2.0
    coherence = pauli_multipliers(params, np.ones(n, dtype=bool)) / 2.0
    spectrum[0] += coherence
    spectrum[-1] -= coherence
    return spectrum


def orbit_mutual_information(family: InputFamily, params: ChannelParams) -> MutualInformation:
    """I_n = n - S(Gamma_n(rho)) for the family's Pauli-orbit ensemble.

    Uses covariance + unitality instead of materializing the orbit.
    Stabilizer families above DENSE_STABILIZER_MAX_QUBITS take the
    closed-form ``stabilizer_spectrum`` (n <= 24); every other input is
    built densely and diagonalized (n <= 10).
    """
    n = family.n
    if family.kind in STABILIZER_KINDS and n > DENSE_STABILIZER_MAX_QUBITS:
        entropy = shannon_entropy(stabilizer_spectrum(family, params))
    else:
        if n > DEFAULT_MAX_QUBITS:
            raise InvalidParameterError(
                f"family {family.kind!r} at n = {n} needs a dense density matrix; "
                f"w and schmidt need n <= {DEFAULT_MAX_QUBITS} "
                f"(product, ghz and max_entangled reach n = {EXACT_ENUMERATION_MAX})"
            )
        entropy = von_neumann_entropy(apply_gamma_n_fast(generate(family), params))
    i_n = n - entropy
    return MutualInformation(family=family, i_n=i_n, per_use=i_n / n)


def default_families(n: int) -> list[InputFamily]:
    """The four families the figure sweeps compare (max_entangled only at even n)."""
    families = [basis_product(n), ghz(n), w_state(n)]
    if n % 2 == 0:
        families.append(max_entangled_halves(n))
    return families


def family_comparison(
    params: ChannelParams,
    n: int,
    families: list[InputFamily] | None = None,
) -> list[MutualInformation]:
    """Per-family orbit mutual information, sorted by per-use value descending.

    Ties keep the input order (sorted() is stable).
    """
    if families is None:
        families = default_families(n)
    for family in families:
        if family.n != n:
            raise InvalidParameterError(f"family {family.kind} has n = {family.n}, expected {n}")
    rows = [orbit_mutual_information(family, params) for family in families]
    return sorted(rows, key=lambda row: -row.per_use)
