"""Input-state families and ensemble information quantities.

Each family names a pure n-qubit state; the ensemble actually fed to the
channel is its equiprobable Pauli orbit {sigma_w rho sigma_w : w in
{0,1,2,3}^n}.  The channel commutes with Pauli-string conjugation and the
orbit averages to the maximally mixed state, so the ensemble's Holevo
quantity collapses to I_n = n - S(Gamma_n(rho)) and the 4**n orbit is never
materialized (except in tests).

S(Gamma_n(rho)) comes from one of three paths:

- dense: build the complex 2**n x 2**n output with ``apply_gamma_n_fast``
  and take its ``eigvalsh`` spectrum; every family up to
  ALWAYS_DENSE_MAX_QUBITS.
- stabilizer: the basis product, GHZ and half-chain states are stabilizer
  states, so Gamma_n(rho) = 2**-n sum_{g in S} lambda(supp g) g lies in the
  commutative algebra of their stabilizer group S and ``stabilizer_spectrum``
  writes its spectrum in closed form from the flip law and
  ``pauli_multipliers``, with no density matrix; n <= 24 (the
  flip-string enumeration cap).
- W: each branch depolarizer is covariant under every product unitary
  U^{(x)n} and the W state is an eigenvector of (e^{i theta Z})^{(x)n}, so
  the real symmetric W output commutes with sum_i Z_i.  ``w_spectrum``
  builds its blocks of Hamming weight w = 0..n, of size C(n, w), directly
  and diagonalizes each; n <= 12.

An ``InputFamily`` refuses an n above its kind's cap in FAMILY_MAX_QUBITS
when it is built, so a caller that builds every family first refuses before
computing any spectrum.  The two-qubit Schmidt states
cos(theta)|00> + e^{i phi} sin(theta)|11> live in ``two_qubit``
(``InputAngle``, ``output_eigenvalues``), with closed-form spectra.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (EXACT_ENUMERATION_MAX, ChannelParams, apply_gamma_n_fast, forward,
                      pauli_multipliers)
from .errors import InvalidParameterError
from .hmm_rate import FlipProcess, path_measure
from .linalg import ket_to_dm, shannon_entropy, von_neumann_entropy

FAMILY_KINDS = ("product", "ghz", "w", "max_entangled")
STABILIZER_KINDS = ("product", "ghz", "max_entangled")

# Every family up to this many qubits still takes the dense path.  The
# stabilizer and W spectra agree with eigvalsh to ~1e-15 per eigenvalue, but
# at n = 4 and 6 the stabilizer I_n values move by up to 7.5e-14, which
# changes 51 cells of fig4.csv/fig5.csv in the 12th significant digit, and
# the figure bytes (fig3 to fig5, W included) are pinned by
# perfbench/figure_hashes.json.  Once those hashes are regenerated this
# constant can go and every family take its own spectrum path.
ALWAYS_DENSE_MAX_QUBITS = 8

# The W path diagonalizes one dense block per Hamming weight, the largest
# C(n, n // 2) rows (462 at n = 11, 924 at n = 12): on one core W I_n took
# 0.044 s and 36 MB peak RSS at n = 11 and 0.23 s and 52 MB at n = 12;
# eigvalsh time grows about 5x per qubit.
W_MAX_QUBITS = 12

# the largest n each family's spectrum path reaches
FAMILY_MAX_QUBITS = {
    **dict.fromkeys(STABILIZER_KINDS, EXACT_ENUMERATION_MAX),
    "w": W_MAX_QUBITS,
}

# one Bell pair: row = its Bell-basis label (Phi+, or one of the other three),
# column = whether the pair lies in the support; the entry sums the label's
# characters over the pair's stabilizer elements of that support
_BELL_PAIR_KERNEL = np.array([[1.0, 3.0], [1.0, -1.0]])


@dataclass(frozen=True)
class InputFamily:
    """A named pure input state on n qubits, n at most its kind's cap.

    kind: 'product' (the basis state |0..0>), 'ghz', 'w' or 'max_entangled'
    (maximal entanglement between the first and second half of the chain,
    n even).  Every basis state has the same output spectrum, the flip law,
    so |0..0> stands for them all.
    """

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise InvalidParameterError(
                f"unknown family {self.kind!r}; choose from {sorted(FAMILY_KINDS)}"
            )
        if self.n < 1:
            raise InvalidParameterError(f"n = {self.n} must be >= 1")
        if self.kind == "w" and self.n < 2:
            raise InvalidParameterError("the W state needs n >= 2")
        if self.kind == "max_entangled" and self.n % 2 != 0:
            raise InvalidParameterError("half-chain entanglement needs even n")
        cap = FAMILY_MAX_QUBITS[self.kind]
        if self.n > cap:
            caps = ", ".join(f"{kind} {limit}" for kind, limit in FAMILY_MAX_QUBITS.items())
            raise InvalidParameterError(
                f"family {self.kind!r}: n = {self.n} exceeds the cap {cap} (caps: {caps})"
            )

    def state_vector(self) -> np.ndarray:
        dim = 2**self.n
        psi = np.zeros(dim, dtype=complex)
        if self.kind == "product":
            psi[0] = 1.0
        elif self.kind == "ghz":
            psi[0] = psi[dim - 1] = 1.0 / math.sqrt(2.0)
        elif self.kind == "w":
            amp = 1.0 / math.sqrt(self.n)
            for k in range(self.n):
                psi[1 << k] = amp
        else:  # max_entangled
            half = 2 ** (self.n // 2)
            amp = 1.0 / math.sqrt(half)
            for j in range(half):
                psi[j * half + j] = amp
        return psi


def basis_product(n: int) -> InputFamily:
    return InputFamily(kind="product", n=n)


def ghz(n: int) -> InputFamily:
    return InputFamily(kind="ghz", n=n)


def w_state(n: int) -> InputFamily:
    return InputFamily(kind="w", n=n)


def max_entangled_halves(n: int) -> InputFamily:
    return InputFamily(kind="max_entangled", n=n)


def generate(family: InputFamily) -> np.ndarray:
    """Density matrix of the family's pure state."""
    return ket_to_dm(family.state_vector())


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


def _w_pair_laws(params: ChannelParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The qubit pairs (s, t), s < t, and the flip law G_st of each.

    G_st is ``path_measure`` with qubits s and t given the coherent emission
    (x_i, 0): weight x_i, never a flip.  So G_st(z) = 0 unless z_s = z_t = 0,
    and sum_z G_st(z) = lambda({s, t}).  One ``forward`` pass runs all pairs,
    with the pairs as a batch axis of the per-site emissions.
    """
    process = FlipProcess.from_params(params)
    coherent = np.array([[params.x0, params.x1], [0.0, 0.0]])
    pairs = np.array(list(itertools.combinations(range(n), 2)))
    on_pair = (pairs == np.arange(n)[:, None, None]).any(axis=-1)  # [site, pair]
    emissions = np.where(on_pair[..., None, None], coherent, process.emission.T)
    for fwd in forward(process.memory.transition, process.memory.stationary, emissions):
        pass
    return pairs, fwd.sum(axis=-1)


def w_spectrum(n: int, params: ChannelParams) -> np.ndarray:
    """Eigenvalues of Gamma_n(rho) for the n-qubit W state, unordered, 2**n.

    With e_i the basis index of a 1 on qubit i, Gamma_n maps |e_i><e_j| to
    sum_z c_ij(z) |e_i ^ z><e_j ^ z| over flip strings z, so the output is
    real symmetric.  Each branch depolarizer is covariant under every
    product unitary U^{(x)n}, and the W state is an eigenvector of
    (e^{i theta Z})^{(x)n}, so the output commutes with sum_i Z_i: it splits
    into one block per Hamming weight w = 0..n, of size C(n, w), and each is
    diagonalized on its own.  With P the flip law ``path_measure``:

    - diagonal: (1/n) sum_i P(y ^ e_i);
    - off-diagonal, y ^ y' = e_i ^ e_j with y_i = 1: (1/n) G_ij(y & y'),
      G from ``_w_pair_laws``.  Both y and y' have weight |y & y'| + 1.
    """
    w_state(n)  # refuses an n below 2 or above the W cap
    law = path_measure(FlipProcess.from_params(params), n)
    index = np.arange(2**n)
    bit = 1 << np.arange(n - 1, -1, -1)  # qubit 0 is the most significant bit
    weight = ((index[:, None] & bit) != 0).sum(axis=1)
    diagonal = sum(law[index ^ b] for b in bit) / n
    pairs, laws = _w_pair_laws(params, n)
    pair_bits = bit[pairs]
    k, z = np.nonzero((index & pair_bits.sum(axis=1)[:, None]) == 0)
    y, y_other = z | pair_bits[k, 0], z | pair_bits[k, 1]
    off_diagonal = laws[k, z] / n
    rank = np.empty_like(index)  # each index's row in its weight's block
    spectra = []
    for w in range(n + 1):
        members = np.flatnonzero(weight == w)
        rank[members] = np.arange(members.size)
        on = weight[y] == w
        block = np.diag(diagonal[members])
        block[rank[y[on]], rank[y_other[on]]] = off_diagonal[on]
        block[rank[y_other[on]], rank[y[on]]] = off_diagonal[on]
        spectra.append(np.linalg.eigvalsh(block))
    return np.concatenate(spectra)


def orbit_mutual_information(family: InputFamily, params: ChannelParams) -> MutualInformation:
    """I_n = n - S(Gamma_n(rho)) for the family's Pauli-orbit ensemble.

    Uses covariance + unitality instead of materializing the orbit.  Up to
    ALWAYS_DENSE_MAX_QUBITS the output is built densely and diagonalized:
    that path only keeps the fig3 to fig5 bytes pinned by
    perfbench/figure_hashes.json.  Above it the W state takes ``w_spectrum``
    (n <= 12) and the stabilizer families take ``stabilizer_spectrum``
    (n <= 24).
    """
    n = family.n
    if n <= ALWAYS_DENSE_MAX_QUBITS:
        entropy = von_neumann_entropy(apply_gamma_n_fast(generate(family), params))
    elif family.kind == "w":
        entropy = shannon_entropy(w_spectrum(n, params))
    else:
        entropy = shannon_entropy(stabilizer_spectrum(family, params))
    i_n = n - entropy
    return MutualInformation(family=family, i_n=i_n, per_use=i_n / n)


def default_families(n: int) -> list[InputFamily]:
    """The four families the figure sweeps compare (W only at n >= 2,
    max_entangled only at even n)."""
    families = [basis_product(n), ghz(n)]
    if n >= 2:
        families.append(w_state(n))
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
