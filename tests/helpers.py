"""Shared generators for the test suite (seeded numpy sampling and a
hypothesis strategy), the explicit Pauli-orbit Holevo quantity that the
I_n shortcut is checked against, and the parity-block W spectrum that checks
``w_spectrum`` past the dense cap."""

import itertools
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from qmemchan import (
    ChannelParams,
    FlipProcess,
    InvalidParameterError,
    apply_gamma_n_fast,
    path_measure,
    pauli_conjugate,
    von_neumann_entropy,
)
from qmemchan.ensembles import _w_pair_laws
from qmemchan.linalg import num_qubits


def random_params(rng, mu_lo=-0.95, mu_hi=0.95) -> ChannelParams:
    """Uniform draw over the valid region: x0, x1 in [-1/3, 1], mu in (lo, hi)."""
    mu = rng.uniform(mu_lo, mu_hi)
    x0, x1 = rng.uniform(-1.0 / 3.0, 1.0, size=2)
    return ChannelParams.from_x(mu, x0, x1)


# hypothesis draw over the CP region: mu in [-0.95, 0.95], x0, x1 in [-1/3, 1]
CP_PARAMS = st.builds(ChannelParams.from_x, st.floats(-0.95, 0.95),
                      st.floats(-1.0 / 3.0, 1.0), st.floats(-1.0 / 3.0, 1.0))


def random_ket(rng, dim) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_pure_dm(rng, dim) -> np.ndarray:
    psi = random_ket(rng, dim)
    return np.outer(psi, psi.conj())


def random_mixed_dm(rng, dim) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


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


def w_spectrum_by_parity(n: int, params: ChannelParams) -> np.ndarray:
    """Eigenvalues of the W output from its two parity blocks of size 2**(n-1).

    The output commutes with Z^{(x)n}, so index y sits in the block of its
    parity, at row y >> 1.  The entries are those of ``w_spectrum``: the
    diagonal (1/n) sum_i P(y ^ e_i) and, where y ^ y' = e_i ^ e_j with
    y_i = 1, the off-diagonal (1/n) G_ij(y & y').  Each block costs 8 * 4**(n-1)
    bytes and a dense eigvalsh: about 1.6 s at n = 12.
    """
    law = path_measure(FlipProcess.from_params(params), n)
    index = np.arange(2**n)
    bit = 1 << np.arange(n - 1, -1, -1)  # qubit 0 is the most significant bit
    parity = np.bitwise_xor.reduce((index[:, None] & bit) != 0, axis=1).astype(int)
    blocks = np.zeros((2, 2 ** (n - 1), 2 ** (n - 1)))
    blocks[parity, index >> 1, index >> 1] = sum(law[index ^ b] for b in bit) / n
    pairs, laws = _w_pair_laws(params, n)
    pair_bits = bit[pairs]
    k, z = np.nonzero((index & pair_bits.sum(axis=1)[:, None]) == 0)
    y, y_other = z | pair_bits[k, 0], z | pair_bits[k, 1]
    blocks[parity[y], y >> 1, y_other >> 1] = laws[k, z] / n
    blocks[parity[y], y_other >> 1, y >> 1] = laws[k, z] / n
    return np.concatenate([np.linalg.eigvalsh(block) for block in blocks])
