"""Shared generators for the test suite (seeded numpy sampling), and the
explicit Pauli-orbit Holevo quantity that the I_n shortcut is checked against."""

import itertools
from dataclasses import dataclass

import numpy as np

from qmemchan import (
    ChannelParams,
    InvalidParameterError,
    apply_gamma_n_fast,
    pauli_conjugate,
    von_neumann_entropy,
)
from qmemchan.linalg import num_qubits


def random_params(rng, mu_lo=-0.95, mu_hi=0.95) -> ChannelParams:
    """Uniform draw over the valid region: x0, x1 in [-1/3, 1], mu in (lo, hi)."""
    mu = rng.uniform(mu_lo, mu_hi)
    x0, x1 = rng.uniform(-1.0 / 3.0, 1.0, size=2)
    return ChannelParams.from_x(mu, x0, x1)


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
