"""Flip-process measure, entropy-rate brackets, and capacity bounds.

Applied to a computational basis state, every branch path either keeps or
flips each qubit, so the channel output is diagonal and its spectrum is the
law of a binary hidden-Markov process: the hidden chain is the active
depolarizing branch, the observation is whether qubit t flipped, emitted
with probability (1 -/+ x_i)/2.

The entropy rate of that process is what caps the product-state capacity
(capacity = 1 - rate).  The rate itself has no closed form in general; we
bracket it between the standard conditional entropies

    H(X_n | X_1..X_{n-1}, S_1)  <=  rate  <=  H(X_n | X_1..X_{n-1})

computed exactly by one forward pass over all length-n strings.  That pass
pins the hidden state S_1 to 0 and to 1 as a batch axis; the stationary
string law is their mixture gamma_0 P(.|S_1=0) + gamma_1 P(.|S_1=1), so it
needs no pass of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import EXACT_ENUMERATION_MAX, ChannelParams, MarkovMemory, _check_exact, forward
from .errors import InvalidParameterError
from .linalg import shannon_entropy


@dataclass(frozen=True)
class FlipProcess:
    """Hidden branch chain + per-branch flip probabilities.

    emission[i, k] is the probability that hidden state i emits symbol k
    (k = 1 meaning the qubit flipped): (1 + x_i)/2, (1 - x_i)/2.
    """

    memory: MarkovMemory
    emission: np.ndarray

    @classmethod
    def from_params(cls, params: ChannelParams) -> "FlipProcess":
        return cls.from_memory(params.memory, params.x0, params.x1)

    @classmethod
    def from_memory(cls, memory: MarkovMemory, x0: float, x1: float) -> "FlipProcess":
        """Flip process driven by an arbitrary ergodic 2x2 chain."""
        for name, x in (("x0", x0), ("x1", x1)):
            if not -1.0 - 1e-12 <= x <= 1.0 + 1e-12:
                raise InvalidParameterError(f"{name} = {x:.6g} outside [-1, 1]")
        emission = np.array(
            [
                [(1.0 + x0) / 2.0, (1.0 - x0) / 2.0],
                [(1.0 + x1) / 2.0, (1.0 - x1) / 2.0],
            ]
        )
        return cls(memory=memory, emission=emission)


def path_measure(process: FlipProcess, n: int) -> np.ndarray:
    """Exact law of the first n flip symbols, indexed MSB-first; sums to 1."""
    _check_exact(n)
    emissions = itertools.repeat(process.emission.T, n)
    for fwd in forward(process.memory.transition, process.memory.stationary, emissions):
        pass
    return fwd.sum(axis=-1)


def block_entropy(process: FlipProcess, n: int) -> float:
    """H of the length-n flip-string law, in bits; equals the output entropy
    of the n-fold channel on any basis product state."""
    return shannon_entropy(path_measure(process, n))


@dataclass(frozen=True)
class EntropyRateBracket:
    lower: float
    upper: float
    block_length: int

    @property
    def estimate(self) -> float:
        return (self.lower + self.upper) / 2.0

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _brackets(process: FlipProcess, n: int):
    """Yield the entropy-rate bracket at block lengths 1..n.

    At length t, upper = H(X_t | X_1..X_{t-1}) and lower additionally
    conditions on the hidden state S_1, weighted by its stationary law
    gamma.  At t = 1 the rate is pinned only by 0 <= rate <= H(X_1).  One
    forward pass carries the two pinned starts S_1 = 0, 1 as a batch axis;
    the stationary law is their gamma-mixture.  Each step's laws are dropped
    once their entropies are taken.
    """
    gamma = process.memory.stationary
    emissions = itertools.repeat(process.emission.T, n)
    h = 0.0  # H of the empty string
    for t, fwd in enumerate(forward(process.memory.transition, np.eye(2)[:, None, :], emissions),
                            start=1):
        pinned = fwd.sum(axis=-1)
        h_next = shannon_entropy(gamma @ pinned)
        h0_next, h1_next = shannon_entropy(pinned[0]), shannon_entropy(pinned[1])
        del pinned  # not kept alive while forward builds the next, larger step
        lower = 0.0 if t == 1 else gamma[0] * (h0_next - h0) + gamma[1] * (h1_next - h1)
        yield EntropyRateBracket(lower=float(lower), upper=float(h_next - h), block_length=t)
        h, h0, h1 = h_next, h0_next, h1_next


def entropy_rate_bracket(process: FlipProcess, n: int) -> EntropyRateBracket:
    """Conditional-entropy bracket at block length n (n >= 2).

    upper = H(X_n | X_1..X_{n-1}); lower additionally conditions on the
    hidden state at time 1.  Both converge monotonically to the rate.
    """
    if n < 2:
        raise InvalidParameterError(f"bracket needs n >= 2, got n = {n}")
    _check_exact(n)
    for bracket in _brackets(process, n):
        pass
    return bracket


@dataclass(frozen=True)
class CapacityEstimate:
    """Product-state capacity with its bracket: capacity in [lower, upper].

    ``brackets[n - 1]`` is the entropy-rate bracket at block length n, for
    n = 1..n_used; the last of them is ``rate_bracket``.
    """

    capacity: float
    lower: float
    upper: float
    rate_bracket: EntropyRateBracket
    n_used: int
    converged: bool
    brackets: tuple[EntropyRateBracket, ...]


def product_state_capacity(
    params: ChannelParams,
    n_max: int = 20,
    tolerance: float = 1e-4,
) -> CapacityEstimate:
    """1 - (flip-process entropy rate), bracketed to the requested half-width.

    Grows the block length until the bracket half-width drops below
    ``tolerance`` or n_max (clamped to the exact-enumeration cap) is hit;
    a partial bracket is returned (flagged ``converged=False``), never an
    error.
    """
    if n_max < 1:
        raise InvalidParameterError(f"n_max = {n_max} must be >= 1")
    n_max = min(n_max, EXACT_ENUMERATION_MAX)
    brackets = []
    for bracket in _brackets(FlipProcess.from_params(params), n_max):
        brackets.append(bracket)
        if bracket.width / 2.0 <= tolerance:
            break
    return CapacityEstimate(
        capacity=1.0 - bracket.estimate,
        lower=1.0 - bracket.upper,
        upper=1.0 - bracket.lower,
        rate_bracket=bracket,
        n_used=bracket.block_length,
        converged=bracket.width / 2.0 <= tolerance,
        brackets=tuple(brackets),
    )


def markov_entropy_rate(memory: MarkovMemory) -> float:
    """Entropy rate of the memory chain itself: sum_i gamma_i H(row i).

    For the symmetric chain this is the binary entropy of (1+mu)/2.
    """
    rate = 0.0
    for i in range(2):
        rate += memory.stationary[i] * shannon_entropy(memory.transition[i])
    return float(rate)


def capacity_upper_bound(
    params: ChannelParams,
    n_max: int = 20,
    tolerance: float = 1e-4,
    estimate: CapacityEstimate | None = None,
) -> float:
    """Upper bound on the full classical capacity: the product-state
    capacity's upper bracket plus the memory chain's entropy rate, clamped
    to the 1-bit-per-qubit ceiling."""
    if estimate is None:
        estimate = product_state_capacity(params, n_max=n_max, tolerance=tolerance)
    bound = estimate.upper + markov_entropy_rate(params.memory)
    return float(min(1.0, bound))
