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

computed exactly over all length-n strings.  The forward passes pin the
hidden state S_1 to 0 and to 1 as a batch axis; the stationary string law is
their mixture gamma_0 P(.|S_1=0) + gamma_1 P(.|S_1=1), so it needs no pass of
its own.  One enumeration serves every block length: lengths up to
SUBTREE_DEPTH are one pass that yields the brackets as it goes, and longer
strings are enumerated depth first in subtrees of SUBTREE_DEPTH sites, so
memory stays fixed as n grows.  Each level's three entropies are reduced
CHUNK strings at a time in one cache-sized scratch table per run, with no
temporary the size of the level: at n = 20, 22 and 24 a run takes about
0.06, 0.19 and 0.83 s at a 3.4 MiB tracemalloc peak (BENCH_15.json).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, MarkovMemory, _check_exact, forward
from .errors import InvalidParameterError
from .linalg import row_entropies, shannon_entropy

# sites per forward pass of the bracket: its arrays hold at most
# 2 x 2**SUBTREE_DEPTH strings (a 3.4 MiB peak at 16), whatever the block
# length.  Lengths 1..SUBTREE_DEPTH are the first group, one such pass.
SUBTREE_DEPTH = 16
# block lengths past SUBTREE_DEPTH are bracketed in groups of this many, each
# from its own subtrees.  A run that stops inside a group pays for at most
# BRACKET_GROUP - 1 lengths it did not need; a run to n does about
# 1 / (2**BRACKET_GROUP - 1) more work than one group of all lengths would.
# 2 keeps a run to n within 4/3, and an early stop within about 3x, of the
# least work its lengths need.
BRACKET_GROUP = 2
# strings per step of a level's entropy reduction: the (2, 3, CHUNK) float64
# scratch table of laws and their logs (384 KiB at 2**13) stays in cache.
CHUNK = 2**13


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


def _level_entropies(fwd: np.ndarray, gamma: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """-sum p log2 p of the stationary and the two pinned string laws in a
    pinned forward array fwd[S_1, string, hidden].

    The strings are taken CHUNK at a time into ``scratch``: scratch[0] holds
    their laws (the gamma-mixture, then the two pinned) and scratch[1] the
    logs, so no temporary grows with the level.
    """
    entropies = np.zeros(3)
    laws, logs = scratch
    for begin in range(0, fwd.shape[1], CHUNK):
        chunk = fwd[:, begin:begin + CHUNK]
        width = chunk.shape[1]
        np.add(chunk[..., 0], chunk[..., 1], out=laws[1:, :width])
        np.dot(gamma, laws[1:, :width], out=laws[0, :width])
        entropies += row_entropies(laws[:, :width], logs[:, :width])
    return entropies


def _add_level_entropies(process: FlipProcess, start: np.ndarray, depth: int, low: int,
                         top: int, totals: np.ndarray, scratch: np.ndarray):
    """Add to totals[t], low < t <= top, the level entropies of the strings
    that extend one prefix of ``depth`` sites, yielding each t once its level
    is summed over them; ``start`` is the pinned law of the next hidden state
    jointly with that prefix, and ``scratch`` the table _level_entropies
    works in.

    The first pass runs until top - depth is a multiple of SUBTREE_DEPTH and
    yields as it goes.  If it stops short of top it ends at or below low
    (BRACKET_GROUP <= SUBTREE_DEPTH), and each prefix starts its own pass of
    SUBTREE_DEPTH sites from alpha_prefix @ E; the prefixes partition the
    strings, so their entropy terms add up to each level's entropy.
    """
    transition, gamma = process.memory.transition, process.memory.stationary
    sites = (top - depth - 1) % SUBTREE_DEPTH + 1
    emissions = itertools.repeat(process.emission.T, sites)
    for t, fwd in enumerate(forward(transition, start, emissions), start=depth + 1):
        if t > low:
            totals[t] += _level_entropies(fwd, gamma, scratch)
            yield t
    if t < top:
        for prefix in range(fwd.shape[1]):
            for _ in _add_level_entropies(process, fwd[:, prefix, None, :] @ transition, t,
                                          low, top, totals, scratch):
                pass
        yield from range(low + 1, top + 1)


def _bracket(t: int, previous: np.ndarray, current: np.ndarray,
             gamma: np.ndarray) -> EntropyRateBracket:
    """The bracket at length t from the level entropies at t - 1 and t."""
    h, h0, h1 = previous
    h_next, h0_next, h1_next = current
    lower = 0.0 if t == 1 else gamma[0] * (h0_next - h0) + gamma[1] * (h1_next - h1)
    return EntropyRateBracket(lower=float(lower), upper=float(h_next - h), block_length=t)


def _brackets(process: FlipProcess, n: int):
    """Yield the entropy-rate bracket at block lengths 1..n.

    At length t, upper = H(X_t | X_1..X_{t-1}) and lower additionally
    conditions on the hidden state S_1, weighted by its stationary law
    gamma.  At t = 1 the rate is pinned only by 0 <= rate <= H(X_1).  The
    forward passes carry the two pinned starts S_1 = 0, 1 as a batch axis;
    the stationary law is their gamma-mixture.

    Every length goes through ``_add_level_entropies``, group by group, into
    one table of level entropies.  The first group, 1..min(n, SUBTREE_DEPTH),
    is one pass whose brackets follow as it goes; the later groups of
    BRACKET_GROUP lengths, counted down from n, follow once their subtrees
    are done.
    """
    pinned_starts = np.eye(2)[:, None, :]
    gamma = process.memory.stationary
    totals = np.zeros((n + 1, 3))  # totals[0] is the empty string
    scratch = np.empty((2, 3, CHUNK))
    low = 0
    for top in (min(n, SUBTREE_DEPTH), *reversed(range(n, SUBTREE_DEPTH, -BRACKET_GROUP))):
        for t in _add_level_entropies(process, pinned_starts, 0, low, top, totals, scratch):
            yield _bracket(t, totals[t - 1], totals[t], gamma)
        low = top


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

    Grows the block length until the bracket half-width |upper - lower| / 2
    drops to ``tolerance`` or n_max is hit.  Rounding can leave lower a
    few ulps above upper once the bracket has closed; the absolute value
    keeps that from passing for convergence.  A partial bracket is returned
    (flagged ``converged=False``), never an error.  An n_max outside
    1..EXACT_ENUMERATION_MAX raises InvalidParameterError.
    """
    _check_exact(n_max)
    brackets = []
    for bracket in _brackets(FlipProcess.from_params(params), n_max):
        brackets.append(bracket)
        converged = abs(bracket.width) / 2.0 <= tolerance
        if converged:
            break
    return CapacityEstimate(
        capacity=1.0 - bracket.estimate,
        lower=1.0 - bracket.upper,
        upper=1.0 - bracket.lower,
        rate_bracket=bracket,
        n_used=bracket.block_length,
        converged=converged,
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


def capacity_upper_bound(params: ChannelParams, estimate: CapacityEstimate) -> float:
    """Upper bound on the full classical capacity: the upper bracket of
    ``estimate`` (``product_state_capacity`` of the same params) plus the
    memory chain's entropy rate, clamped to the 1-bit-per-qubit ceiling."""
    bound = estimate.upper + markov_entropy_rate(params.memory)
    return float(min(1.0, bound))
