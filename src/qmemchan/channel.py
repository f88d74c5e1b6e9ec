"""The Markov-modulated depolarizing memory channel.

A two-state ergodic Markov chain selects, per qubit, which of two
depolarizing branches D_x(rho) = x rho + (1-x) I/2 acts.  The n-qubit
channel is the path mixture

    Gamma_n(rho) = sum over branch paths i of
                   w(i) * (D_{x_{i_1}} on qubit 0) ... (D_{x_{i_n}} on qubit n-1) (rho)

with w(i) = first(i_1) p(i_1,i_2) ... p(i_{n-1},i_n).  By default the chain
starts in its stationary distribution, in which case first = stationary.
An explicit initial memory omega gives first = omega @ E (the chain steps
once before the first branch fires), so a memoryless chain forgets the
initial memory immediately.

The memory register is always traced out; only the qubit output is returned.

Every classical quantity of the channel is a product over the memory chain,
and ``forward`` is its one recursion: the path weights (identity emission),
the Pauli multipliers lambda(S) = pi^T D_1 E D_2 ... E D_n 1 (one symbol,
weight x_i on the support), the flip-string law behind the product-state
capacity and the W-state pair laws are thin callers of it.  Only
``apply_gamma_n_fast`` keeps its own step, because its accumulators are
operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, InvalidStateError
from .linalg import num_qubits, trace_distance, von_neumann_entropy

X_MIN = -1.0 / 3.0
X_MAX = 1.0
X_TOL = 1e-12
# apply_gamma_n(_fast) hold 2**n x 2**n complex operators, 16 * 4**n bytes each
DENSE_MAX_QUBITS = 10
# forward enumerates all 2**n symbol strings; (2**24, 2) float64 is 256 MB
EXACT_ENUMERATION_MAX = 24


@dataclass(frozen=True)
class MarkovMemory:
    """Two-state ergodic chain: row-stochastic transition matrix + stationary law."""

    transition: np.ndarray
    stationary: np.ndarray

    @classmethod
    def from_transition(cls, transition) -> "MarkovMemory":
        """Build from a 2x2 row-stochastic matrix.

        The eigenvalues of E are 1 and e00 + e11 - 1, and the stationary law
        is (e10, e01) / (e01 + e10).
        """
        e = np.asarray(transition, dtype=float)
        if e.shape != (2, 2):
            raise InvalidParameterError(f"transition matrix shape {e.shape}, want (2, 2)")
        if not np.all(np.isfinite(e)):
            raise InvalidParameterError("transition matrix has non-finite entries")
        if np.any(e < -1e-14):
            raise InvalidParameterError("transition matrix has negative entries")
        if np.max(np.abs(e.sum(axis=1) - 1.0)) > 1e-14:
            raise InvalidParameterError("transition matrix rows do not sum to 1")
        second = abs(e[0, 0] + e[1, 1] - 1.0)
        if second >= 1.0 - 1e-13:
            raise InvalidParameterError(
                f"chain is not ergodic: second eigenvalue modulus {second:.6f}"
            )
        # entries in [-1e-14, 0) pass the checks above; keep the law non-negative
        flips = np.maximum([e[1, 0], e[0, 1]], 0.0)
        return cls(transition=e, stationary=flips / flips.sum())

    @classmethod
    def symmetric(cls, mu: float) -> "MarkovMemory":
        """The symmetric chain with stay probability (1+mu)/2; stationary (1/2, 1/2)."""
        if not -1.0 < mu < 1.0:
            raise InvalidParameterError(f"mu = {mu} outside the open interval (-1, 1)")
        stay = (1.0 + mu) / 2.0
        flip = (1.0 - mu) / 2.0
        e = np.array([[stay, flip], [flip, stay]])
        return cls(transition=e, stationary=np.array([0.5, 0.5]))

    @property
    def second_eigenvalue(self) -> float:
        """The subdominant eigenvalue of E (mu for the symmetric chain)."""
        return float(self.transition[0, 0] + self.transition[1, 1] - 1.0)


@dataclass(frozen=True)
class ChannelParams:
    """Channel identity (mu, a, d): memory mu, a = x0 + x1, d = x0 - x1.

    x0 and x1 are the branch retention coefficients; complete positivity
    requires both in [-1/3, 1].  ``allow_non_cp=True`` relaxes that to
    [-1, 1] (positive but not completely positive branches), which some
    figure reproductions need; outputs may then fail positivity on
    entangled inputs and downstream entropies raise InvalidStateError.
    """

    mu: float
    a: float
    d: float
    allow_non_cp: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not -1.0 < self.mu < 1.0:
            raise InvalidParameterError(f"mu = {self.mu} outside the open interval (-1, 1)")
        low = -1.0 if self.allow_non_cp else X_MIN
        for name, x in (("x0", self.x0), ("x1", self.x1)):
            if not low - X_TOL <= x <= X_MAX + X_TOL:
                raise InvalidParameterError(
                    f"{name} = {x:.6g} outside [{low:.6g}, 1] "
                    f"(a = {self.a:.6g}, d = {self.d:.6g})"
                )

    @classmethod
    def from_x(cls, mu: float, x0: float, x1: float, allow_non_cp: bool = False) -> "ChannelParams":
        return cls(mu=mu, a=x0 + x1, d=x0 - x1, allow_non_cp=allow_non_cp)

    @property
    def x0(self) -> float:
        return (self.a + self.d) / 2.0

    @property
    def x1(self) -> float:
        return (self.a - self.d) / 2.0

    @property
    def memory(self) -> MarkovMemory:
        return MarkovMemory.symmetric(self.mu)

    def branch_x(self, state: int) -> float:
        return self.x0 if state == 0 else self.x1


def depolarize(rho: np.ndarray, x: float, allow_non_cp: bool = False) -> np.ndarray:
    """Single-qubit depolarizing branch x rho + (1-x) I/2."""
    low = -1.0 if allow_non_cp else X_MIN
    if not low - X_TOL <= x <= X_MAX + X_TOL:
        raise InvalidParameterError(f"x = {x:.6g} outside [{low:.6g}, 1]")
    if rho.shape != (2, 2):
        raise InvalidStateError(f"expected a 2x2 matrix, got {rho.shape}")
    return x * rho + (1.0 - x) * np.trace(rho) * np.eye(2) / 2.0


def depolarize_qubit(op: np.ndarray, qubit: int, x: float) -> np.ndarray:
    """Apply the depolarizing superoperator on one qubit of an n-qubit operator.

    Linear in ``op`` (no state validation), so it can run on path accumulators
    and coherences like |00><11|.
    """
    n = num_qubits(op)
    if not 0 <= qubit < n:
        raise InvalidStateError(f"qubit {qubit} out of range for n={n}")
    left = 2**qubit
    right = 2 ** (n - qubit - 1)
    work = op.reshape(left, 2, right, left, 2, right)
    reduced = np.einsum("asrbsq->arbq", work)
    traced = (1.0 - x) * (0.5 * reduced)
    out = x * work
    out[:, 0, :, :, 0, :] += traced
    out[:, 1, :, :, 1, :] += traced
    return out.reshape(op.shape)


def _check_exact(n: int) -> None:
    if n < 1:
        raise InvalidParameterError(f"n = {n} must be >= 1")
    if n > EXACT_ENUMERATION_MAX:
        raise InvalidParameterError(
            f"n = {n} exceeds the exact-enumeration cap {EXACT_ENUMERATION_MAX}"
        )


def forward(transition: np.ndarray, start: np.ndarray, emissions):
    """Forward recursion over the memory chain, one yield per site.

    ``start`` is the law of the hidden state at site 1 and ``emissions[t][...,
    k, i]`` weighs symbol k from hidden state i at site t + 1; batch axes
    broadcast.  After site t it yields fwd[..., s, i] = P(symbols s at sites
    1..t, hidden_t = i) over all K**t strings s, indexed with site 1 as the
    most significant digit.  Nothing is yielded for zero sites.
    """
    fwd = None
    for emission in emissions:
        if fwd is None:
            fwd = start * emission
        else:
            batch = np.broadcast_shapes(fwd.shape[:-2], emission.shape[:-2])
            # one expression: no temporary stays alive while the generator waits
            fwd = ((fwd @ transition)[..., :, None, :] * emission[..., None, :, :]).reshape(
                *batch, -1, 2
            )
        yield fwd


def path_weights(memory: MarkovMemory, n: int, initial_memory=None) -> np.ndarray:
    """Probabilities of all 2**n branch paths, indexed with i_1 as the MSB.

    n is capped at EXACT_ENUMERATION_MAX, checked before any allocation."""
    _check_exact(n)
    first = _first_branch_distribution(memory, initial_memory)
    for fwd in forward(memory.transition, first, np.broadcast_to(np.eye(2), (n, 2, 2))):
        pass
    return fwd.sum(axis=-1)


def _first_branch_distribution(memory: MarkovMemory, initial_memory) -> np.ndarray:
    if initial_memory is None:
        return memory.stationary.copy()
    omega = np.asarray(initial_memory, dtype=float)
    if omega.shape != (2,) or np.any(omega < -1e-14) or abs(omega.sum() - 1.0) > 1e-12:
        raise InvalidParameterError(f"initial memory {omega} is not a probability pair")
    return omega @ memory.transition


def pauli_multipliers(params: ChannelParams, supports) -> np.ndarray:
    """lambda(S) = pi^T D_1 E D_2 E ... E D_n 1 for each row S of ``supports``.

    Gamma_n is Pauli-diagonal: it maps a Pauli string whose non-identity
    factors sit on S to lambda(S) times itself.  D_t = diag(x0, x1) on S
    and I off it, so lambda(S) is the expected product of the active
    branch's x over the support: ``forward`` with one symbol, emitted with
    weight x_i on the support and 1 off it.  ``supports`` is a boolean
    array (..., n); the result has its leading shape.
    """
    supports = np.asarray(supports, dtype=bool)
    if supports.shape[-1] == 0:
        return np.ones(supports.shape[:-1])
    memory = params.memory
    x = np.array([params.x0, params.x1])
    emissions = np.where(np.moveaxis(supports, -1, 0)[..., None, None], x, 1.0)
    for fwd in forward(memory.transition, memory.stationary, emissions):
        pass
    return fwd[..., 0, :].sum(axis=-1)


def _check_size(n: int) -> None:
    if n > DENSE_MAX_QUBITS:
        raise InvalidParameterError(f"n = {n} exceeds the dense-channel cap {DENSE_MAX_QUBITS}")


def apply_branch(rho: np.ndarray, params: ChannelParams, path) -> np.ndarray:
    """Apply one branch product: qubit k gets the depolarizing map of path[k]."""
    n = num_qubits(rho)
    path = list(path)
    if len(path) != n:
        raise InvalidStateError(f"path length {len(path)} != qubit count {n}")
    out = rho.astype(complex)
    for qubit, state in enumerate(path):
        if state not in (0, 1):
            raise InvalidParameterError(f"path entry {state!r} is not a memory state")
        out = depolarize_qubit(out, qubit, params.branch_x(state))
    return out


def apply_gamma_n(
    rho: np.ndarray,
    params: ChannelParams,
    initial_memory=None,
    memory: MarkovMemory | None = None,
) -> np.ndarray:
    """n-fold channel by exact enumeration of all 2**n branch paths.

    ``memory`` swaps in an arbitrary ergodic 2x2 chain; by default the
    symmetric chain of ``params.mu`` drives the branches.
    """
    n = num_qubits(rho)
    _check_size(n)
    weights = path_weights(memory or params.memory, n, initial_memory)
    out = np.zeros_like(rho, dtype=complex)
    for path_index, weight in enumerate(weights):
        path = [(path_index >> (n - 1 - t)) & 1 for t in range(n)]
        out += weight * apply_branch(rho, params, path)
    return out


def apply_gamma_n_fast(
    rho: np.ndarray,
    params: ChannelParams,
    initial_memory=None,
    memory: MarkovMemory | None = None,
) -> np.ndarray:
    """Same map as apply_gamma_n via a dynamic program over the memory state.

    Keeps one operator accumulator per current memory state and folds qubits
    left to right; O(n) superoperator applications instead of O(n 2**n).
    """
    n = num_qubits(rho)
    _check_size(n)
    memory = memory or params.memory
    first = _first_branch_distribution(memory, initial_memory)
    p = memory.transition
    acc = [
        depolarize_qubit(first[0] * rho.astype(complex), 0, params.x0),
        depolarize_qubit(first[1] * rho.astype(complex), 0, params.x1),
    ]
    for qubit in range(1, n):
        mixed0 = p[0, 0] * acc[0] + p[1, 0] * acc[1]
        mixed1 = p[0, 1] * acc[0] + p[1, 1] * acc[1]
        acc = [
            depolarize_qubit(mixed0, qubit, params.x0),
            depolarize_qubit(mixed1, qubit, params.x1),
        ]
    return acc[0] + acc[1]


def forgetfulness_gap(params: ChannelParams, n: int, rho: np.ndarray) -> float:
    """Trace distance between outputs for the two extreme initial memories.

    ``rho`` may have k < n qubits; it then stands for its trivial extension
    I/2**(n-k) (x) rho, whose maximally mixed qubits go through the channel
    first.  Every branch leaves those qubits unchanged, so they only advance
    the memory chain n - k steps: from initial memory omega the k-qubit
    state sees initial memory omega E**(n-k).  The gap is therefore the trace
    distance between the k-qubit outputs from the two rows of E**(n-k), and
    no operator larger than ``rho`` is built.  For a fixed single-qubit rho
    it decays like |mu|**n.
    """
    k = num_qubits(rho)
    if k > n:
        raise InvalidParameterError(f"state has {k} qubits but n = {n}")
    rows = np.linalg.matrix_power(params.memory.transition, n - k)
    out_zero, out_one = (apply_gamma_n_fast(rho, params, initial_memory=row) for row in rows)
    return trace_distance(out_zero, out_one)


def branch_averaged_entropy(rho: np.ndarray, params: ChannelParams) -> float:
    """Path-weighted average of the branch-output entropies.

    Lower-bounds the output entropy S(Gamma_n(rho)), which in turn is at
    most this value plus the entropy of the path distribution.  Basis
    product states minimize it over all inputs.
    """
    n = num_qubits(rho)
    weights = path_weights(params.memory, n)
    total = 0.0
    for path_index, weight in enumerate(weights):
        path = [(path_index >> (n - 1 - t)) & 1 for t in range(n)]
        total += weight * von_neumann_entropy(apply_branch(rho, params, path))
    return total
