"""Dense complex linear algebra and entropy primitives for n-qubit states.

States are plain complex numpy arrays of shape (2**n, 2**n).  Qubit 0 is the
most significant bit of the basis index, i.e. the leftmost factor in
rho_1 (x) rho_2 (x) ... (x) rho_n.  All entropies are in bits (base-2 logs),
so a maximally mixed qubit has entropy exactly 1.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, InvalidStateError

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

PAULI = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def num_qubits(rho: np.ndarray) -> int:
    """Number of qubits of a square matrix; raises unless the dim is 2**n."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"expected a square matrix, got shape {rho.shape}")
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if dim != 2**n:
        raise InvalidStateError(f"dimension {dim} is not a power of two")
    return n


def check_density_matrix(rho: np.ndarray) -> None:
    """Validate Hermiticity and unit trace.

    Raises
    ------
    InvalidStateError
        If max |rho - rho^dag| > 1e-12 or |tr(rho) - 1| > 1e-12.
    """
    num_qubits(rho)
    herm_defect = np.max(np.abs(rho - rho.conj().T))
    if herm_defect > HERMITIAN_TOL:
        raise InvalidStateError(f"not Hermitian: max |A - A^dag| = {herm_defect:.3e}")
    trace_defect = abs(np.trace(rho) - 1.0)
    if trace_defect > TRACE_TOL:
        raise InvalidStateError(f"trace differs from 1 by {trace_defect:.3e}")


def ket_to_dm(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a (normalized) state vector."""
    psi = np.asarray(psi, dtype=complex).ravel()
    return np.outer(psi, psi.conj())


def basis_ket(n: int, index: int) -> np.ndarray:
    """Computational basis vector |index> on n qubits (qubit 0 = MSB)."""
    psi = np.zeros(2**n, dtype=complex)
    psi[index] = 1.0
    return psi


def maximally_mixed(n: int) -> np.ndarray:
    return np.eye(2**n, dtype=complex) / 2**n


def shannon_entropy(probs: np.ndarray) -> float:
    """-sum p log2 p with 0 log 0 := 0; tolerates slightly negative entries.

    Entries in [-1e-10, 0) are clamped to zero; anything more negative is an
    error (the distribution is not a distribution).
    """
    p = np.asarray(probs, dtype=float).ravel()
    smallest = p.min() if p.size else 0.0
    if smallest < EIGENVALUE_FLOOR:
        raise InvalidStateError(f"probability {smallest:.3e} below the -1e-10 floor")
    p = np.where(p > 0.0, p, 0.0)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable."""
    return shannon_entropy(np.array([p, 1.0 - p]))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -tr(rho log2 rho) in bits.

    The input must be Hermitian with unit trace; eigenvalues in [-1e-10, 0)
    are treated as exact zeros, more negative ones raise InvalidStateError.
    """
    check_density_matrix(rho)
    return shannon_entropy(np.linalg.eigvalsh(rho))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) ||a - b||_1 via the spectrum of the Hermitian difference."""
    if a.shape != b.shape:
        raise InvalidStateError(f"dimension mismatch: {a.shape} vs {b.shape}")
    eigs = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.sum(np.abs(eigs)))


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, left to right."""
    if not ops:
        raise ValueError("tensor() needs at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def pauli_matrix(index: int) -> np.ndarray:
    if index not in (0, 1, 2, 3):
        raise InvalidParameterError(f"Pauli index {index} not in {{0,1,2,3}}")
    return PAULI[index]


def pauli_string(indices) -> np.ndarray:
    """sigma_{i_1} (x) ... (x) sigma_{i_n} as a dense matrix."""
    return tensor(*(pauli_matrix(i) for i in indices))


def pauli_conjugate(rho: np.ndarray, indices) -> np.ndarray:
    """(sigma (x) ... (x) sigma) rho (same string); entropy preserving."""
    n = num_qubits(rho)
    indices = list(indices)
    if len(indices) != n:
        raise InvalidStateError(f"{len(indices)} Pauli indices for {n} qubits")
    u = pauli_string(indices)
    return u @ rho @ u.conj().T


def partial_trace(rho: np.ndarray, traced_qubits) -> np.ndarray:
    """Trace out the given qubits (0-indexed, qubit 0 = MSB).

    The output trace equals the input trace; tracing out everything returns
    a 1x1 matrix holding the trace.
    """
    n = num_qubits(rho)
    traced = sorted(set(int(q) for q in traced_qubits))
    if traced and (traced[0] < 0 or traced[-1] >= n):
        raise InvalidStateError(f"traced qubits {traced} out of range for n={n}")
    dims = [2] * n
    work = rho.reshape(dims + dims)
    removed = 0
    for q in traced:
        axis = q - removed
        work = np.trace(work, axis1=axis, axis2=axis + (n - removed))
        removed += 1
    keep = n - removed
    return work.reshape(2**keep, 2**keep)
