import numpy as np
import pytest

from helpers import random_ket, random_mixed_dm, random_pure_dm
from qmemchan import (
    InvalidStateError,
    basis_ket,
    binary_entropy,
    ket_to_dm,
    maximally_mixed,
    pauli_conjugate,
    pauli_matrix,
    shannon_entropy,
    tensor,
    trace_distance,
    von_neumann_entropy,
)
from qmemchan.errors import InvalidParameterError
from qmemchan.linalg import row_entropies

def test_entropy_maximally_mixed():
    assert von_neumann_entropy(maximally_mixed(1)) == pytest.approx(1.0, abs=1e-13)
    assert von_neumann_entropy(maximally_mixed(3)) == pytest.approx(3.0, abs=1e-12)


def test_entropy_pure_states_vanish():
    rng = np.random.default_rng(1)
    for dim in (2, 4, 8):
        rho = random_pure_dm(rng, dim)
        assert abs(von_neumann_entropy(rho)) < 1e-10


def test_entropy_of_two_use_diagonal():
    # hand-enumerated flip probabilities for mu=0.5, x0=0.8, x1=0.2:
    # sum over the four branch pairs of gamma * p * keep/flip products
    lams = np.array([0.57375, 0.17625, 0.17625, 0.07375])
    assert lams.sum() == pytest.approx(1.0, abs=1e-15)
    rho = np.diag(lams).astype(complex)
    expected = -np.sum(lams * np.log2(lams))
    assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)


def test_entropy_rejects_bad_states():
    bad_herm = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(InvalidStateError):
        von_neumann_entropy(bad_herm)
    with pytest.raises(InvalidStateError):
        von_neumann_entropy(np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(InvalidStateError):
        von_neumann_entropy(np.diag([1.1, -0.1]).astype(complex))
    with pytest.raises(InvalidStateError):
        von_neumann_entropy(np.eye(3, dtype=complex) / 3.0)  # not 2**n


def test_shannon_entropy_rejects_nan():
    # nan compares false with the floor, so the check must be written to fail on it
    with pytest.raises(InvalidStateError, match="nan"):
        shannon_entropy([0.5, np.nan, 0.5])


def _laws_and_logs(rows):
    laws = np.array(rows, dtype=float)
    return laws, np.empty_like(laws)


def test_row_entropies_match_shannon_entropy_row_by_row():
    rng = np.random.default_rng(5)
    tiny = np.nextafter(0.0, 1.0)
    rows = [
        [0.5, 0.0, 0.25, 0.0, 0.25],  # exact zeros
        [0.5, -1e-10, 0.5, -3e-11, 0.0],  # slightly negative entries count as zeros
        [0.5, 0.5, tiny, 1e-310, 0.0],  # subnormal entries
        [1.0, 0.0, 0.0, 0.0, 0.0],  # a point mass
        rng.dirichlet(np.ones(5)),
    ]
    expected = [shannon_entropy(row) for row in rows]
    laws, logs = _laws_and_logs(rows)
    got = row_entropies(laws, logs)
    assert got.shape == (len(rows),)
    assert np.all(np.abs(got - expected) <= 1e-12)
    # the clamped entries are zeros in place, and nothing else moved
    assert np.array_equal(laws, np.maximum(np.array(rows), 0.0))


def test_row_entropies_match_shannon_entropy_on_strided_rows():
    # a table narrowed to its first columns, as the bracket's chunks use it
    rng = np.random.default_rng(6)
    table = np.empty((2, 3, 64))
    table[0] = rng.dirichlet(np.ones(64), size=3)
    table[0, :, ::7] = 0.0
    laws, logs = table[:, :, :37]
    expected = [shannon_entropy(row) for row in laws]
    assert np.all(np.abs(row_entropies(laws, logs) - expected) <= 1e-12)


def test_row_entropies_reject_nan():
    # nan compares false with the floor, so the check must be written to fail on it
    laws, logs = _laws_and_logs([[0.5, 0.5, 0.0], [0.25, np.nan, 0.75]])
    with pytest.raises(InvalidStateError, match="nan"):
        row_entropies(laws, logs)


def test_row_entropies_reject_entries_below_the_floor():
    laws, logs = _laws_and_logs([[0.5, 0.5, 0.0], [0.5, -1e-9, 0.5]])
    with pytest.raises(InvalidStateError, match="below the -1e-10 floor"):
        row_entropies(laws, logs)


def test_binary_entropy_rejects_nan():
    with pytest.raises(InvalidStateError, match="nan"):
        binary_entropy(np.nan)


def test_von_neumann_entropy_rejects_nan():
    with pytest.raises(InvalidStateError, match="nan"):
        von_neumann_entropy(np.full((2, 2), np.nan, dtype=complex))


def test_entropy_unitary_invariant_under_pauli_strings():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho = random_mixed_dm(rng, 8)
        indices = rng.integers(0, 4, size=3)
        delta = von_neumann_entropy(pauli_conjugate(rho, indices)) - von_neumann_entropy(rho)
        assert abs(delta) < 1e-10


def test_entropy_concave():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho, sigma = random_mixed_dm(rng, 4), random_mixed_dm(rng, 4)
        p = rng.uniform()
        mix = p * rho + (1 - p) * sigma
        lhs = von_neumann_entropy(mix)
        rhs = p * von_neumann_entropy(rho) + (1 - p) * von_neumann_entropy(sigma)
        assert lhs >= rhs - 1e-10


def test_ensemble_entropy_bound():
    rng = np.random.default_rng(4)
    for _ in range(20):
        states = [random_mixed_dm(rng, 4) for _ in range(3)]
        probs = rng.dirichlet(np.ones(3))
        avg = sum(p * s for p, s in zip(probs, states))
        mean_entropy = sum(p * von_neumann_entropy(s) for p, s in zip(probs, states))
        total = von_neumann_entropy(avg)
        assert mean_entropy - 1e-10 <= total <= mean_entropy + shannon_entropy(probs) + 1e-10


def test_trace_distance_basics():
    rng = np.random.default_rng(5)
    rho = random_mixed_dm(rng, 4)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    zero, one = ket_to_dm(basis_ket(1, 0)), ket_to_dm(basis_ket(1, 1))
    assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-14)
    assert trace_distance(zero, maximally_mixed(1)) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(InvalidStateError):
        trace_distance(zero, maximally_mixed(2))


def test_trace_distance_triangle_inequality():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a, b, c = (random_mixed_dm(rng, 4) for _ in range(3))
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


def test_pauli_conjugate():
    rng = np.random.default_rng(7)
    rho = random_mixed_dm(rng, 4)
    assert np.allclose(pauli_conjugate(rho, [0, 0]), rho)
    flipped = pauli_conjugate(ket_to_dm(basis_ket(1, 0)), [1])
    assert np.allclose(flipped, ket_to_dm(basis_ket(1, 1)))
    with pytest.raises(InvalidStateError):
        pauli_conjugate(rho, [1])
    with pytest.raises(InvalidParameterError):
        pauli_matrix(4)


def test_pauli_orbit_averages_to_identity():
    rng = np.random.default_rng(8)
    for n in (1, 2):
        rho = random_pure_dm(rng, 2**n)
        orbit = np.zeros_like(rho)
        for w in range(4**n):
            indices = [(w >> (2 * k)) & 3 for k in range(n)]
            orbit += pauli_conjugate(rho, indices)
        assert np.max(np.abs(orbit / 4**n - maximally_mixed(n))) < 1e-12


def test_tensor_matches_kron():
    assert np.allclose(tensor(maximally_mixed(1), maximally_mixed(1)), maximally_mixed(2))
    rng = np.random.default_rng(9)
    rho, sigma = random_mixed_dm(rng, 2), random_mixed_dm(rng, 2)
    assert np.array_equal(tensor(rho, sigma), np.kron(rho, sigma))


def test_binary_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-14)


def test_random_kets_are_normalized():
    rng = np.random.default_rng(10)
    psi = random_ket(rng, 8)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-13)
