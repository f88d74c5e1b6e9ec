import itertools

import numpy as np
import pytest
from hypothesis import given

from helpers import CP_PARAMS, random_mixed_dm, random_params, random_pure_dm
from qmemchan import (
    ChannelParams,
    InvalidParameterError,
    InvalidStateError,
    MarkovMemory,
    apply_branch,
    apply_gamma_n,
    apply_gamma_n_fast,
    basis_ket,
    depolarize_qubit,
    forgetfulness_gap,
    ket_to_dm,
    maximally_mixed,
    lambda_pair,
    path_weights,
    pauli_conjugate,
    pauli_multipliers,
    pauli_string,
    trace_distance,
)
from qmemchan.channel import forward


# ---------------------------------------------------------------- parameters


def test_params_derived_xs():
    p = ChannelParams(mu=2 / 3, a=1 / 3, d=-1.0)
    assert p.x0 == pytest.approx(-1 / 3, abs=1e-15)
    assert p.x1 == pytest.approx(2 / 3, abs=1e-15)


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        ChannelParams(mu=1.0, a=1.0, d=0.0)
    with pytest.raises(InvalidParameterError):
        ChannelParams(mu=0.0, a=2.5, d=0.0)  # x0 = 1.25
    with pytest.raises(InvalidParameterError):
        ChannelParams(mu=0.0, a=0.0, d=1.0)  # x1 = -0.5
    # boundary values survive float round-off
    ChannelParams(mu=0.9, a=2 / 3, d=-4 / 3)  # x0 = -1/3, x1 = 1
    # the non-CP override admits x in [-1, 1] but nothing beyond
    ChannelParams(mu=0.0, a=0.0, d=1.0, allow_non_cp=True)
    with pytest.raises(InvalidParameterError):
        ChannelParams(mu=0.0, a=0.0, d=2.5, allow_non_cp=True)
    # non-finite input is rejected, not carried into the results
    for mu, a, d in ((0.5, float("nan"), 0.1), (0.5, 0.5, float("inf")), (float("nan"), 1.0, 0.0)):
        with pytest.raises(InvalidParameterError):
            ChannelParams(mu=mu, a=a, d=d)
        with pytest.raises(InvalidParameterError):
            ChannelParams(mu=mu, a=a, d=d, allow_non_cp=True)


def test_markov_memory_symmetric():
    mem = MarkovMemory.symmetric(0.4)
    assert np.allclose(mem.transition.sum(axis=1), 1.0)
    assert np.allclose(mem.stationary, [0.5, 0.5])
    assert np.max(np.abs(mem.stationary @ mem.transition - mem.stationary)) < 1e-15
    assert mem.second_eigenvalue == pytest.approx(0.4, abs=1e-14)


def test_markov_memory_general_chain():
    mem = MarkovMemory.from_transition([[0.9, 0.1], [0.3, 0.7]])
    assert np.max(np.abs(mem.stationary @ mem.transition - mem.stationary)) < 1e-13
    assert mem.stationary[0] == pytest.approx(0.75, abs=1e-12)
    assert mem.second_eigenvalue == pytest.approx(0.6, abs=1e-14)
    for frozen_or_periodic in ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]):
        with pytest.raises(InvalidParameterError, match="not ergodic"):
            MarkovMemory.from_transition(frozen_or_periodic)
    with pytest.raises(InvalidParameterError):
        MarkovMemory.from_transition([[0.9, 0.2], [0.3, 0.7]])  # rows don't sum to 1
    for bad in ([[float("nan"), 0.1], [0.3, 0.7]], [[0.9, 0.1], [float("inf"), 0.7]]):
        with pytest.raises(InvalidParameterError):
            MarkovMemory.from_transition(bad)


def test_path_weights_distribution():
    rng = np.random.default_rng(11)
    for _ in range(5):
        params = random_params(rng)
        for n in (1, 2, 4, 6):
            w = path_weights(params.memory, n)
            assert w.shape == (2**n,)
            assert np.all(w >= 0)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_path_weights_explicit_products():
    mem = MarkovMemory.symmetric(0.5)
    w = path_weights(mem, 3)
    p = mem.transition
    for path in range(8):
        bits = [(path >> (2 - t)) & 1 for t in range(3)]
        expected = 0.5 * p[bits[0], bits[1]] * p[bits[1], bits[2]]
        assert w[path] == pytest.approx(expected, abs=1e-15)


def test_path_weights_check_the_size_before_allocating():
    mem = MarkovMemory.symmetric(0.5)
    with pytest.raises(InvalidParameterError, match="cap 24"):
        path_weights(mem, 25)
    with pytest.raises(InvalidParameterError):
        path_weights(mem, 0)


def _brute_force_forward(transition, start, emissions):
    """fwd[..., s, i] by summing every hidden path; strings MSB-first.

    A batched ``start`` has shape (..., 1, 2): its size-1 axis meets the
    symbol axis."""
    start = start.reshape(start.shape[:-2] + (2,))
    n = len(emissions)
    batch = np.broadcast_shapes(start.shape[:-1], *(e.shape[:-2] for e in emissions))
    symbols = emissions[0].shape[-2]
    out = np.zeros(batch + (symbols**n, 2))
    for hidden in itertools.product(range(2), repeat=n):
        for string in itertools.product(range(symbols), repeat=n):
            weight = start[..., hidden[0]] * emissions[0][..., string[0], hidden[0]]
            for t in range(1, n):
                weight = weight * transition[hidden[t - 1], hidden[t]]
                weight = weight * emissions[t][..., string[t], hidden[t]]
            out[..., np.ravel_multi_index(string, (symbols,) * n), hidden[-1]] += weight
    return out


@pytest.mark.parametrize("symbols", [1, 2])
def test_forward_matches_a_sum_over_hidden_paths(symbols):
    # asymmetric chain and starts that are not its stationary law, so a
    # transposed transition or a swapped start would show
    mem = MarkovMemory.from_transition([[0.9, 0.1], [0.3, 0.7]])
    rng = np.random.default_rng(31)
    # (start, batch shape of the emissions after the first site): one start;
    # the two pinned starts, alone (as the entropy-rate bracket runs them) and
    # crossed with a (3, 1) emission batch; three starts meeting three emissions
    cases = (
        (np.array([0.2, 0.8]), (3,)),
        (np.eye(2)[:, None, :], ()),
        (np.eye(2)[:, None, :], (3, 1)),
        (rng.dirichlet([1.0, 1.0], size=3)[:, None, :], (3,)),
    )
    for start, batch in cases:
        for n in range(1, 6):
            # the first site has no batch axis to broadcast
            emissions = [rng.uniform(0.0, 1.0, size=(symbols, 2))]
            emissions += [rng.uniform(0.0, 1.0, size=batch + (symbols, 2)) for _ in range(n - 1)]
            yields = list(forward(mem.transition, start, emissions))
            assert len(yields) == n
            for t, fwd in enumerate(yields, start=1):
                expected = _brute_force_forward(mem.transition, start, emissions[:t])
                assert fwd.shape == expected.shape
                assert np.max(np.abs(fwd - expected)) <= 1e-15
        assert list(forward(mem.transition, start, [])) == []


# ------------------------------------------------------------------ branches


def test_apply_branch_identity_and_coherence():
    params = ChannelParams.from_x(0.3, 1.0, 0.4)
    rng = np.random.default_rng(12)
    rho = random_mixed_dm(rng, 4)
    assert np.max(np.abs(apply_branch(rho, params, [0, 0]) - rho)) < 1e-14

    params = ChannelParams.from_x(0.3, 0.7, 0.2)
    coherence = np.zeros((4, 4), dtype=complex)
    coherence[0, 3] = 1.0  # |00><11|
    out = apply_branch(coherence, params, [0, 1])
    assert np.max(np.abs(out - params.x0 * params.x1 * coherence)) < 1e-14

    for path in ([0, 0], [0, 1], [1, 0], [1, 1]):
        out = apply_branch(maximally_mixed(2), params, path)
        assert np.max(np.abs(out - maximally_mixed(2))) < 1e-14

    with pytest.raises(InvalidStateError):
        apply_branch(rho, params, [0])


# -------------------------------------------------------------- full channel


def test_gamma_identity_channel():
    params = ChannelParams.from_x(0.8, 1.0, 1.0)
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        rho = random_pure_dm(rng, 2**n)
        assert np.max(np.abs(apply_gamma_n(rho, params) - rho)) < 1e-13


def test_gamma_single_use_formula():
    rng = np.random.default_rng(14)
    for _ in range(10):
        params = random_params(rng)
        rho = random_mixed_dm(rng, 2)
        mean_x = params.a / 2.0
        expected = mean_x * rho + (1.0 - mean_x) * maximally_mixed(1)
        assert np.max(np.abs(apply_gamma_n(rho, params) - expected)) < 1e-13


def test_gamma_basis_states_diagonal():
    # output on |i1 i2> is diagonal with the flip measure shifted by XOR
    params = ChannelParams(mu=0.5, a=1.0, d=0.6)  # x0=0.8, x1=0.2
    lams = np.array([0.57375, 0.17625, 0.17625, 0.07375])  # hand-enumerated
    for basis in range(4):
        out = apply_gamma_n(ket_to_dm(basis_ket(2, basis)), params)
        assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-14
        diag = np.real(np.diag(out))
        for k in range(4):
            assert diag[basis ^ k] == pytest.approx(lams[k], abs=1e-13)


def test_gamma_input_validation():
    params = ChannelParams(mu=0.2, a=1.0, d=0.2)
    with pytest.raises(InvalidStateError):
        apply_gamma_n(np.eye(3, dtype=complex) / 3.0, params)
    # the dense cap is checked before anything of the input's size is built
    too_big = np.zeros((2**11, 2**11))
    for apply in (apply_gamma_n, apply_gamma_n_fast):
        with pytest.raises(InvalidParameterError, match="cap 10"):
            apply(too_big, params)


def test_fast_path_matches_enumeration():
    rng = np.random.default_rng(15)
    for _ in range(100):
        params = random_params(rng)
        rho = random_mixed_dm(rng, 8)
        slow = apply_gamma_n(rho, params)
        fast = apply_gamma_n_fast(rho, params)
        assert np.max(np.abs(slow - fast)) < 1e-12


def test_fast_path_memoryless_reduction():
    # mu = 0 makes branch picks i.i.d., so the channel factorizes into
    # per-qubit depolarizing maps with the averaged retention a/2
    rng = np.random.default_rng(16)
    for _ in range(10):
        x0, x1 = rng.uniform(-1 / 3, 1, size=2)
        params = ChannelParams.from_x(0.0, x0, x1)
        rho = random_mixed_dm(rng, 8)
        expected = rho.copy()
        for qubit in range(3):
            expected = depolarize_qubit(expected, qubit, params.a / 2.0)
        assert np.max(np.abs(apply_gamma_n_fast(rho, params) - expected)) < 1e-13


def test_fast_path_single_use():
    rng = np.random.default_rng(17)
    params = random_params(rng)
    rho = random_mixed_dm(rng, 2)
    assert np.allclose(apply_gamma_n_fast(rho, params), apply_gamma_n(rho, params))


def test_gamma_preserves_state_structure():
    rng = np.random.default_rng(18)
    for _ in range(10):
        params = random_params(rng)
        rho = random_mixed_dm(rng, 8)
        out = apply_gamma_n_fast(rho, params)
        assert abs(np.trace(out) - 1.0) < 1e-13
        assert np.max(np.abs(out - out.conj().T)) < 1e-13
        assert np.linalg.eigvalsh(out)[0] > -1e-12


def test_gamma_unital():
    rng = np.random.default_rng(19)
    for n in (1, 2, 3, 4):
        params = random_params(rng)
        out = apply_gamma_n_fast(maximally_mixed(n), params)
        assert np.max(np.abs(out - maximally_mixed(n))) < 1e-12


def test_covariance_all_two_qubit_pauli_pairs():
    rng = np.random.default_rng(20)
    params = random_params(rng)
    rho = random_pure_dm(rng, 4)
    for i in range(4):
        for j in range(4):
            lhs = apply_gamma_n(pauli_conjugate(rho, [i, j]), params)
            rhs = pauli_conjugate(apply_gamma_n(rho, params), [i, j])
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_covariance_random_pauli_strings():
    rng = np.random.default_rng(21)
    for _ in range(10):
        params = random_params(rng)
        rho = random_mixed_dm(rng, 8)
        indices = rng.integers(0, 4, size=3)
        lhs = apply_gamma_n_fast(pauli_conjugate(rho, indices), params)
        rhs = pauli_conjugate(apply_gamma_n_fast(rho, params), indices)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@given(CP_PARAMS)
def test_fast_path_is_unital_trace_preserving_and_pauli_covariant(params):
    rng = np.random.default_rng(29)
    for n in (1, 2, 3):
        identity = maximally_mixed(n)
        assert np.max(np.abs(apply_gamma_n_fast(identity, params) - identity)) <= 1e-12
        rho = random_mixed_dm(rng, 2**n)
        out = apply_gamma_n_fast(rho, params)
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12
        indices = rng.integers(0, 4, size=n)
        moved = apply_gamma_n_fast(pauli_conjugate(rho, indices), params)
        assert np.max(np.abs(moved - pauli_conjugate(out, indices))) <= 1e-12


def test_pauli_multipliers_are_the_channel_eigenvalues():
    rng = np.random.default_rng(22)
    for _ in range(10):
        params = random_params(rng)
        indices = rng.integers(0, 4, size=4)
        string = pauli_string(indices)
        lam = pauli_multipliers(params, indices > 0)
        assert np.max(np.abs(apply_gamma_n_fast(string, params) - lam * string)) < 1e-12
        assert pauli_multipliers(params, [False] * 4) == pytest.approx(1.0, abs=1e-15)
        assert pauli_multipliers(params, [True, True]) == pytest.approx(
            lambda_pair(params).c, abs=1e-15)
    # a batch of supports gives one multiplier per row
    supports = np.array([[True, False, True], [False, True, True]])
    batch = pauli_multipliers(params, supports)
    assert batch.shape == (2,)
    assert batch[1] == pauli_multipliers(params, supports[1])
    # lambda of the empty support is 1, with the leading shape kept
    empty = pauli_multipliers(params, np.zeros((3, 0), dtype=bool))
    assert empty.shape == (3,)
    assert np.all(empty == 1.0)


def test_general_chain_drives_the_branches():
    # asymmetric chain: stationary (0.75, 0.25), so the single-use channel
    # mixes the branches with those weights
    mem = MarkovMemory.from_transition([[0.9, 0.1], [0.3, 0.7]])
    params = ChannelParams.from_x(0.0, 0.8, 0.2)  # mu unused once memory is given
    rng = np.random.default_rng(24)
    rho = random_mixed_dm(rng, 2)
    mean_x = 0.75 * 0.8 + 0.25 * 0.2
    expected = mean_x * rho + (1.0 - mean_x) * maximally_mixed(1)
    out = apply_gamma_n(rho, params, memory=mem)
    assert np.max(np.abs(out - expected)) < 1e-13

    rho = random_mixed_dm(rng, 8)
    slow = apply_gamma_n(rho, params, memory=mem)
    fast = apply_gamma_n_fast(rho, params, memory=mem)
    assert np.max(np.abs(slow - fast)) < 1e-13


def test_fast_path_with_initial_memory():
    rng = np.random.default_rng(25)
    params = random_params(rng)
    rho = random_mixed_dm(rng, 8)
    for omega in ((1.0, 0.0), (0.0, 1.0), (0.2, 0.8)):
        slow = apply_gamma_n(rho, params, initial_memory=omega)
        fast = apply_gamma_n_fast(rho, params, initial_memory=omega)
        assert np.max(np.abs(slow - fast)) < 1e-13


def test_initial_memory_override():
    params = ChannelParams(mu=0.7, a=0.9, d=0.5)
    rho = random_mixed_dm(np.random.default_rng(22), 4)
    stationary = apply_gamma_n(rho, params)
    default = apply_gamma_n(rho, params, initial_memory=(0.5, 0.5))
    assert np.max(np.abs(stationary - default)) < 1e-14
    skewed = apply_gamma_n(rho, params, initial_memory=(1.0, 0.0))
    assert np.max(np.abs(stationary - skewed)) > 1e-4
    with pytest.raises(InvalidParameterError):
        apply_gamma_n(rho, params, initial_memory=(0.9, 0.3))


def test_fast_path_rejects_a_nan_initial_memory():
    params = ChannelParams(mu=0.7, a=0.9, d=0.5)
    with pytest.raises(InvalidParameterError, match="nan"):
        apply_gamma_n_fast(maximally_mixed(2), params, initial_memory=(np.nan, 1.0))


def test_path_weights_reject_a_nan_initial_memory():
    with pytest.raises(InvalidParameterError, match="nan"):
        path_weights(MarkovMemory.symmetric(0.7), 3, initial_memory=(np.nan, 1.0))


# ------------------------------------------------------------- forgetfulness


def test_forgetfulness_memoryless_and_symmetric_branches():
    rho = ket_to_dm(basis_ket(1, 0))
    for n in (1, 2, 3, 4):
        assert forgetfulness_gap(ChannelParams(mu=0.0, a=0.9, d=0.5), n, rho) < 1e-14
        assert forgetfulness_gap(ChannelParams(mu=0.6, a=0.9, d=0.0), n, rho) < 1e-14


def test_forgetfulness_decay_ratio_is_mu():
    rng = np.random.default_rng(23)
    for mu in (0.35, -0.6):
        params = ChannelParams(mu=mu, a=0.9, d=0.7)
        rho = random_pure_dm(rng, 2)
        gaps = [forgetfulness_gap(params, n, rho) for n in range(1, 7)]
        assert all(g2 <= g1 + 1e-14 for g1, g2 in zip(gaps, gaps[1:]))
        for g1, g2 in zip(gaps, gaps[1:]):
            assert g2 / g1 == pytest.approx(abs(mu), rel=1e-9)
    # closed form of the trivially extended gap
    params = ChannelParams(mu=0.35, a=0.9, d=0.7)
    rho = random_pure_dm(rng, 2)
    expected = 0.35**3 * 0.7 * trace_distance(rho, maximally_mixed(1))
    assert forgetfulness_gap(params, 3, rho) == pytest.approx(expected, rel=1e-12)


def test_forgetfulness_gap_matches_the_padded_enumeration():
    # oracle: the trivially extended state through the enumerated channel
    rng = np.random.default_rng(26)
    for mu in (0.7, -0.8):
        for _ in range(3):
            x0, x1 = rng.uniform(-1 / 3, 1, size=2)
            params = ChannelParams.from_x(mu, x0, x1)
            for k in (1, 2):
                rho = random_mixed_dm(rng, 2**k)
                for n in range(k, 6):
                    padded = np.kron(maximally_mixed(n - k), rho)
                    expected = trace_distance(
                        apply_gamma_n(padded, params, initial_memory=(1.0, 0.0)),
                        apply_gamma_n(padded, params, initial_memory=(0.0, 1.0)))
                    assert abs(forgetfulness_gap(params, n, rho) - expected) <= 1e-13


def test_forgetfulness_gap_over_a_long_block():
    # 40 uses, far past the dense cap: only the state's own qubit is built
    params = ChannelParams(mu=0.9, a=0.9, d=0.7)
    rho = random_pure_dm(np.random.default_rng(27), 2)
    expected = 0.9**40 * 0.7 * trace_distance(rho, maximally_mixed(1))
    assert forgetfulness_gap(params, 40, rho) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(InvalidParameterError):
        forgetfulness_gap(params, 1, random_mixed_dm(np.random.default_rng(28), 4))
