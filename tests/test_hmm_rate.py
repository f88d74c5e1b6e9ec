import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import CP_PARAMS, random_mixed_dm, random_params
from qmemchan import hmm_rate
from qmemchan import (
    ChannelParams,
    FlipProcess,
    InvalidParameterError,
    MarkovMemory,
    apply_gamma_n_fast,
    basis_ket,
    binary_entropy,
    block_entropy,
    branch_averaged_entropy,
    capacity_upper_bound,
    default_families,
    entropy_rate_bracket,
    ket_to_dm,
    lambda_pair,
    markov_entropy_rate,
    orbit_mutual_information,
    path_measure,
    path_weights,
    product_state_capacity,
    shannon_entropy,
    two_use_capacity,
    von_neumann_entropy,
)
from qmemchan.channel import forward


def process_for(params: ChannelParams) -> FlipProcess:
    return FlipProcess.from_params(params)


# -------------------------------------------------------------- path measure


def test_measure_noiseless_point_mass():
    measure = path_measure(process_for(ChannelParams.from_x(0.4, 1.0, 1.0)), 5)
    assert measure[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(measure[1:]) < 1e-14


def test_measure_identical_branches_iid():
    params = ChannelParams(mu=0.6, a=0.9, d=0.0)
    flip = (2.0 - params.a) / 4.0
    single = np.array([1.0 - flip, flip])
    expected = single.copy()
    for _ in range(3):
        expected = np.kron(expected, single)
    measure = path_measure(process_for(params), 4)
    assert np.max(np.abs(measure - expected)) < 1e-13


def test_measure_matches_two_use_lambdas():
    rng = np.random.default_rng(40)
    for _ in range(10):
        params = random_params(rng)
        spectrum = lambda_pair(params)
        measure = path_measure(process_for(params), 2)
        expected = np.array([spectrum.lambda00, spectrum.lambda01, spectrum.lambda01, spectrum.lambda11])
        assert np.max(np.abs(measure - expected)) < 1e-14


def test_measure_normalization_and_consistency():
    rng = np.random.default_rng(41)
    for _ in range(5):
        proc = process_for(random_params(rng))
        for n in (2, 3, 5, 7):
            measure = path_measure(proc, n)
            assert measure.sum() == pytest.approx(1.0, abs=1e-12)
            marginal = measure.reshape(-1, 2).sum(axis=1)
            assert np.max(np.abs(marginal - path_measure(proc, n - 1))) < 1e-12


def test_measure_rejects_oversized_blocks():
    proc = process_for(ChannelParams(mu=0.1, a=1.0, d=0.0))
    with pytest.raises(InvalidParameterError):
        path_measure(proc, 25)


def test_emission_rows_are_distributions():
    rng = np.random.default_rng(39)
    for _ in range(10):
        proc = process_for(random_params(rng))
        assert np.allclose(proc.emission.sum(axis=1), 1.0)
        assert np.all(proc.emission >= 0.0) and np.all(proc.emission <= 1.0)
    with pytest.raises(InvalidParameterError):
        FlipProcess.from_memory(MarkovMemory.symmetric(0.2), 1.5, 0.0)


def test_general_chain_measure_matches_channel():
    from qmemchan import apply_gamma_n

    mem = MarkovMemory.from_transition([[0.9, 0.1], [0.3, 0.7]])
    params = ChannelParams.from_x(0.0, 0.8, 0.2)
    proc = FlipProcess.from_memory(mem, 0.8, 0.2)
    for n in (1, 2, 3):
        measure = path_measure(proc, n)
        diag = np.real(np.diag(apply_gamma_n(ket_to_dm(basis_ket(n, 0)), params, memory=mem)))
        assert np.max(np.abs(measure - diag)) < 1e-13


# ------------------------------------------------------------- block entropy


def test_block_entropy_single_symbol():
    rng = np.random.default_rng(42)
    for _ in range(10):
        params = random_params(rng)
        expected = binary_entropy((2.0 - params.a) / 4.0)
        assert block_entropy(process_for(params), 1) == pytest.approx(expected, abs=1e-13)


def test_block_entropy_noiseless_zero():
    proc = process_for(ChannelParams.from_x(0.7, 1.0, 1.0))
    for n in (1, 3, 6):
        assert block_entropy(proc, n) == pytest.approx(0.0, abs=1e-12)


def test_block_entropy_iid_scaling():
    params = ChannelParams(mu=0.4, a=0.6, d=0.0)
    h1 = binary_entropy((2.0 - params.a) / 4.0)
    proc = process_for(params)
    for n in (1, 2, 4, 6):
        assert block_entropy(proc, n) == pytest.approx(n * h1, abs=1e-11)


def test_block_entropy_equals_channel_output_entropy():
    # the channel on a basis state is diagonal with the flip measure spectrum
    rng = np.random.default_rng(43)
    params = random_params(rng)
    proc = process_for(params)
    for n in (1, 2, 3, 4, 6, 8):
        rho = ket_to_dm(basis_ket(n, 0))
        s_channel = von_neumann_entropy(apply_gamma_n_fast(rho, params))
        assert block_entropy(proc, n) == pytest.approx(s_channel, abs=1e-10)


# ------------------------------------------------------------------- brackets


def test_bracket_collapses_for_identical_branches():
    for a in (0.4, 1.0, 1.6):
        params = ChannelParams(mu=0.5, a=a, d=0.0)
        bracket = entropy_rate_bracket(process_for(params), 2)
        expected = binary_entropy((2.0 - a) / 4.0)
        assert bracket.lower == pytest.approx(expected, abs=1e-10)
        assert bracket.upper == pytest.approx(expected, abs=1e-10)


def test_bracket_closes_immediately_without_memory():
    params = ChannelParams(mu=0.0, a=0.9, d=0.5)
    bracket = entropy_rate_bracket(process_for(params), 2)
    expected = binary_entropy((2.0 - params.a) / 4.0)
    assert bracket.lower == pytest.approx(expected, abs=1e-12)
    assert bracket.upper == pytest.approx(expected, abs=1e-12)


def test_bracket_trivial_channel():
    bracket = entropy_rate_bracket(process_for(ChannelParams.from_x(0.3, 1.0, 1.0)), 3)
    assert bracket.lower == pytest.approx(0.0, abs=1e-13)
    assert bracket.upper == pytest.approx(0.0, abs=1e-13)


def test_bracket_monotone_and_ordered():
    proc = process_for(ChannelParams(mu=2 / 3, a=1 / 3, d=-1.0))
    prev = None
    for n in range(2, 15):
        bracket = entropy_rate_bracket(proc, n)
        assert bracket.lower <= bracket.upper + 1e-12
        assert 0.0 <= bracket.lower and bracket.upper <= 1.0 + 1e-12
        if prev is not None:
            assert bracket.upper <= prev.upper + 1e-12
            assert bracket.lower >= prev.lower - 1e-12
            assert bracket.width <= prev.width + 1e-12
        prev = bracket


def test_capacity_brackets_match_direct_brackets():
    # the brackets the estimate carries are the ones entropy_rate_bracket
    # computes from scratch, bit for bit, at every block length
    for params in (ChannelParams(mu=2 / 3, a=1 / 3, d=-1.0), ChannelParams(mu=-0.6, a=0.5, d=0.9)):
        est = product_state_capacity(params, n_max=10, tolerance=0.0)
        process = process_for(params)
        assert len(est.brackets) == est.n_used == 10
        assert est.brackets[-1] == est.rate_bracket
        for n in range(2, est.n_used + 1):
            assert est.brackets[n - 1] == entropy_rate_bracket(process, n)


def test_bracket_on_an_asymmetric_chain_matches_brute_force():
    # stationary (0.75, 0.25): swapped gamma weights in the lower bracket
    # would show here, and never on the symmetric chain
    mem = MarkovMemory.from_transition([[0.9, 0.1], [0.3, 0.7]])
    process = FlipProcess.from_memory(mem, 0.8, 0.2)
    for n in range(2, 7):
        # joint[h, x]: hidden path h and flip string x, both MSB-first
        joint = np.zeros((2**n, 2**n))
        for h, hidden in enumerate(itertools.product(range(2), repeat=n)):
            weight = mem.stationary[hidden[0]]
            for t in range(1, n):
                weight *= mem.transition[hidden[t - 1], hidden[t]]
            for x, flips in enumerate(itertools.product(range(2), repeat=n)):
                joint[h, x] = weight * np.prod(
                    [process.emission[state, flip] for state, flip in zip(hidden, flips)]
                )
        # S_1 is the most significant bit of h; X^{n-1} drops the last flip
        with_s1 = joint.reshape(2, 2 ** (n - 1), 2**n).sum(axis=1)
        strings = with_s1.sum(axis=0)
        upper = shannon_entropy(strings) - shannon_entropy(strings.reshape(-1, 2).sum(axis=1))
        lower = shannon_entropy(with_s1) - shannon_entropy(with_s1.reshape(2, -1, 2).sum(axis=2))
        bracket = entropy_rate_bracket(process, n)
        assert bracket.upper == pytest.approx(upper, abs=1e-12)
        assert bracket.lower == pytest.approx(lower, abs=1e-12)


def test_stationary_law_is_the_mixture_of_the_pinned_laws():
    # the bracket takes the stationary string law as gamma_0 P(.|S_1=0) +
    # gamma_1 P(.|S_1=1); path_measure runs the stationary start itself
    mem = MarkovMemory.from_transition([[0.9, 0.1], [0.3, 0.7]])
    process = FlipProcess.from_memory(mem, 0.8, 0.2)
    emissions = itertools.repeat(process.emission.T, 12)
    pinned_starts = np.eye(2)[:, None, :]
    for n, fwd in enumerate(forward(mem.transition, pinned_starts, emissions), start=1):
        mixture = mem.stationary @ fwd.sum(axis=-1)
        assert np.max(np.abs(mixture - path_measure(process, n))) <= 1e-15


def test_brackets_run_one_forward_pass(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return forward(*args)

    monkeypatch.setattr(hmm_rate, "forward", counted)
    params = ChannelParams(mu=2 / 3, a=1 / 3, d=-1.0)
    product_state_capacity(params, n_max=8, tolerance=0.0)
    assert len(calls) == 1
    calls.clear()
    entropy_rate_bracket(process_for(params), 8)
    assert len(calls) == 1


@pytest.mark.parametrize("stop", [1, 5, 16])
def test_the_first_group_yields_as_its_pass_goes(monkeypatch, stop):
    # lengths 1..SUBTREE_DEPTH are one pass: a caller that stops at t has paid
    # for t levels of it, not for the whole group
    forward_calls, level_calls = [], []

    def counted_forward(*args):
        forward_calls.append(args)
        return forward(*args)

    def counted_levels(*args):
        level_calls.append(args)
        return level_entropies(*args)

    level_entropies = hmm_rate._level_entropies
    monkeypatch.setattr(hmm_rate, "forward", counted_forward)
    monkeypatch.setattr(hmm_rate, "_level_entropies", counted_levels)
    process = process_for(ChannelParams(mu=0.98, a=0.3, d=-0.9))
    assert len(list(itertools.islice(hmm_rate._brackets(process, 22), stop))) == stop
    assert len(level_calls) == stop
    assert len(forward_calls) == 1


def test_a_noiseless_rate_is_a_positive_zero():
    # every level of the noiseless law is a point mass, whose entropy sums
    # to -0.0; the rate printed from its bracket is 0.0 at every length
    process = process_for(ChannelParams.from_x(0.3, 1.0, 1.0))
    for bracket in hmm_rate._brackets(process, 18):
        assert math.copysign(1.0, bracket.lower) == math.copysign(1.0, bracket.upper) == 1.0


def _pinned_block_entropy(process: FlipProcess, state: int, n: int) -> float:
    """H(X^n | S_1 = state), from path_measure with the chain started in state."""
    start = np.eye(2)[state]
    pinned = FlipProcess(MarkovMemory(process.memory.transition, start), process.emission)
    return block_entropy(pinned, n)


def _assert_brackets_match_block_entropies(process: FlipProcess, lengths) -> None:
    """Every bracket of _brackets(process, n), n in lengths, against the
    block_entropy and pinned-start oracles, to 1e-12."""
    gamma = process.memory.stationary
    n_max = max(lengths)
    h = [block_entropy(process, t) if t else 0.0 for t in range(n_max + 1)]
    pinned = [[_pinned_block_entropy(process, state, t) if t else 0.0 for t in range(n_max + 1)]
              for state in (0, 1)]
    for n in lengths:
        brackets = list(hmm_rate._brackets(process, n))
        assert [b.block_length for b in brackets] == list(range(1, n + 1))
        for t, bracket in enumerate(brackets[1:], start=2):
            lower = sum(g * (p[t] - p[t - 1]) for g, p in zip(gamma, pinned))
            assert bracket.upper == pytest.approx(h[t] - h[t - 1], abs=1e-12)
            assert bracket.lower == pytest.approx(lower, abs=1e-12)


SUBTREE_MEMORIES = [MarkovMemory.symmetric(-0.7), MarkovMemory.symmetric(0.98),
                    MarkovMemory.from_transition([[0.6, 0.4], [0.05, 0.95]])]


@pytest.mark.parametrize("memory", SUBTREE_MEMORIES)
def test_subtree_brackets_match_block_entropies(monkeypatch, memory):
    # with subtrees of 3 sites, n = 14 nests four levels of them below a
    # 2-site root pass, so every way a level can be reached is exercised
    monkeypatch.setattr(hmm_rate, "SUBTREE_DEPTH", 3)
    _assert_brackets_match_block_entropies(FlipProcess.from_memory(memory, 0.9, -0.2),
                                           range(2, 15))


@pytest.mark.parametrize("memory", SUBTREE_MEMORIES)
def test_chunked_level_entropies_match_block_entropies(monkeypatch, memory):
    # chunks of 3 strings divide no level of 2**t strings: every level ends
    # in a partial chunk, and every level of more than 3 strings has a seam
    monkeypatch.setattr(hmm_rate, "CHUNK", 3)
    monkeypatch.setattr(hmm_rate, "SUBTREE_DEPTH", 3)
    _assert_brackets_match_block_entropies(FlipProcess.from_memory(memory, 0.9, -0.2), [14])


def test_an_early_stop_pays_only_for_its_own_group(monkeypatch):
    # with subtrees of 3 sites and groups of 3 lengths, lengths 4..14 come in
    # the groups 4-5, 6-8, 9-11 and 12-14: a caller that stops at 5 makes the
    # forward passes a run to 5 makes, none of those the later groups need
    calls = []

    def counted(*args):
        calls.append(args)
        return forward(*args)

    monkeypatch.setattr(hmm_rate, "SUBTREE_DEPTH", 3)
    monkeypatch.setattr(hmm_rate, "BRACKET_GROUP", 3)
    monkeypatch.setattr(hmm_rate, "forward", counted)
    process = FlipProcess.from_memory(MarkovMemory.symmetric(0.9), 0.9, -0.2)
    list(hmm_rate._brackets(process, 5))
    run_to_five = len(calls)
    calls.clear()
    assert len(list(itertools.islice(hmm_rate._brackets(process, 14), 5))) == 5
    assert len(calls) == run_to_five > 1


def test_bracket_memory_does_not_grow_with_the_block_length():
    # 2**20 strings in two pinned laws are 32 MiB in one pass; the subtrees
    # hold at most 2**SUBTREE_DEPTH of them at a time
    tracemalloc.start()
    try:
        product_state_capacity(ChannelParams(mu=0.98, a=0.3, d=-0.9), n_max=20, tolerance=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@st.composite
def flip_processes(draw):
    """An ergodic 2x2 chain or the symmetric one (mu < 0 included), with
    branches in the CP range [-1/3, 1]."""
    if draw(st.booleans()):
        memory = MarkovMemory.symmetric(draw(st.floats(-0.95, 0.95)))
    else:
        leave_0, leave_1 = draw(st.floats(0.01, 0.99)), draw(st.floats(0.01, 0.99))
        memory = MarkovMemory.from_transition([[1 - leave_0, leave_0], [leave_1, 1 - leave_1]])
    x0, x1 = draw(st.floats(-1 / 3, 1.0)), draw(st.floats(-1 / 3, 1.0))
    return FlipProcess.from_memory(memory, x0, x1)


@given(flip_processes())
def test_brackets_nest_and_bound_a_capacity_in_the_unit_interval(process):
    previous = None
    for n in range(2, 11):
        bracket = entropy_rate_bracket(process, n)
        assert bracket.lower <= bracket.upper + 1e-12
        # the capacity bracket is [1 - upper, 1 - lower]
        assert -1e-12 <= 1.0 - bracket.upper and 1.0 - bracket.lower <= 1.0 + 1e-12
        if previous is not None:
            assert bracket.lower >= previous.lower - 1e-12
            assert bracket.upper <= previous.upper + 1e-12
        previous = bracket


def test_bracket_needs_two_symbols():
    with pytest.raises(InvalidParameterError):
        entropy_rate_bracket(process_for(ChannelParams(mu=0.1, a=1.0, d=0.0)), 1)


# ------------------------------------------------------------------ capacity


def test_capacity_noiseless():
    est = product_state_capacity(ChannelParams.from_x(0.3, 1.0, 1.0))
    assert est.capacity == pytest.approx(1.0, abs=1e-12)
    assert est.n_used == 1
    assert est.converged


def test_capacity_identical_branches_closed_form():
    est = product_state_capacity(ChannelParams(mu=0.5, a=1.0, d=0.0), tolerance=1e-9)
    assert est.capacity == pytest.approx(1.0 - binary_entropy(0.25), abs=1e-9)
    assert est.converged
    assert est.n_used == 2


def test_capacity_reports_partial_bracket():
    est = product_state_capacity(ChannelParams(mu=2 / 3, a=1 / 3, d=-1.0), n_max=6, tolerance=0.0)
    assert not est.converged
    assert est.n_used == 6
    assert est.lower <= est.capacity <= est.upper


def test_zero_tolerance_converges_only_on_a_closed_bracket():
    # rounding can leave lower a few ulps above upper once the bracket has
    # closed; that negative width must not pass for convergence at tolerance 0
    rng = np.random.default_rng(7)
    converged = 0
    for _ in range(200):
        est = product_state_capacity(random_params(rng), n_max=16, tolerance=0.0)
        if est.converged:
            converged += 1
            assert est.rate_bracket.width == 0.0
    assert converged > 0


def test_capacity_refuses_n_max_outside_the_enumeration_range():
    params = ChannelParams(mu=0.5, a=1.0, d=0.0)
    for n_max in (0, 25):
        with pytest.raises(InvalidParameterError):
            product_state_capacity(params, n_max=n_max)


def test_capacity_brackets_contain_two_use_product_value():
    # per-use block entropy decreases with n, so the asymptotic product
    # capacity can only improve on the two-use theta=0 value
    rng = np.random.default_rng(44)
    for _ in range(10):
        params = random_params(rng)
        est = product_state_capacity(params, n_max=16, tolerance=1e-7)
        c2 = two_use_capacity(params)
        assert est.upper >= c2.c2_product - 1e-9


# ---------------------------------------------------------------- markov rate


def test_markov_rate_symmetric_chain():
    assert markov_entropy_rate(MarkovMemory.symmetric(0.0)) == pytest.approx(1.0, abs=1e-14)
    assert markov_entropy_rate(MarkovMemory.symmetric(0.5)) == pytest.approx(
        binary_entropy(0.75), abs=1e-14
    )
    assert markov_entropy_rate(MarkovMemory.symmetric(0.9999)) < 2e-3


def test_markov_rate_general_chain():
    mem = MarkovMemory.from_transition([[0.9, 0.1], [0.3, 0.7]])
    expected = 0.75 * binary_entropy(0.1) + 0.25 * binary_entropy(0.3)
    assert markov_entropy_rate(mem) == pytest.approx(expected, abs=1e-12)


# --------------------------------------------------------------- upper bound


def test_upper_bound_clamped_to_one():
    params = ChannelParams.from_x(0.0, 1.0, 1.0)
    assert capacity_upper_bound(params, product_state_capacity(params)) == pytest.approx(1.0)


def test_upper_bound_identical_branches_closed_form():
    params = ChannelParams(mu=0.8, a=0.8, d=0.0)
    expected = min(1.0, 1.0 - binary_entropy((2 - 0.8) / 4) + binary_entropy((1 + 0.8) / 2))
    estimate = product_state_capacity(params, tolerance=1e-10)
    assert capacity_upper_bound(params, estimate) == pytest.approx(expected, abs=1e-8)


def test_upper_bound_dominates_two_use_capacity():
    rng = np.random.default_rng(45)
    for _ in range(15):
        params = random_params(rng)
        estimate = product_state_capacity(params, n_max=16, tolerance=1e-6)
        bound = capacity_upper_bound(params, estimate)
        assert bound >= two_use_capacity(params).capacity_bits_per_use - 1e-10


@given(CP_PARAMS)
def test_branch_known_capacity_bounds_every_computed_rate(params):
    # with the branch path known to both sides the capacity is
    # 1 - sum_s gamma_s h((1 + x_s)/2): minimum output entropy is additive
    # for unital qubit channels (King, IEEE TIT 49, 2003), so no input, block
    # length or product-state bracket beats it
    branches = zip(params.memory.stationary, (params.x0, params.x1))
    bound = 1.0 - sum(gamma * binary_entropy((1.0 + x) / 2.0) for gamma, x in branches)
    rates = [two_use_capacity(params).capacity_bits_per_use,
             product_state_capacity(params, n_max=12, tolerance=1e-6).upper]
    for n in range(2, 7):
        rates += [orbit_mutual_information(family, params).per_use
                  for family in default_families(n)]
    assert max(rates) <= bound + 1e-12


# ------------------------------------------------- branch-entropy inequalities


def test_branch_entropy_minimized_on_basis_states():
    rng = np.random.default_rng(46)
    for _ in range(50):
        params = random_params(rng)
        rho = random_mixed_dm(rng, 4)
        s_random = branch_averaged_entropy(rho, params)
        s_basis = branch_averaged_entropy(ket_to_dm(basis_ket(2, 0)), params)
        assert s_random >= s_basis - 1e-10


def test_output_entropy_between_branch_average_and_path_entropy():
    rng = np.random.default_rng(47)
    for n in (2, 3):
        for _ in range(10):
            params = random_params(rng)
            rho = random_mixed_dm(rng, 2**n)
            s_branches = branch_averaged_entropy(rho, params)
            s_output = von_neumann_entropy(apply_gamma_n_fast(rho, params))
            h_paths = shannon_entropy(path_weights(params.memory, n))
            assert s_branches - 1e-10 <= s_output <= s_branches + h_paths + 1e-10
