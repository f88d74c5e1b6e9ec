import math

import numpy as np
import pytest
from hypothesis import given

from helpers import (
    CP_PARAMS,
    HolevoEnsemble,
    holevo_quantity,
    pauli_orbit_ensemble,
    random_params,
    random_pure_dm,
    w_spectrum_by_parity,
)
from qmemchan import ensembles
from qmemchan import (
    ChannelParams,
    InputAngle,
    InputFamily,
    InvalidParameterError,
    apply_gamma_n_fast,
    basis_ket,
    basis_product,
    block_entropy,
    default_families,
    family_comparison,
    FlipProcess,
    InvalidStateError,
    generate,
    ghz,
    ket_to_dm,
    max_entangled_halves,
    orbit_mutual_information,
    path_measure,
    pauli_multipliers,
    shannon_entropy,
    stabilizer_spectrum,
    threshold_f,
    two_use_capacity,
    von_neumann_entropy,
    w_spectrum,
    w_state,
)

BELL = ket_to_dm(np.array([1, 0, 0, 1]) / math.sqrt(2))


# ------------------------------------------------------------------ generation


def test_two_qubit_family_coincidences():
    assert np.max(np.abs(generate(ghz(2)) - BELL)) < 1e-14
    assert np.max(np.abs(generate(max_entangled_halves(2)) - BELL)) < 1e-14
    assert np.max(np.abs(InputAngle(math.pi / 4).density_matrix() - BELL)) < 1e-14
    w2 = ket_to_dm(np.array([0, 1, 1, 0]) / math.sqrt(2))
    assert np.max(np.abs(generate(w_state(2)) - w2)) < 1e-14


def test_generated_states_are_pure_and_normalized():
    families = [basis_product(3), ghz(4), w_state(5), max_entangled_halves(4)]
    for rho in [*map(generate, families), InputAngle(0.7, 1.3).density_matrix()]:
        assert abs(np.trace(rho) - 1.0) < 1e-13
        assert abs(np.trace(rho @ rho) - 1.0) < 1e-13  # rank one


def test_family_validation():
    with pytest.raises(InvalidParameterError):
        w_state(1)
    with pytest.raises(InvalidParameterError):
        max_entangled_halves(3)
    # each family refuses an n above its kind's cap when it is built
    with pytest.raises(InvalidParameterError, match="'w'.*cap 12"):
        w_state(13)
    with pytest.raises(InvalidParameterError, match="'product'.*cap 24"):
        basis_product(25)
    # the two-qubit Schmidt states are two_qubit.InputAngle, not a family
    for kind in ("schmidt", "bell"):
        with pytest.raises(InvalidParameterError, match="unknown family"):
            InputFamily(kind, 2)
    with pytest.raises(InvalidParameterError):
        w_spectrum(1, ChannelParams(mu=0.9, a=2 / 3, d=-4 / 3))


def test_default_families_fit_their_block_length():
    # W needs n >= 2 and the half-chain state an even n
    def kinds(n):
        return [family.kind for family in default_families(n)]

    assert kinds(1) == ["product", "ghz"]
    assert kinds(3) == ["product", "ghz", "w"]
    assert kinds(4) == ["product", "ghz", "w", "max_entangled"]


def test_ghz_and_max_entangled_structure():
    psi = ghz(3).state_vector()
    assert psi[0] == pytest.approx(1 / math.sqrt(2))
    assert psi[7] == pytest.approx(1 / math.sqrt(2))
    assert np.count_nonzero(psi) == 2
    psi = max_entangled_halves(4).state_vector()
    # sum_j |j>|j> over the half-chain bipartition
    assert np.count_nonzero(psi) == 4
    for j in range(4):
        assert psi[j * 4 + j] == pytest.approx(0.5)


# ---------------------------------------------------------------- holevo chi


def test_holevo_single_state_is_zero():
    rng = np.random.default_rng(50)
    params = random_params(rng)
    ensemble = HolevoEnsemble(states=(random_pure_dm(rng, 4),), probs=np.array([1.0]))
    assert holevo_quantity(ensemble, params) == pytest.approx(0.0, abs=1e-12)


def test_holevo_basis_ensemble_noiseless():
    params = ChannelParams.from_x(0.4, 1.0, 1.0)
    for n in (1, 2, 3):
        states = tuple(ket_to_dm(basis_ket(n, j)) for j in range(2**n))
        probs = np.full(2**n, 1.0 / 2**n)
        chi = holevo_quantity(HolevoEnsemble(states=states, probs=probs), params)
        assert chi == pytest.approx(float(n), abs=1e-11)


def test_materialized_orbit_matches_shortcut():
    rng = np.random.default_rng(51)
    for n in (1, 2, 3):
        params = random_params(rng)
        rho = random_pure_dm(rng, 2**n)
        explicit = holevo_quantity(pauli_orbit_ensemble(rho), params)
        shortcut = n - von_neumann_entropy(apply_gamma_n_fast(rho, params))
        assert explicit == pytest.approx(shortcut, abs=1e-10)


def test_holevo_dim_mismatch():
    rng = np.random.default_rng(52)
    with pytest.raises(InvalidParameterError):
        HolevoEnsemble(
            states=(random_pure_dm(rng, 2), random_pure_dm(rng, 4)),
            probs=np.array([0.5, 0.5]),
        )


# ----------------------------------------------------------- mutual information


def test_orbit_information_matches_two_use_branches():
    rng = np.random.default_rng(53)
    for _ in range(10):
        params = random_params(rng)
        result = two_use_capacity(params)
        product = orbit_mutual_information(basis_product(2), params)
        entangled = orbit_mutual_information(max_entangled_halves(2), params)
        assert product.i_n == pytest.approx(2.0 * result.c2_product, abs=1e-12)
        assert entangled.i_n == pytest.approx(2.0 * result.c2_entangled, abs=1e-12)


def test_orbit_information_noiseless():
    params = ChannelParams.from_x(0.2, 1.0, 1.0)
    for family in default_families(4):
        mi = orbit_mutual_information(family, params)
        assert mi.i_n == pytest.approx(4.0, abs=1e-11)
        assert mi.per_use == pytest.approx(1.0, abs=1e-11)


def test_per_use_values_bounded():
    rng = np.random.default_rng(54)
    for _ in range(5):
        params = random_params(rng)
        for n in (2, 3, 4):
            for mi in family_comparison(params, n):
                assert -1e-12 <= mi.per_use <= 1.0 + 1e-12


def test_basis_product_matches_block_entropy():
    rng = np.random.default_rng(55)
    for n in (3, 5):
        params = random_params(rng)
        mi = orbit_mutual_information(basis_product(n), params)
        expected = 1.0 - block_entropy(FlipProcess.from_params(params), n) / n
        assert mi.per_use == pytest.approx(expected, abs=1e-10)


# ------------------------------------------------------------------ comparison


def test_comparison_sorted_and_validated():
    params = ChannelParams(mu=0.9, a=2 / 3, d=-4 / 3)
    rows = family_comparison(params, 6)
    values = [r.per_use for r in rows]
    assert values == sorted(values, reverse=True)
    assert rows[0].family.kind == "product"  # the n=6 conjecture-evidence regime
    with pytest.raises(InvalidParameterError):
        family_comparison(params, 4, families=[ghz(6)])


def test_comparison_winner_follows_threshold_at_two_uses():
    count = 0
    for mu in np.linspace(-0.9, 0.9, 10):
        for a in np.linspace(-2 / 3, 2.0, 10):
            for d in np.linspace(-4 / 3, 4 / 3, 10):
                try:
                    params = ChannelParams(mu=float(mu), a=float(a), d=float(d))
                except InvalidParameterError:
                    continue
                f = threshold_f(params)
                if abs(f) < 1e-9:
                    continue
                per = {r.family.kind: r.per_use for r in family_comparison(params, 2)}
                entangled_best = max(v for k, v in per.items() if k != "product")
                if abs(entangled_best - per["product"]) < 1e-12:
                    continue
                assert (f > 0) == (entangled_best > per["product"])
                count += 1
    assert count > 300  # the grid actually exercised the comparison


def test_identical_branches_favor_product():
    # d = 0 collapses to a memoryless depolarizing channel, which is additive
    for mu in (0.0, 0.5, -0.7):
        params = ChannelParams(mu=mu, a=0.9, d=0.0)
        for n in (2, 4):
            per = {r.family.kind: r.per_use for r in family_comparison(params, n)}
            for kind, value in per.items():
                if kind != "product":
                    assert per["product"] >= value - 1e-12


# ------------------------------------------------------- stabilizer spectra


def _stabilizer_families(n):
    families = [basis_product(n), ghz(n)]
    if n % 2 == 0:
        families.append(max_entangled_halves(n))
    return families


def _dense_spectrum(family, params):
    return np.linalg.eigvalsh(apply_gamma_n_fast(generate(family), params))


def _dense_entropy(family, params):
    return von_neumann_entropy(apply_gamma_n_fast(generate(family), params))


def _raises_invalid_state(entropy_of):
    try:
        entropy_of()
    except InvalidStateError:
        return True
    return False


@pytest.mark.parametrize("n", range(2, 11))
def test_stabilizer_spectrum_matches_dense(n):
    rng = np.random.default_rng(56)
    # half of the points with negative memory
    points = [random_params(rng, *span)
              for span in ((-0.95, 0.0), (0.0, 0.95)) for _ in range(10)]
    for params in points:
        for family in _stabilizer_families(n):
            fast = np.sort(stabilizer_spectrum(family, params))
            dense = _dense_spectrum(family, params)
            assert fast.shape == dense.shape
            assert np.max(np.abs(fast - dense)) <= 1e-12
            assert abs(shannon_entropy(fast) - shannon_entropy(dense)) <= 1e-12


def test_stabilizer_spectrum_rejects_positivity_failures_like_dense():
    # the fig4 caption sweep: x1 = -1/2 is positive but not completely positive
    checked = raised = 0
    for mu in np.linspace(-0.95, 0.95, 39):
        params = ChannelParams(mu=float(mu), a=1 / 3, d=4 / 3, allow_non_cp=True)
        for n in (4, 6, 9):
            for family in _stabilizer_families(n):
                fast = _raises_invalid_state(
                    lambda: shannon_entropy(stabilizer_spectrum(family, params))
                )
                dense = _raises_invalid_state(lambda: _dense_entropy(family, params))
                assert fast == dense, (float(mu), n, family.kind)
                checked += 1
                raised += fast
    assert checked == 312
    assert 0 < raised < checked


def test_stabilizer_product_equals_block_entropy_exactly():
    rng = np.random.default_rng(57)
    for n in (9, 16):
        params = random_params(rng)
        oracle = n - block_entropy(FlipProcess.from_params(params), n)
        assert n - shannon_entropy(stabilizer_spectrum(basis_product(n), params)) == oracle
        assert orbit_mutual_information(basis_product(n), params).i_n == oracle


def test_stabilizer_spectrum_is_a_distribution_at_long_blocks():
    params = ChannelParams(mu=0.9, a=2 / 3, d=-4 / 3)
    for family in _stabilizer_families(16):
        spectrum = stabilizer_spectrum(family, params)
        assert spectrum.shape == (2**16,)
        assert abs(spectrum.sum() - 1.0) < 1e-12
        assert spectrum.min() >= -1e-15


@given(CP_PARAMS)
def test_ghz_trails_product_by_at_most_one_bit(params):
    # S(Gamma_n(GHZ)) = 1 + H(D) + c_n, D the law of Z_t xor Z_{t+1}, and
    # c_n <= 0 shrinks only the {0..0, 1..1} pair; so I_n(product) - I_n(GHZ)
    # lies in [c_n, 1], and the two families share one per-use limit
    process = FlipProcess.from_params(params)
    for n in range(2, 13):
        law = path_measure(process, n)
        lam = pauli_multipliers(params, np.ones(n, dtype=bool))
        q = law[0] + law[-1]
        c_n = (shannon_entropy(np.array([q + lam, q - lam]) / 2)
               - shannon_entropy(np.array([q, q]) / 2))
        gaps = [shannon_entropy(stabilizer_spectrum(ghz(n), params))
                - shannon_entropy(stabilizer_spectrum(basis_product(n), params))]
        if n <= 6:
            gaps.append(orbit_mutual_information(basis_product(n), params).i_n
                        - orbit_mutual_information(ghz(n), params).i_n)
        for gap in gaps:
            assert c_n - 1e-12 <= gap <= 1.0 + 1e-12


def _counting_dense_calls(monkeypatch):
    calls = []

    def counting(name):
        original = getattr(ensembles, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("apply_gamma_n_fast", "von_neumann_entropy"):
        monkeypatch.setattr(ensembles, name, counting(name))
    return calls


@pytest.mark.parametrize("n", (9, 10))
def test_stabilizer_families_build_no_density_matrix(monkeypatch, n):
    calls = _counting_dense_calls(monkeypatch)
    params = ChannelParams(mu=0.9, a=2 / 3, d=-4 / 3)
    for family in _stabilizer_families(n):
        orbit_mutual_information(family, params)
    orbit_mutual_information(w_state(n), params)
    assert calls == []


def test_dense_families_are_refused_above_the_dense_cap():
    params = ChannelParams(mu=0.9, a=2 / 3, d=-4 / 3)
    with pytest.raises(InvalidParameterError, match="'w'.*cap 12"):
        orbit_mutual_information(w_state(13), params)
    with pytest.raises(InvalidParameterError, match="'w'.*cap 12"):
        w_spectrum(13, params)
    with pytest.raises(InvalidParameterError, match="not a stabilizer state"):
        stabilizer_spectrum(w_state(4), params)


def test_family_comparison_checks_every_size_first(monkeypatch):
    calls = []
    monkeypatch.setattr(ensembles, "stabilizer_spectrum", lambda *args: calls.append(args))
    with pytest.raises(InvalidParameterError, match="'w'.*cap 12"):
        family_comparison(ChannelParams(mu=0.9, a=2 / 3, d=-4 / 3), 14)
    assert calls == []


# --------------------------------------------------------------- W spectrum


@pytest.mark.parametrize("n", range(2, 11))
def test_w_spectrum_matches_dense(n):
    rng = np.random.default_rng(58)
    # dense W costs about 1.7 s per point at n = 10; half of the points with
    # negative memory
    per_side = 2 if n >= 9 else 4
    points = [random_params(rng, *span)
              for span in ((-0.95, 0.0), (0.0, 0.95)) for _ in range(per_side)]
    for params in points:
        fast = np.sort(w_spectrum(n, params))
        dense = _dense_spectrum(w_state(n), params)
        assert fast.shape == dense.shape
        assert np.max(np.abs(fast - dense)) <= 1e-12
        assert abs(shannon_entropy(fast) - shannon_entropy(dense)) <= 1e-12


def test_w_spectrum_rejects_positivity_failures_like_dense():
    # the fig4 caption sweep: x1 = -1/2 is positive but not completely positive
    checked = raised = 0
    for mu in np.linspace(-0.95, 0.95, 39):
        params = ChannelParams(mu=float(mu), a=1 / 3, d=4 / 3, allow_non_cp=True)
        for n in (4, 6, 9):
            fast = _raises_invalid_state(lambda: shannon_entropy(w_spectrum(n, params)))
            dense = _raises_invalid_state(lambda: _dense_entropy(w_state(n), params))
            assert fast == dense, (float(mu), n)
            checked += 1
            raised += fast
    assert checked == 117
    assert 0 < raised < checked


@pytest.mark.parametrize("n", (11, 12))
def test_w_spectrum_matches_parity_blocks_past_the_dense_cap(n):
    rng = np.random.default_rng(59)
    # the parity-block oracle costs about 1.6 s per point at n = 12; half of
    # the points with negative memory
    per_side = 2 if n == 11 else 1
    points = [random_params(rng, *span)
              for span in ((-0.95, 0.0), (0.0, 0.95)) for _ in range(per_side)]
    for params in points:
        fast = np.sort(w_spectrum(n, params))
        oracle = np.sort(w_spectrum_by_parity(n, params))
        assert fast.shape == oracle.shape == (2**n,)
        assert np.max(np.abs(fast - oracle)) <= 1e-12
        assert abs(shannon_entropy(fast) - shannon_entropy(oracle)) <= 1e-12


@pytest.mark.parametrize("n", range(2, 7))
@given(params=CP_PARAMS)
def test_w_output_has_no_entry_between_hamming_weights(n, params):
    output = apply_gamma_n_fast(generate(w_state(n)), params)
    weight = np.array([bin(y).count("1") for y in range(2**n)])
    assert np.all(output[weight[:, None] != weight] == 0.0)


def test_w_spectrum_diagonalizes_one_block_per_hamming_weight(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(block):
        shapes.append(block.shape)
        return eigvalsh(block)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    spectrum = w_spectrum(10, ChannelParams(mu=0.9, a=2 / 3, d=-4 / 3))
    assert shapes == [(math.comb(10, w),) * 2 for w in range(11)]
    assert spectrum.shape == (2**10,)


def test_w_at_its_cap_builds_no_density_matrix(monkeypatch):
    calls = _counting_dense_calls(monkeypatch)
    spectra = []
    original = ensembles.w_spectrum

    def recording(*args):
        spectra.append(original(*args))
        return spectra[-1]

    monkeypatch.setattr(ensembles, "w_spectrum", recording)
    mi = orbit_mutual_information(w_state(12), ChannelParams(mu=0.9, a=2 / 3, d=-4 / 3))
    assert calls == []
    (spectrum,) = spectra
    assert spectrum.shape == (2**12,)
    assert abs(spectrum.sum() - 1.0) <= 1e-12
    assert 0.0 <= mi.i_n <= 12.0
    assert mi.i_n == 12 - shannon_entropy(spectrum)
