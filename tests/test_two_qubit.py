import math

import numpy as np
import pytest

from helpers import random_params
from qmemchan import (
    ChannelParams,
    InputAngle,
    InvalidParameterError,
    OptimalFamily,
    apply_gamma_n,
    lambda_pair,
    numeric_theta_scan,
    output_eigenvalues,
    output_state,
    shannon_entropy,
    threshold_f,
    two_use_capacity,
    von_neumann_entropy,
)

PI4 = math.pi / 4


def brute_force_lambdas(mu, x0, x1):
    """Independent 4-term enumeration over branch pairs."""
    p = np.array([[(1 + mu) / 2, (1 - mu) / 2], [(1 - mu) / 2, (1 + mu) / 2]])
    keep = [(1 + x0) / 2, (1 + x1) / 2]
    flip = [(1 - x0) / 2, (1 - x1) / 2]
    emit = [[keep[0], flip[0]], [keep[1], flip[1]]]
    lam = np.zeros((2, 2))
    for k1 in range(2):
        for k2 in range(2):
            lam[k1, k2] = sum(
                0.5 * p[i1, i2] * emit[i1][k1] * emit[i2][k2]
                for i1 in range(2)
                for i2 in range(2)
            )
    return lam


# ----------------------------------------------------------------- lambda_pair


def test_lambda_pair_noiseless():
    spectrum = lambda_pair(ChannelParams.from_x(0.5, 1.0, 1.0))
    assert (spectrum.lambda00, spectrum.lambda01, spectrum.lambda11) == pytest.approx((1.0, 0.0, 0.0))


def test_lambda_pair_identical_branches():
    rng = np.random.default_rng(30)
    for _ in range(10):
        mu = rng.uniform(-0.9, 0.9)
        x = rng.uniform(-1 / 3, 1)
        spectrum = lambda_pair(ChannelParams(mu=mu, a=2 * x, d=0.0))
        assert spectrum.lambda00 == pytest.approx(((1 + x) / 2) ** 2, abs=1e-14)
        assert spectrum.lambda01 == pytest.approx((1 - x**2) / 4, abs=1e-14)
        assert spectrum.lambda11 == pytest.approx(((1 - x) / 2) ** 2, abs=1e-14)


def test_lambda_pair_against_enumeration():
    spectrum = lambda_pair(ChannelParams.from_x(0.5, 0.8, 0.2))
    lam = brute_force_lambdas(0.5, 0.8, 0.2)
    assert spectrum.lambda00 == pytest.approx(lam[0, 0], abs=1e-15)
    assert spectrum.lambda01 == pytest.approx(lam[0, 1], abs=1e-15)
    assert spectrum.lambda01 == pytest.approx(lam[1, 0], abs=1e-15)
    assert spectrum.lambda11 == pytest.approx(lam[1, 1], abs=1e-15)
    # frozen hand-computed values
    assert (spectrum.lambda00, spectrum.lambda01, spectrum.lambda11) == pytest.approx(
        (0.57375, 0.17625, 0.07375), abs=1e-15
    )


def test_lambda_pair_invariants():
    rng = np.random.default_rng(31)
    for _ in range(30):
        params = random_params(rng)
        spectrum = lambda_pair(params)
        assert spectrum.lambda00 + 2 * spectrum.lambda01 + spectrum.lambda11 == pytest.approx(1.0, abs=1e-14)
        assert min(spectrum.lambda00, spectrum.lambda01, spectrum.lambda11) >= -1e-15
        assert spectrum.c == pytest.approx((params.a**2 + params.mu * params.d**2) / 4, abs=1e-14)
        # matrix elements tie back to the lambdas for any angle
        alpha, beta, gamma, _ = spectrum.matrix_elements(InputAngle(rng.uniform(0, math.pi / 2)))
        assert alpha + beta == pytest.approx(spectrum.lambda00 + spectrum.lambda11, abs=1e-14)
        assert gamma == spectrum.lambda01


def test_lambda_pair_matches_channel_diagonal():
    rng = np.random.default_rng(32)
    from qmemchan import basis_ket, ket_to_dm

    for _ in range(10):
        params = random_params(rng)
        spectrum = lambda_pair(params)
        diag = np.real(np.diag(apply_gamma_n(ket_to_dm(basis_ket(2, 0)), params)))
        expected = np.array([spectrum.lambda00, spectrum.lambda01, spectrum.lambda01, spectrum.lambda11])
        assert np.max(np.abs(diag - expected)) < 1e-13


# ------------------------------------------------------------------- threshold


def test_threshold_values():
    assert threshold_f(ChannelParams(mu=2 / 3, a=1 / 3, d=-1.0)) == pytest.approx(1 / 9, abs=1e-14)
    assert threshold_f(ChannelParams(mu=0.0, a=1.0, d=0.0)) == pytest.approx(-1.0, abs=1e-15)
    # d = 0: f = |a|(|a| - 2) <= 0 on the whole valid range
    for a in np.linspace(-2 / 3, 2.0, 25):
        assert threshold_f(ChannelParams(mu=0.3, a=float(a), d=0.0)) <= 1e-14


def test_threshold_root_at_five_ninths():
    below = threshold_f(ChannelParams(mu=5 / 9 - 1e-6, a=1 / 3, d=-1.0))
    above = threshold_f(ChannelParams(mu=5 / 9 + 1e-6, a=1 / 3, d=-1.0))
    assert below < 0 < above


# ---------------------------------------------------------------- output state


def test_output_state_product_input_diagonal():
    params = ChannelParams(mu=0.5, a=1.0, d=0.6)
    spectrum = lambda_pair(params)
    out = output_state(params, InputAngle(0.0))
    expected = np.diag([spectrum.lambda00, spectrum.lambda01, spectrum.lambda01, spectrum.lambda11])
    assert np.max(np.abs(out - expected)) < 1e-14


def test_output_state_matches_channel():
    rng = np.random.default_rng(33)
    for _ in range(30):
        params = random_params(rng)
        angle = InputAngle(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
        direct = apply_gamma_n(angle.density_matrix(), params)
        assert np.max(np.abs(output_state(params, angle) - direct)) < 1e-12


def test_output_spectrum_max_entangled():
    params = ChannelParams(mu=2 / 3, a=1 / 3, d=-1.0)
    lam = lambda_pair(params).lambda01
    eigs = output_eigenvalues(params, InputAngle(PI4))
    expected = np.sort([1 - 3 * lam, lam, lam, lam])[::-1]
    assert np.max(np.abs(eigs - expected)) < 1e-14


def test_output_spectrum_phi_invariant():
    params = ChannelParams(mu=0.4, a=0.8, d=0.9)
    reference = output_eigenvalues(params, InputAngle(0.9, 0.0))
    for phi in np.linspace(0.0, 2 * math.pi, 9, endpoint=False):
        eigs = output_eigenvalues(params, InputAngle(0.9, float(phi)))
        assert np.max(np.abs(eigs - reference)) < 1e-14


def test_output_eigenvalues_against_dense_solver():
    rng = np.random.default_rng(34)
    for _ in range(100):
        params = random_params(rng)
        angle = InputAngle(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
        closed = output_eigenvalues(params, angle)
        dense = np.sort(np.linalg.eigvalsh(output_state(params, angle)))[::-1]
        assert np.max(np.abs(closed - dense)) < 1e-12
        assert closed.sum() == pytest.approx(1.0, abs=1e-13)


def test_output_eigenvalues_theta_zero():
    rng = np.random.default_rng(35)
    for _ in range(10):
        params = random_params(rng)
        spectrum = lambda_pair(params)
        eigs = output_eigenvalues(params, InputAngle(0.0))
        expected = np.sort([spectrum.lambda00, spectrum.lambda01, spectrum.lambda01, spectrum.lambda11])[::-1]
        assert np.max(np.abs(eigs - expected)) < 1e-14


def test_output_eigenvalues_noiseless_bell():
    eigs = output_eigenvalues(ChannelParams.from_x(0.1, 1.0, 1.0), InputAngle(PI4))
    assert np.max(np.abs(eigs - np.array([1.0, 0.0, 0.0, 0.0]))) < 1e-14


def test_angle_validation():
    with pytest.raises(InvalidParameterError):
        InputAngle(-0.1)
    with pytest.raises(InvalidParameterError):
        InputAngle(0.3, 7.0)


# -------------------------------------------------------------------- capacity


def test_capacity_noiseless_and_dead_channel():
    noiseless = two_use_capacity(ChannelParams.from_x(0.5, 1.0, 1.0))
    assert noiseless.capacity_bits_per_use == pytest.approx(1.0, abs=1e-14)
    assert noiseless.optimal_family is OptimalFamily.MAX_ENTANGLED  # f = 0 tie
    dead = two_use_capacity(ChannelParams.from_x(0.5, 0.0, 0.0))
    assert dead.capacity_bits_per_use == pytest.approx(0.0, abs=1e-14)


def test_capacity_entangled_branch_formula():
    result = two_use_capacity(ChannelParams(mu=2 / 3, a=1 / 3, d=-1.0))
    assert result.optimal_family is OptimalFamily.MAX_ENTANGLED
    lam = result.spectrum.lambda01
    expected = 1.0 + ((1 - 3 * lam) * np.log2(1 - 3 * lam) + 3 * lam * np.log2(lam)) / 2.0
    assert result.capacity_bits_per_use == pytest.approx(expected, abs=1e-14)
    assert result.c2_entangled >= result.c2_product


def test_capacity_product_branch_formula():
    result = two_use_capacity(ChannelParams(mu=0.2, a=1.2, d=0.0))
    assert result.optimal_family is OptimalFamily.PRODUCT
    lams = result.spectrum.probabilities()
    expected = 1.0 - shannon_entropy(lams) / 2.0
    assert result.capacity_bits_per_use == pytest.approx(expected, abs=1e-14)
    assert result.theta_star == 0.0


def test_capacity_equal_at_threshold():
    result = two_use_capacity(ChannelParams(mu=5 / 9, a=1 / 3, d=-1.0))
    assert result.c2_product == pytest.approx(result.c2_entangled, abs=1e-12)


def test_capacity_is_max_of_branches():
    rng = np.random.default_rng(36)
    for _ in range(50):
        result = two_use_capacity(random_params(rng))
        best = max(result.c2_product, result.c2_entangled)
        assert result.capacity_bits_per_use == pytest.approx(best, abs=1e-12)


def test_capacity_monotone_along_rays():
    rng = np.random.default_rng(37)
    for _ in range(20):
        mu = rng.uniform(-0.95, 0.95)
        x0, x1 = rng.uniform(-1 / 3, 1, size=2)
        caps = [
            two_use_capacity(ChannelParams.from_x(mu, t * x0, t * x1)).capacity_bits_per_use
            for t in np.linspace(1.0, 0.0, 11)
        ]
        assert all(c2 <= c1 + 1e-12 for c1, c2 in zip(caps, caps[1:]))


def test_capacity_phi_invariant():
    params = ChannelParams(mu=0.6, a=0.5, d=0.8)
    entropies = [
        von_neumann_entropy(output_state(params, InputAngle(PI4, float(phi))))
        for phi in np.linspace(0, 2 * math.pi, 7, endpoint=False)
    ]
    assert np.max(entropies) - np.min(entropies) < 1e-12


# ------------------------------------------------------------------ theta scan


def test_scan_product_regime():
    assert numeric_theta_scan(ChannelParams(mu=0.0, a=1.0, d=0.0)) == pytest.approx(0.0, abs=1e-6)


def test_scan_entangled_regime():
    theta = numeric_theta_scan(ChannelParams(mu=0.9, a=1 / 3, d=-1.0))
    assert theta == pytest.approx(PI4, abs=1e-6)


def test_scan_degenerate_returns_zero():
    assert numeric_theta_scan(ChannelParams.from_x(0.5, 1.0, 1.0)) == 0.0


def test_scan_argmin_is_an_endpoint():
    rng = np.random.default_rng(38)
    for _ in range(25):
        params = random_params(rng)
        theta = numeric_theta_scan(params)
        assert min(abs(theta - 0.0), abs(theta - PI4)) < 1e-6


def test_sign_of_f_predicts_entropy_comparison():
    for mu in np.linspace(-0.9, 0.9, 20):
        for a in np.linspace(-2 / 3, 2.0, 20):
            for d in np.linspace(-4 / 3, 4 / 3, 20):
                try:
                    params = ChannelParams(mu=float(mu), a=float(a), d=float(d))
                except InvalidParameterError:
                    continue
                f = threshold_f(params)
                s_prod = shannon_entropy(output_eigenvalues(params, InputAngle(0.0)))
                s_ent = shannon_entropy(output_eigenvalues(params, InputAngle(PI4)))
                if abs(f) < 1e-9:
                    assert abs(s_prod - s_ent) < 1e-10
                elif f > 0:
                    assert s_ent <= s_prod + 1e-12
                else:
                    assert s_prod <= s_ent + 1e-12
