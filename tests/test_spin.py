"""Tests for the embedded su(2) triple and the driven three-level generator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwmberry import (
    GOLDEN_RATIO,
    AlgebraParams,
    DriveParams,
    InvalidParam,
    SpinTriple,
    b_of_phi,
    cos_alpha,
    dagger,
    decomposition_residual,
    frobenius,
    gell_mann_basis,
    hamiltonian,
    hamiltonian_stack,
    hermitian_eigs,
    ladder_ops,
    make_eb,
    make_r_theta,
    rel_residual,
)
from bwmberry.spin import _drive_factors, _hamiltonian_row, _ladder_stack

LEVEL_AT_PI_SIXTH_D2 = math.sqrt(3.0) / 4.0  # 2 sin(pi/6) sqrt(3) / 4

THETA_GRID = (0.0, 0.4, 1.0, 2.2)
D_GRID = (1.7, 2.0, 3.0, 5.0)


def commutator(x, y):
    return x @ y - y @ x


def same_bits(a, b) -> bool:
    """np.array_equal, and the signs of zeros as well."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and a.shape == b.shape and a.tobytes() == b.tobytes()


# Point lists for the row builders: empty, one value or several, with the
# degenerate angle 0 and the ladder's extreme angle pi/2 among them.
ANGLE_LISTS = st.lists(st.one_of(st.sampled_from([0.0, math.pi / 2.0]), st.floats(-7.0, 7.0)), max_size=4)
ROW_D = st.one_of(
    st.sampled_from([GOLDEN_RATIO, 2.0, 1e100]),
    st.floats(GOLDEN_RATIO, 10.0),
    st.floats(0.21, 100.0).map(lambda e: 10.0 ** e),
)


# ---------------------------------------------------------------------------
# generator basis
# ---------------------------------------------------------------------------


def test_basis_third_generator_is_isospin_projection():
    basis = gell_mann_basis()
    np.testing.assert_allclose(basis.generators[2], np.diag([0.5, -0.5, 0.0]))


def test_basis_generators_are_traceless_hermitian():
    basis = gell_mann_basis()
    for g in basis.generators:
        assert abs(np.trace(g)) < 1e-15
        assert rel_residual(g, dagger(g)) < 1e-15


def test_basis_trace_orthonormality():
    basis = gell_mann_basis()
    for a in range(8):
        for b in range(8):
            expected = 0.5 if a == b else 0.0
            assert np.trace(basis.generators[a] @ basis.generators[b]) == pytest.approx(
                expected, abs=1e-12
            )


def test_basis_commutators_close_with_structure_constants():
    basis = gell_mann_basis()
    gens, f = basis.generators, basis.structure_constants
    for a in range(8):
        for b in range(8):
            lhs = commutator(gens[a], gens[b])
            rhs = 1j * np.einsum("c,cij->ij", f[a, b], gens)
            assert frobenius(lhs - rhs) < 1e-12


def test_basis_structure_constants_standard_values():
    f = gell_mann_basis().structure_constants
    assert f[0, 1, 2] == pytest.approx(1.0, abs=1e-12)  # f_123
    assert f[3, 4, 7] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)  # f_458
    assert f[5, 6, 7] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)  # f_678
    # total antisymmetry
    np.testing.assert_allclose(f, -np.swapaxes(f, 0, 1), atol=1e-12)
    np.testing.assert_allclose(f, -np.swapaxes(f, 1, 2), atol=1e-12)


def test_basis_diagonal_combination_is_first_projector():
    basis = gell_mann_basis()
    hyper = (2.0 / math.sqrt(3.0)) * basis.generators[7]
    combo = np.eye(3) / 3.0 + hyper / 2.0 + basis.generators[2]
    np.testing.assert_allclose(combo, np.diag([1.0, 0.0, 0.0]), atol=1e-15)


# ---------------------------------------------------------------------------
# ladder triple
# ---------------------------------------------------------------------------


def test_ladder_triple_domain_guards():
    with pytest.raises(InvalidParam):
        ladder_ops(0.3, 1.0)  # sqrt(d^2 - 1) degenerates
    with pytest.raises(InvalidParam):
        ladder_ops(0.3, 0.5)
    with pytest.raises(InvalidParam):
        ladder_ops(math.pi / 2.0, math.sqrt(2.0))  # the golden-ratio rule runs before the pole
    with pytest.raises(InvalidParam):
        ladder_ops(0.3, math.sqrt(2.0))  # below the projector domain


def test_ladder_triple_type():
    assert isinstance(ladder_ops(0.4, 2.0), SpinTriple)


def test_ladder_triple_unaffected_by_edits_to_a_returned_basis():
    before = ladder_ops(0.4, 2.0)
    gell_mann_basis().generators[:] = 0.0
    after = ladder_ops(0.4, 2.0)
    for name in ("s_plus", "s_minus", "s3"):
        np.testing.assert_array_equal(getattr(before, name), getattr(after, name))


@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("d", D_GRID)
def test_ladder_triple_su2_closure(theta, d):
    trip = ladder_ops(theta, d)
    assert rel_residual(commutator(trip.s_plus, trip.s_minus), 2.0 * trip.s3) < 1e-10
    assert rel_residual(commutator(trip.s3, trip.s_plus), trip.s_plus) < 1e-10
    assert rel_residual(commutator(trip.s3, trip.s_minus), -trip.s_minus) < 1e-10


@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("d", D_GRID)
def test_ladder_triple_structure(theta, d):
    trip = ladder_ops(theta, d)
    zero = np.zeros((3, 3), dtype=complex)
    assert rel_residual(trip.s_plus @ trip.s_plus, zero) < 1e-12
    assert rel_residual(trip.s_minus @ trip.s_minus, zero) < 1e-12
    assert rel_residual(trip.s_minus, dagger(trip.s_plus)) < 1e-12
    assert abs(np.trace(trip.s3)) < 1e-12


def test_ladder_triple_spin_content():
    trip = ladder_ops(0.8, 2.5)
    np.testing.assert_allclose(hermitian_eigs(trip.s3).values, [-0.5, 0.0, 0.5], atol=1e-12)


@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("d", D_GRID)
def test_casimir_spectrum_and_commutation(theta, d):
    trip = ladder_ops(theta, d)
    casimir = 0.5 * (trip.s_plus @ trip.s_minus + trip.s_minus @ trip.s_plus) + trip.s3 @ trip.s3
    np.testing.assert_allclose(hermitian_eigs(casimir).values, [0.0, 0.75, 0.75], atol=1e-10)
    for op in (trip.s_plus, trip.s_minus, trip.s3):
        assert frobenius(commutator(casimir, op)) < 1e-10


def _ladder_reference(theta: float, d: float) -> SpinTriple:
    """ladder_ops's formula as a per-theta function, kept here to pin its bits."""
    g = gell_mann_basis().generators
    s, rd = math.sqrt(max(0.0, d * d - d - 1.0)), math.sqrt(d)
    zeta = d * d / math.sqrt((d * d - 1.0) * (d ** 4 - 4.0 * (d * d - 1.0) * math.sin(theta) ** 2))
    i_plus, i_minus = g[0] + 1j * g[1], g[0] - 1j * g[1]
    u_plus, u_minus = g[5] + 1j * g[6], g[5] - 1j * g[6]
    v_plus, v_minus = g[3] - 1j * g[4], g[3] + 1j * g[4]
    hyper, iso3, ident = 2.0 / math.sqrt(3.0) * g[7], g[2], np.eye(3, dtype=complex)
    w = np.exp(-1j * theta) + 2j * math.sin(theta) / d ** 2
    wbar = np.conjugate(w)
    s3 = 0.5 * (
        (1.0 + d - d * d) / (1.0 - d * d) * (ident / 3.0 + hyper / 2.0 + iso3)
        - (ident / 3.0 + hyper / 2.0 - iso3)
        - d / (1.0 - d * d) * (ident / 3.0 - hyper)
        + rd * s / (1.0 - d * d) * (v_minus + v_plus)
    )
    return SpinTriple(
        s_plus=zeta * (-1j * s * w * i_plus + 1j * rd * w * u_minus),
        s_minus=zeta * (1j * s * wbar * i_minus - 1j * rd * wbar * u_plus),
        s3=s3,
    )


@settings(max_examples=60, deadline=None)
@given(thetas=ANGLE_LISTS, d=ROW_D.filter(lambda d: d < 1e75))
def test_ladder_stack_keeps_the_bits_of_each_theta(thetas, d):
    stack = _ladder_stack(thetas, d)
    casimirs = stack.casimir()
    assert stack.s_plus.shape == stack.s_minus.shape == casimirs.shape == (len(thetas), 3, 3)
    for k, theta in enumerate(thetas):
        one, ref = ladder_ops(theta, d), _ladder_reference(theta, d)
        for name in ("s_plus", "s_minus", "s3"):
            assert same_bits(getattr(one, name), getattr(ref, name))
        assert same_bits(stack.s_plus[k], ref.s_plus)
        assert same_bits(stack.s_minus[k], ref.s_minus)
        assert same_bits(stack.s3, ref.s3)
        expected = 0.5 * (ref.s_plus @ ref.s_minus + ref.s_minus @ ref.s_plus) + ref.s3 @ ref.s3
        assert same_bits(casimirs[k], expected)
        assert same_bits(one.casimir(), expected)


# ---------------------------------------------------------------------------
# drive parameters and the driven unitary
# ---------------------------------------------------------------------------


def test_drive_params_domain():
    with pytest.raises(InvalidParam):
        DriveParams(theta=0.5, d=1.5)
    with pytest.raises(InvalidParam):
        DriveParams(theta=0.5, d=2.0, hbar=0.0)
    dp = DriveParams(theta=0.5, d=GOLDEN_RATIO)
    assert dp.omega_drive == 1.0 and dp.hbar == 1.0


def test_driven_unitary_is_opposite_phase_family_member():
    # B(phi) is the off-diagonal family member at projector phases (phi, -phi).
    dp = DriveParams(theta=0.9, d=2.2)
    for phi in (0.0, 0.7, -2.4):
        direct = b_of_phi(phi, dp)
        via_family = make_r_theta(dp.theta, AlgebraParams.tla(dp.d, phi, -phi)).b
        assert rel_residual(direct, via_family) < 1e-15


def test_driven_unitary_is_unitary():
    dp = DriveParams(theta=1.3, d=1.8)
    for phi in np.linspace(0.0, 2.0 * math.pi, 9):
        b = b_of_phi(phi, dp)
        assert rel_residual(dagger(b) @ b, np.eye(3, dtype=complex)) < 1e-13


# ---------------------------------------------------------------------------
# evolution generator
# ---------------------------------------------------------------------------


def test_generator_vanishes_at_zero_angle():
    dp = DriveParams(theta=0.0, d=2.0)
    np.testing.assert_allclose(hamiltonian(0.7, dp), np.zeros((3, 3)), atol=1e-15)


def test_generator_spectrum_frozen_point():
    dp = DriveParams(theta=math.pi / 6.0, d=2.0)
    values = hermitian_eigs(hamiltonian(0.0, dp)).values
    np.testing.assert_allclose(
        values, [-LEVEL_AT_PI_SIXTH_D2, 0.0, LEVEL_AT_PI_SIXTH_D2], atol=1e-12
    )


@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("d", D_GRID)
@pytest.mark.parametrize("omega", (0.5, 1.0))
def test_generator_spectrum_matches_prediction(theta, d, omega):
    dp = DriveParams(theta=theta, d=d, omega_drive=omega)
    h = hamiltonian(1.3, dp)
    level = omega * cos_alpha(theta, d)
    predicted = np.sort([0.0, level, -level])
    np.testing.assert_allclose(hermitian_eigs(h).values, predicted, atol=1e-10)
    assert abs(np.trace(h)) < 1e-12
    assert rel_residual(h, dagger(h)) < 1e-12


def test_generator_spectrum_is_phase_independent():
    dp = DriveParams(theta=1.0, d=1.7)
    at_zero = hermitian_eigs(hamiltonian(0.0, dp)).values
    at_phi = hermitian_eigs(hamiltonian(1.3, dp)).values
    np.testing.assert_allclose(at_zero, at_phi, atol=1e-12)


def test_generator_phase_covariance():
    # H(phi) = e^{-i phi N} H(0) e^{i phi N} with N the middle-slot counter.
    dp = DriveParams(theta=0.8, d=2.0)
    n = np.diag([0.0, 1.0, 0.0]).astype(complex)
    for phi in (0.4, 1.3, -2.6):
        rot = np.diag(np.exp(-1j * phi * np.diag(n)))
        expected = rot @ hamiltonian(0.0, dp) @ dagger(rot)
        assert rel_residual(hamiltonian(phi, dp), expected) < 1e-12


def test_generator_stack_matches_scalar_route():
    dp = DriveParams(theta=1.1, d=3.0, omega_drive=0.5)
    phis = np.linspace(0.0, 2.0 * math.pi, 32)
    stack = hamiltonian_stack(phis, dp)
    assert stack.shape == (32, 3, 3)
    for k, phi in enumerate(phis):
        assert rel_residual(stack[k], hamiltonian(phi, dp)) < 1e-14


def _generator_reference(theta: float, d: float, omega: float, hbar: float, phi: float) -> np.ndarray:
    """H at one point by _hamiltonian_row's entrywise formula, kept here to pin its bits.

    Each entry of B and every factor is a one-element array, so each product
    and sum runs in numpy's array loops, as it does in the row.
    """
    b = np.exp(1j * theta) * np.eye(3, dtype=complex) - 2j * math.sin(theta) / d * make_eb(AlgebraParams.tla(d, 0.0, 0.0))
    w = np.array([hbar * omega], dtype=complex)
    up = np.exp(1j * np.array([phi]))
    down = np.conjugate(up)
    # w (n_j - n_k) B_jk(phi) for the four driven entries, n = (0, 1, 0).
    x01, x21 = (-w * b[0, 1, None]) * up, (-w * b[2, 1, None]) * up
    x10, x12 = (w * b[1, 0, None]) * down, (w * b[1, 2, None]) * down
    # conj(B_jk(phi)) for every entry.
    r = np.conjugate(b)[:, :, None]
    r01, r21, r10, r12 = r[0, 1] * down, r[2, 1] * down, r[1, 0] * up, r[1, 2] * up
    col0, col1, col2 = (r[0, 0], r10, r[2, 0]), (r01, r[1, 1], r21), (r[0, 2], r12, r[2, 2])
    h = np.empty((3, 3), dtype=complex)
    for j in range(3):
        h[0, j] = (x01 * col1[j])[0]
        h[1, j] = (x10 * col0[j] + x12 * col2[j])[0]
        h[2, j] = (x21 * col1[j])[0]
    return h


@settings(max_examples=60, deadline=None)
@given(
    thetas=ANGLE_LISTS,
    omegas=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-1e3, 1e3)), max_size=3),
    phis=st.lists(st.one_of(st.just(0.0), st.floats(-7.0, 7.0)), max_size=4),
    d=ROW_D,
    hbar=st.sampled_from([1.0, 0.5]),
)
def test_generator_row_keeps_the_bits_of_each_point(thetas, omegas, phis, d, hbar):
    row = _hamiltonian_row(thetas, omegas, _drive_factors(phis), d, hbar)
    assert row.shape == (len(thetas), len(omegas), len(phis), 3, 3)
    for i, theta in enumerate(thetas):
        for j, omega in enumerate(omegas):
            expected = np.array([_generator_reference(theta, d, omega, hbar, phi) for phi in phis]).reshape(-1, 3, 3)
            assert same_bits(row[i, j], expected)
            if phis:
                dp = DriveParams(theta=theta, d=d, omega_drive=omega, hbar=hbar)
                assert same_bits(hamiltonian_stack(phis, dp), expected)


@settings(max_examples=60, deadline=None)
@given(
    theta=st.one_of(st.sampled_from([0.0, math.pi / 2.0]), st.floats(-7.0, 7.0)),
    d=ROW_D,
    omega=st.floats(-1e3, 1e3).filter(lambda w: w != 0.0),
    phis=st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=40),
    data=st.data(),
)
def test_generator_bits_do_not_depend_on_the_stack_layout(theta, d, omega, phis, data):
    dp = DriveParams(theta=theta, d=d, omega_drive=omega)
    k = data.draw(st.integers(0, len(phis) - 1), label="k")
    stack = hamiltonian_stack(phis, dp)
    assert same_bits(stack[k], hamiltonian_stack(phis[k:], dp)[0])
    assert same_bits(stack[k], hamiltonian(phis[k], dp))


#: The unit roundoff of double precision and Higham's gamma_n = n u / (1 - n u).
UNIT_ROUNDOFF = 2.0**-53


def _gamma(n: int) -> float:
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


#: Relative error bound of one formula for H against exact arithmetic on the
#: inputs the two formulas share: f, e^{i theta}, E_B(0), hbar omega, e^{+-i phi}
#: and the five undriven entries of B, which both compute alike.  Each forms
#: H_ij = sum_k X_ik conj(B_jk) with X = i hbar dB/dt.  A driven factor X_ik
#: carries two complex products and one real scaling, a driven B_jk two complex
#: products, each product at most sqrt(2) gamma_2 (Higham, Accuracy and Stability
#: of Numerical Algorithms, 2nd ed., Lemma 3.5); the real and imaginary parts of
#: the sum over k are real dot products of length at most 6, so the product and
#: the sum add at most sqrt(2) gamma_6 (Higham (3.4)-(3.5)).
#: The product of the (1 + delta) factors minus 1, through log1p and expm1 so it does not round to a few u.
ONE_FORMULA_RTOL = math.expm1(
    4.0 * math.log1p(math.sqrt(2.0) * _gamma(2)) + math.log1p(UNIT_ROUNDOFF) + math.log1p(math.sqrt(2.0) * _gamma(6))
)


@settings(max_examples=80, deadline=None)
@given(
    theta=st.floats(-7.0, 7.0),
    d=ROW_D,
    omega=st.one_of(st.just(1.0), st.floats(-1e3, 1e3)),
    phis=st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=8),
)
def test_generator_is_within_rounding_of_the_matrix_product(theta, d, omega, phis):
    # The formula H = (i hbar dB/dt) @ B^dagger that hamiltonian_stack evaluated
    # before it was built entrywise.
    ph = np.asarray(phis)
    delta = np.subtract.outer([0.0, 1.0, 0.0], [0.0, 1.0, 0.0])
    eb = make_eb(AlgebraParams.tla(d, 0.0, 0.0))[None, :, :] * np.exp(-1j * ph[:, None, None] * delta[None, :, :])
    f = 2j * math.sin(theta) / d
    b = np.exp(1j * theta) * np.eye(3, dtype=complex)[None, :, :] - f * eb
    x = 1j * omega * (-f * (-1j * delta * eb))
    product = x @ dagger(b)
    scale = np.linalg.norm(np.abs(x) @ np.abs(dagger(b)), axis=(1, 2))
    diff = np.linalg.norm(hamiltonian_stack(ph, DriveParams(theta=theta, d=d, omega_drive=omega)) - product, axis=(1, 2))
    assert np.all(diff <= 2.0 * ONE_FORMULA_RTOL * scale)


def test_generator_drives_the_unitary():
    # Central finite difference of B(t) against the analytic generator:
    # dB/dt = -(i/hbar) H B with phi = omega t.
    dp = DriveParams(theta=0.9, d=2.0, omega_drive=1.7)
    t, h_step = 0.6, 1e-6
    phi = dp.omega_drive * t
    db_num = (b_of_phi(dp.omega_drive * (t + h_step), dp) - b_of_phi(dp.omega_drive * (t - h_step), dp)) / (
        2.0 * h_step
    )
    db_analytic = (-1j / dp.hbar) * hamiltonian(phi, dp) @ b_of_phi(phi, dp)
    assert frobenius(db_num - db_analytic) < 1e-8


def test_generator_rejects_bad_phase_input():
    dp = DriveParams(theta=0.5, d=2.0)
    with pytest.raises(InvalidParam):
        hamiltonian(float("nan"), dp)
    with pytest.raises(InvalidParam):
        hamiltonian_stack(np.zeros((2, 2)), dp)
    with pytest.raises(InvalidParam, match="drive phases must be finite"):
        hamiltonian_stack([0.0, float("nan")], dp)


# ---------------------------------------------------------------------------
# polar cosine and decomposition
# ---------------------------------------------------------------------------


def test_polar_cosine_values():
    assert cos_alpha(0.77, 1.0) == 0.0
    assert cos_alpha(math.pi / 2.0, math.sqrt(2.0)) == pytest.approx(1.0, abs=1e-15)
    assert cos_alpha(math.pi / 3.0, 2.0) == pytest.approx(0.75, abs=1e-15)


def test_polar_cosine_domain():
    with pytest.raises(InvalidParam):
        cos_alpha(0.5, 0.99)


@settings(max_examples=80, deadline=None)
@given(
    theta=st.floats(min_value=-10.0, max_value=10.0),
    d=st.floats(min_value=1.0, max_value=1e6),
)
def test_property_polar_cosine_bounded(theta, d):
    assert abs(cos_alpha(theta, d)) <= 1.0 + 1e-15


@pytest.mark.parametrize("phi", (0.0, 2.1))
def test_decomposition_residual_small(phi):
    dp = DriveParams(theta=0.5, d=2.0)
    assert decomposition_residual(phi, dp) < 1e-10


def test_decomposition_residual_zero_angle():
    dp = DriveParams(theta=0.0, d=2.0)
    assert decomposition_residual(0.3, dp) == 0.0


@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("d", D_GRID)
@pytest.mark.parametrize("phi", (0.0, 1.3))
def test_decomposition_residual_on_grid(theta, d, phi):
    dp = DriveParams(theta=theta, d=d, omega_drive=0.5)
    assert decomposition_residual(phi, dp) < 1e-10
