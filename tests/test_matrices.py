"""Tests for the fixed-size 3x3 linear-algebra substrate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwmberry import (
    AlgebraParams,
    EigenSystem,
    InvalidParam,
    NotHermitian,
    SingularMatrix,
    SpectralParams,
    berry_closed,
    cos_alpha,
    dagger,
    hermitian_eigs,
    inverse,
    ladder_ops,
    make_a,
    make_b,
    make_eb,
    make_u,
    rel_residual,
    z_of_u,
)
from bwmberry.berry import figure_table
from bwmberry.matrices import PHASE_FIX_CUTOFF, _fix_phases, as_matrix3, as_real, det3, frobenius

RNG = np.random.default_rng(1234)


def random_complex_matrix(rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))


def random_hermitian(rng: np.random.Generator) -> np.ndarray:
    m = random_complex_matrix(rng)
    return (m + m.conj().T) / 2.0


# ---------------------------------------------------------------------------
# scalar / shape validation
# ---------------------------------------------------------------------------


def test_as_real_accepts_ints_and_floats():
    assert as_real("x", 2) == 2.0
    assert as_real("x", -0.5) == -0.5


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1 + 1j, "1.0", True, None])
def test_as_real_rejects_nonfinite_and_nonreal(bad):
    with pytest.raises(InvalidParam):
        as_real("x", bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_a(AlgebraParams.coupled(1e-200)),  # d ~ 1/q: d * d, before q ** -2
        lambda: AlgebraParams.coupled(1e-200).sigma,  # d ~ 1/q: d * d, before q ** -2
        lambda: make_b(AlgebraParams.coupled(1e100)),  # q ** 4
        lambda: make_b(AlgebraParams.coupled(1e-100)),  # q ** 4 underflows to 0 in a denominator
        lambda: ladder_ops(0.3, 1e100),  # d ** 4
        lambda: cos_alpha(0.3, 1e200),  # d ** 2
        lambda: berry_closed(0.3, 1e200),  # d ** 2
        lambda: figure_table([0.3], [2.0, 1e200]),  # d ** 2
        lambda: z_of_u(0.5, SpectralParams(u=0.5, v=0.1, beta=1e200, epsilon=1, d=1.7)),  # beta ** 2
        lambda: inverse(np.diag([1e-60, 1e120, -1e60])),  # ||m||_F ** 3
        lambda: AlgebraParams.tla(1e200),  # d * d
    ],
    ids=[
        "make_a",
        "sigma",
        "make_b",
        "make_b_underflow",
        "ladder_ops",
        "cos_alpha",
        "berry_closed",
        "figure_table",
        "z_of_u",
        "inverse",
        "algebra_params",
    ],
)
def test_overflowing_parameters_raise_invalid_param(call):
    with pytest.raises(InvalidParam, match="overflows double precision"):
        call()


def test_as_matrix3_rejects_wrong_shape():
    with pytest.raises(InvalidParam):
        as_matrix3(np.eye(2))
    with pytest.raises(InvalidParam):
        as_matrix3(np.zeros((3, 3, 3)))


def test_as_matrix3_rejects_nonfinite_entries():
    m = np.eye(3, dtype=complex)
    m[1, 2] = np.nan
    with pytest.raises(InvalidParam):
        as_matrix3(m)


# ---------------------------------------------------------------------------
# dagger / norms / residual metric
# ---------------------------------------------------------------------------


def test_dagger_is_conjugate_transpose():
    m = random_complex_matrix(np.random.default_rng(7))
    np.testing.assert_allclose(dagger(m), m.conj().T)


def test_dagger_acts_on_stacks():
    stack = np.stack([random_complex_matrix(RNG) for _ in range(4)])
    out = dagger(stack)
    assert out.shape == stack.shape
    for k in range(4):
        np.testing.assert_allclose(out[k], stack[k].conj().T)


def test_rel_residual_identical_inputs_is_zero():
    m = random_complex_matrix(np.random.default_rng(3))
    assert rel_residual(m, m) == 0.0


def test_rel_residual_identity_vs_zero_is_one():
    # ||I - 0||_F = sqrt(3) and the denominator max(1, sqrt(3), 0) = sqrt(3).
    assert rel_residual(np.eye(3), np.zeros((3, 3))) == pytest.approx(1.0, abs=1e-15)


def test_rel_residual_symmetric_and_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b = random_complex_matrix(rng), random_complex_matrix(rng)
        r_ab = rel_residual(a, b)
        r_ba = rel_residual(b, a)
        assert r_ab == pytest.approx(r_ba, rel=1e-15)
        assert r_ab >= 0.0


def test_rel_residual_braid_sides_agree():
    p = AlgebraParams.coupled(0.9, 0.2, -0.5)
    a, b = make_a(p), make_b(p)
    assert rel_residual(a @ b @ a, b @ a @ b) < 1e-12


# ---------------------------------------------------------------------------
# determinant / inverse
# ---------------------------------------------------------------------------


def test_det3_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = random_complex_matrix(rng)
        assert det3(m) == pytest.approx(np.linalg.det(m), rel=1e-12)


def test_inverse_of_identity_is_identity():
    np.testing.assert_allclose(inverse(np.eye(3)), np.eye(3))


def test_inverse_diagonal_reciprocals():
    # q = 2 diagonal (q, 1/q^2, -1/q) inverts entrywise.
    m = np.diag([2.0, 0.25, -0.5]).astype(complex)
    np.testing.assert_allclose(inverse(m), np.diag([0.5, 4.0, -2.0]), atol=1e-15)


def test_inverse_of_basis_change_is_its_adjoint():
    u = make_u(AlgebraParams.tla(1.8, 0.3, -0.7))
    assert rel_residual(inverse(u), dagger(u)) < 1e-12


def test_inverse_roundtrip_is_identity():
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = random_complex_matrix(rng)
        if abs(det3(m)) <= 1e-8:
            continue
        assert rel_residual(inverse(inverse(m)), m) < 1e-12


def test_inverse_times_input_is_identity():
    rng = np.random.default_rng(23)
    m = random_complex_matrix(rng)
    assert rel_residual(m @ inverse(m), np.eye(3, dtype=complex)) < 1e-12


@pytest.mark.parametrize(
    "singular",
    [
        np.zeros((3, 3)),
        np.diag([1.0, 1.0, 0.0]),
        np.ones((3, 3)),  # rank 1
    ],
)
def test_inverse_rejects_singular_input(singular):
    with pytest.raises(SingularMatrix):
        inverse(singular)


def test_inverse_singularity_guard_is_scale_aware():
    # A huge well-conditioned matrix must not be misclassified as singular.
    m = 1e8 * np.eye(3)
    np.testing.assert_allclose(inverse(m), 1e-8 * np.eye(3))


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition
# ---------------------------------------------------------------------------


def test_hermitian_eigs_diagonal_projector():
    sys = hermitian_eigs(np.diag([0.0, 2.0, 0.0]))
    np.testing.assert_allclose(sys.values, [0.0, 0.0, 2.0], atol=1e-15)


def test_hermitian_eigs_projector_spectrum():
    # The off-diagonal projector is rank 1 with square d * itself, so its
    # spectrum is {0, 0, d}.
    eb = make_eb(AlgebraParams.tla(1.8, 0.4, 1.1))
    sys = hermitian_eigs(eb)
    np.testing.assert_allclose(sys.values, [0.0, 0.0, 1.8], atol=1e-12)


def test_hermitian_eigs_casimir_spectrum():
    trip = ladder_ops(0.5, 2.0)
    casimir = 0.5 * (trip.s_plus @ trip.s_minus + trip.s_minus @ trip.s_plus) + trip.s3 @ trip.s3
    sys = hermitian_eigs(casimir)
    np.testing.assert_allclose(sys.values, [0.0, 0.75, 0.75], atol=1e-12)


def test_hermitian_eigs_rejects_non_hermitian():
    m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(NotHermitian):
        hermitian_eigs(m)


def test_hermitian_eigs_returns_eigensystem_type():
    assert isinstance(hermitian_eigs(np.eye(3)), EigenSystem)


def test_hermitian_eigs_values_ascending_and_vectors_orthonormal():
    rng = np.random.default_rng(29)
    for _ in range(20):
        m = random_hermitian(rng)
        sys = hermitian_eigs(m)
        assert np.all(np.diff(sys.values) >= -1e-14)
        gram = dagger(sys.vectors) @ sys.vectors
        assert rel_residual(gram, np.eye(3, dtype=complex)) < 1e-12


def test_hermitian_eigs_reconstructs_input():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = random_hermitian(rng)
        sys = hermitian_eigs(m)
        rebuilt = sys.vectors @ np.diag(sys.values) @ dagger(sys.vectors)
        assert frobenius(m @ sys.vectors - sys.vectors @ np.diag(sys.values)) < 1e-12
        assert rel_residual(rebuilt, m) < 1e-12


def test_hermitian_eigs_deterministic_phase_convention():
    m = random_hermitian(np.random.default_rng(37))
    first = hermitian_eigs(m)
    second = hermitian_eigs(m.copy())
    np.testing.assert_array_equal(first.values, second.values)
    np.testing.assert_array_equal(first.vectors, second.vectors)
    # Anchor component (first significant entry of each column) is real positive.
    for k in range(3):
        col = first.vectors[:, k]
        anchor = next(x for x in col if abs(x) > 1e-12)
        assert anchor.imag == pytest.approx(0.0, abs=1e-14)
        assert anchor.real > 0.0


def test_trace_and_determinant_invariant_under_basis_change():
    u = make_u(AlgebraParams.tla(2.0, 0.7, -0.2))
    m = random_complex_matrix(np.random.default_rng(41))
    conjugated = u @ m @ inverse(u)
    assert np.trace(conjugated) == pytest.approx(np.trace(m), rel=1e-12, abs=1e-12)
    assert det3(conjugated) == pytest.approx(det3(m), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# property-based coverage
# ---------------------------------------------------------------------------

finite_entries = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(st.lists(finite_entries, min_size=18, max_size=18), st.integers(0, 2**31 - 1))
def test_property_eigh_reconstruction(entries, _seed):
    raw = np.array(entries[:9]).reshape(3, 3) + 1j * np.array(entries[9:]).reshape(3, 3)
    m = (raw + raw.conj().T) / 2.0
    sys = hermitian_eigs(m)
    assert frobenius(m @ sys.vectors - sys.vectors @ np.diag(sys.values)) < 1e-12


@pytest.mark.parametrize("shape", [(0, 3, 3), (5, 3, 3), (2, 4, 3, 3)])
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_eigh_stack_equals_per_matrix_calls(shape, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    stack = (raw + dagger(raw)) / 2.0
    sys = hermitian_eigs(stack)
    assert sys.values.shape == shape[:-1]
    assert sys.vectors.shape == shape
    for index in np.ndindex(shape[:-2]):
        single = hermitian_eigs(stack[index])
        assert np.array_equal(sys.values[index], single.values)
        assert np.array_equal(sys.vectors[index], single.vectors)


def test_phase_fix_equals_column_by_column_rotation():
    # The vectorised phase fix must give the bits of rotating each column by
    # the conjugate phase of its first significant entry, one at a time.
    def reference(vectors):
        out = np.array(vectors, dtype=complex, copy=True)
        for k in range(3):
            col = out[:, k]
            anchor = next((x for x in col if abs(x) > PHASE_FIX_CUTOFF), None)
            if anchor is not None:
                col *= np.conjugate(anchor) / abs(anchor)
        return out

    rng = np.random.default_rng(43)
    cases = [np.linalg.eigh(random_hermitian(rng))[1] for _ in range(200)]
    cases += [np.linalg.eigh(np.diag([0.0, 2.0, 0.0]))[1], np.diag([1e-13, -1.0, 0.0]).astype(complex)]
    for vectors in cases:
        assert np.array_equal(_fix_phases(vectors), reference(vectors))
    stacked = _fix_phases(np.stack(cases))
    assert all(np.array_equal(got, reference(v)) for got, v in zip(stacked, cases))


def test_hermitian_eigs_stack_rejects_one_non_hermitian_member():
    stack = np.stack([random_hermitian(RNG) for _ in range(4)])
    stack[2, 0, 1] += 1e-3
    with pytest.raises(NotHermitian, match=r"stack index \(2,\)"):
        hermitian_eigs(stack)


@pytest.mark.parametrize("shape", [(3,), (4, 4), (2, 3, 4), (2, 4, 3)])
def test_hermitian_eigs_rejects_trailing_shape_other_than_3x3(shape):
    with pytest.raises(InvalidParam):
        hermitian_eigs(np.zeros(shape))


@settings(max_examples=50, deadline=None)
@given(st.lists(finite_entries, min_size=18, max_size=18))
def test_property_inverse_roundtrip(entries):
    m = np.array(entries[:9]).reshape(3, 3) + 1j * np.array(entries[9:]).reshape(3, 3)
    if abs(det3(m)) <= 1e-6:
        return
    assert rel_residual(m @ inverse(m), np.eye(3, dtype=complex)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-math.pi, max_value=math.pi), st.floats(min_value=-math.pi, max_value=math.pi))
def test_property_basis_change_stays_unitary(phi1, phi2):
    u = make_u(AlgebraParams.tla(2.0, phi1, phi2))
    assert rel_residual(dagger(u) @ u, np.eye(3, dtype=complex)) < 1e-13
