"""Tests for the fixed-size 3x3 linear-algebra substrate."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bwmberry import (
    AlgebraParams,
    DriveParams,
    EigenSystem,
    InvalidParam,
    NotHermitian,
    SingularMatrix,
    SpectralParams,
    berry_closed,
    cos_alpha,
    dagger,
    hamiltonian_stack,
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
from bwmberry.matrices import (
    CLOSED_FORM_GAP_RTOL,
    PHASE_FIX_CUTOFF,
    _closed_form_eigh,
    _fix_phases,
    as_matrix3,
    as_real,
    det3,
    frobenius,
)

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
        lambda: inverse(make_a(AlgebraParams.coupled(1e-80))),  # ||A||_F = 1e160 is finite, its cube is not
        lambda: AlgebraParams.tla(1e200),  # d * d
        lambda: frobenius(np.full((3, 3), 1e308)),  # the norm itself, 3e308
        lambda: rel_residual(np.full((3, 3), 1.5e308), np.full((3, 3), -1.5e308)),  # lhs - rhs
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
        "inverse_cube",
        "algebra_params",
        "frobenius",
        "rel_residual_difference",
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


def reference_norm(m) -> float:
    """``np.linalg.norm(m)``, except where its sum of squares underflows (a norm below 2^-511).

    There it is the norm of m scaled by the power of two that brings its
    largest entry into [0.5, 1), scaled back.
    """
    norm = float(np.linalg.norm(m))
    if norm >= 2.0 ** -511:
        return norm
    m = np.asarray(m, dtype=complex)
    k = math.frexp(float(max(np.max(np.abs(m.real)), np.max(np.abs(m.imag)))))[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(m.real, -k) + 1j * np.ldexp(m.imag, -k))), k)


def reference_rel_residual(a, b) -> float:
    """The residual as defined before it took stacks: one ``np.linalg.norm`` per matrix, see ``reference_norm``."""
    return reference_norm(a - b) / max(1.0, reference_norm(a), reference_norm(b))


# Entries from 1e-150 to 1e150 in magnitude, and zeros: no sum of squares overflows.
wide_entries = st.builds(
    lambda mantissa, exponent: mantissa * 10.0 ** exponent,
    st.floats(-1.0, 1.0, allow_nan=False),
    st.integers(-150, 149),
)
wide_matrices = st.one_of(
    st.just(np.zeros((3, 3), dtype=complex)),
    st.lists(wide_entries, min_size=18, max_size=18).map(
        lambda e: np.array(e[:9]).reshape(3, 3) + 1j * np.array(e[9:]).reshape(3, 3)
    ),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(wide_matrices, wide_matrices, st.booleans()), max_size=6), st.booleans())
def test_property_stacked_rel_residual_is_bit_equal_to_per_matrix(pairs, single):
    # ``near`` compares a matrix with a copy perturbed in its last bits.
    pairs = [(a, np.nextafter(a.real, np.inf) + 1j * a.imag if near else b) for a, b, near in pairs]
    if single:
        pairs = pairs[:1] or [(np.zeros((3, 3)), np.eye(3))]
        got = rel_residual(*pairs[0])
        assert isinstance(got, float)
        assert got == reference_rel_residual(*pairs[0])
        return
    lhs = np.array([a for a, _ in pairs], dtype=complex).reshape(-1, 3, 3)
    rhs = np.array([b for _, b in pairs], dtype=complex).reshape(-1, 3, 3)
    got = rel_residual(lhs, rhs)
    assert got.shape == (len(pairs),)
    assert got.tolist() == [reference_rel_residual(a, b) for a, b in pairs]
    # A stack against one matrix compares each matrix of the stack with it.
    assert rel_residual(lhs, np.eye(3)).tolist() == [reference_rel_residual(a, np.eye(3)) for a, _ in pairs]


def test_norms_that_overflow_when_squared_are_right():
    # Entries of 1e200 square to inf; the norm of the matrix does not.
    big = np.full((3, 3), 1e200) * (1.0 + 1j)
    assert frobenius(big) == pytest.approx(math.sqrt(18.0) * 1e200, rel=1e-15)
    assert frobenius(np.stack([big, np.eye(3)])) == pytest.approx([math.sqrt(18.0) * 1e200, math.sqrt(3.0)], rel=1e-15)
    assert rel_residual(big, big * (1.0 + 2.0 ** -20)) == pytest.approx(2.0 ** -20 / (1.0 + 2.0 ** -20), rel=1e-12)
    # E_B at d = 1e100 squares to entries ~1e200: E_B^2 = d E_B must not read 0 by division by inf.
    p = AlgebraParams.tla(1e100, 0.3, -0.4)
    eb = make_eb(p)
    assert rel_residual(eb @ eb, p.d * eb) < 1e-12
    assert rel_residual(eb @ eb, 1.001 * p.d * eb) == pytest.approx(0.001 / 1.001, rel=1e-9)
    # A non-Hermitian matrix whose norm overflows when squared is still refused.
    m = np.zeros((3, 3))
    m[0, 1] = 1e200
    with pytest.raises(NotHermitian, match="defect 1.414e[+]200"):
        hermitian_eigs(m)
    np.testing.assert_allclose(hermitian_eigs(m + m.T).values, [-1e200, 0.0, 1e200], rtol=1e-15)


def test_norms_that_underflow_when_squared_are_right():
    # Entries of 8.87e-284 square to 0, and entries of 1e-160 to subnormals
    # short of bits; the norms of these nonzero matrices are neither.
    tiny = np.zeros((3, 3))
    tiny[1, 2] = tiny[2, 1] = 8.86960696e-284
    assert np.linalg.norm(tiny) == 0.0
    assert frobenius(tiny) == pytest.approx(math.sqrt(2.0) * 8.86960696e-284, rel=1e-15)
    small = np.full((3, 3), 1e-160) * (1.0 + 1j)
    assert frobenius(small) == pytest.approx(math.sqrt(18.0) * 1e-160, rel=1e-15)
    assert frobenius(np.full((3, 3), 5e-324)) == 3 * 5e-324  # 3 * 2^-1074, exactly
    # In a stack only those matrices are redone: zero stays 0, the rest keep np.linalg.norm's bits.
    m = random_complex_matrix(np.random.default_rng(5))
    norms = frobenius(np.stack([tiny, m, np.zeros((3, 3)), small, m * 1e-150]))
    assert norms[[0, 3]].tolist() == [frobenius(tiny), frobenius(small)]
    assert norms[[1, 2, 4]].tolist() == [np.linalg.norm(m), 0.0, np.linalg.norm(m * 1e-150)]
    both = frobenius(np.stack([np.full((3, 3), 1e200), tiny]))
    assert both.tolist() == pytest.approx([3e200, math.sqrt(2.0) * 8.86960696e-284], rel=1e-15)
    # A difference of such entries does not read as residual 0.
    assert rel_residual(tiny, 2.0 * tiny) == pytest.approx(math.sqrt(2.0) * 8.86960696e-284, rel=1e-15)


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


def test_inverse_singularity_detail_states_the_guard():
    # The braid generator at q = 1e-3 is exactly invertible, yet its |det| is
    # 1e-12 of ||m||_F^3; the detail must say what was compared, not that the
    # matrix is singular.
    with pytest.raises(SingularMatrix) as info:
        inverse(np.diag([1e-3, 1e6, -1e3]))
    assert str(info.value) == (
        "determinant too small for the matrix scale: |det| = 1.000e+06 <= 1e-12 * max(1, ||m||_F^3) = 1.000e+06"
    )


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


# ---------------------------------------------------------------------------
# closed-form eigensolver of the Berry loop
# ---------------------------------------------------------------------------

UNIT_ROUNDOFF = np.finfo(float).eps / 2.0

# The closed form errs by about K u ||H||_F / g in its eigenvalues and
# eigen-residuals and by K u / g^2 in orthonormality, where g is the smallest
# relative gap (see CLOSED_FORM_GAP_RTOL); every matrix it keeps has
# g > CLOSED_FORM_GAP_RTOL, and the rest get eigh's output.  K = 16 covers
# the dozen or so rounded operations behind each quantity.
VALUE_BOUND = 16.0 / CLOSED_FORM_GAP_RTOL
ORTHONORMAL_BOUND = 16.0 / CLOSED_FORM_GAP_RTOL ** 2

# Hermitian matrices from random entries (scaled by 10^-150 .. 10^149) and
# from the wide entries above, which reach over 300 decades in one matrix.
hermitian_matrices = st.one_of(
    wide_matrices,
    st.builds(
        lambda seed, exponent: random_complex_matrix(np.random.default_rng(seed)) * 10.0 ** exponent,
        st.integers(0, 2**32 - 1),
        st.integers(-150, 149),
    ),
).map(lambda m: (m + dagger(m)) / 2.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(hermitian_matrices, min_size=1, max_size=6))
# Eigenvalues -5, 0 and 5 to double precision; LAPACK's values-only driver
# (np.linalg.eigvalsh) returns +-4.99999984 here, so the reference is eigh's.
@example([np.array([[9.04569224e-169, 0.0, 5j], [0.0, 0.0, 1.73293318e-138], [-5j, 1.73293318e-138, 1.97915637e-118]])])
def test_property_closed_form_eigh_is_an_eigensystem(matrices):
    stack = np.array(matrices, dtype=complex)
    values, vectors = _closed_form_eigh(stack)
    scale = UNIT_ROUNDOFF * frobenius(stack)[:, None]
    assert np.all(np.abs(values - np.linalg.eigh(stack)[0]) <= VALUE_BOUND * scale)
    residual = np.linalg.norm(stack @ vectors - vectors * values[:, None, :], axis=1)
    assert np.all(residual <= VALUE_BOUND * scale)
    gram = dagger(vectors) @ vectors
    assert np.all(np.abs(gram - np.eye(3)) <= ORTHONORMAL_BOUND * UNIT_ROUNDOFF)


def test_closed_form_eigh_sends_degenerate_matrices_to_eigh(monkeypatch):
    # The rotated diag(0, 0.1, 1) has relative gap 0.1 / ||H||_F ~ 0.0995,
    # below CLOSED_FORM_GAP_RTOL = 0.125 though its cross products are large;
    # the rotated diag(0, 0.15, 1) at the end of the stack has ~0.148 and is kept.
    u = make_u(AlgebraParams.tla(2.0, 0.4, -1.1))
    spectra = ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [0.0, 1e-9, 1.0])
    degenerate = np.array([np.diag(s) for s in spectra] + [u @ np.diag([0.0, 0.1, 1.0]) @ dagger(u)], dtype=complex)
    loop_matrix = hamiltonian_stack([0.3], DriveParams(0.7, 2.0))[0]
    stack = np.array([loop_matrix, *degenerate, u @ np.diag([0.0, 0.15, 1.0]) @ dagger(u)])
    seen = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    values, vectors = _closed_form_eigh(stack)
    monkeypatch.undo()
    assert len(seen) == 1 and np.array_equal(seen[0], degenerate)
    for k, m in enumerate(degenerate, start=1):
        want_values, want_vectors = np.linalg.eigh(m)
        assert np.array_equal(values[k], want_values)
        assert np.array_equal(vectors[k], want_vectors)
    all_degenerate = _closed_form_eigh(degenerate)
    assert all(np.array_equal(got, want) for got, want in zip(all_degenerate, np.linalg.eigh(degenerate)))


def test_closed_form_eigh_reads_the_lower_triangle_only():
    h = hamiltonian_stack(np.linspace(0.0, 6.0, 7), DriveParams(1.2, 3.0))
    garbled = h.copy()
    garbled[:, 0, 1] = 7.0 - 2j
    garbled[:, 1, 2] = -3.0
    garbled[:, 0, 2] = 1j
    garbled[:, [0, 1, 2], [0, 1, 2]] += 5j
    for got, want in zip(_closed_form_eigh(garbled), _closed_form_eigh(h)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("exponent", (-700, 700))
def test_closed_form_eigh_is_exact_under_power_of_two_scaling(exponent):
    # Each matrix is divided by its largest |entry| first, so scaling by a
    # power of two scales the eigenvalues exactly and leaves the vectors' bits.
    h = hamiltonian_stack(np.linspace(0.0, 6.0, 7), DriveParams(0.7, 2.0))
    values, vectors = _closed_form_eigh(h)
    scaled_values, scaled_vectors = _closed_form_eigh(np.ldexp(h.real, exponent) + 1j * np.ldexp(h.imag, exponent))
    assert np.array_equal(scaled_vectors, vectors)
    assert np.array_equal(scaled_values, np.ldexp(values, exponent))
