"""Tests for the two-generator representation and its relation suites."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bwmberry import (
    GOLDEN_RATIO,
    AlgebraParams,
    InvalidParam,
    RelationReport,
    check_braid,
    check_bwm_suite,
    check_tla,
    d_of_q,
    d_topological,
    dagger,
    hermitian_eigs,
    inverse,
    make_a,
    make_b,
    make_ea,
    make_eb,
    make_u,
    rel_residual,
)
from bwmberry import algebra, cli

# Names of every identity line the full suite must report, in order.
SUITE_LINES = (
    "skein_a",
    "skein_b",
    "braid",
    "sandwich_a",
    "sandwich_b",
    "eigen_a_left",
    "eigen_a_right",
    "eigen_b_left",
    "eigen_b_right",
    "slide_ab",
    "absorb_ab",
    "slide_ba",
    "absorb_ba",
    "conjugate_a",
    "conjugate_b",
    "project_right_a",
    "project_right_b",
    "project_left_a",
    "project_left_b",
    "cross_eigen_a",
    "cross_eigen_b",
    "square_a",
    "square_b",
)

PHASE_PAIRS = [(0.0, 0.0), (0.3, -0.7), (1.2, 2.5), (-2.9, 0.4), (3.1, -3.1)]


# ---------------------------------------------------------------------------
# parameter maps and validation
# ---------------------------------------------------------------------------


def test_d_of_q_values():
    assert d_of_q(2.0) == pytest.approx(3.5)
    assert d_of_q(1.0) == pytest.approx(3.0)
    assert d_of_q(0.5) == pytest.approx(3.5)  # symmetric under q -> 1/q


def test_d_of_q_rejects_zero():
    with pytest.raises(InvalidParam):
        d_of_q(0.0)


def test_d_topological_matches_coupled_value():
    q = 2.0
    omega = q - 1.0 / q
    sigma = q**-2
    assert d_topological(omega, sigma) == pytest.approx(d_of_q(q), rel=1e-14)


@pytest.mark.parametrize("q", [1.0 + 1e-6, 1.0 - 1e-6])
def test_d_topological_near_degenerate_limit(q):
    # The quotient form tends to the coupled value 3 as q -> 1.
    omega = q - 1.0 / q
    sigma = q**-2
    assert abs(d_topological(omega, sigma) - 3.0) < 1e-5


def test_d_topological_rejects_zero_omega():
    with pytest.raises(InvalidParam):
        d_topological(0.0, 0.25)


def test_d_topological_rejects_zero_sigma():
    with pytest.raises(InvalidParam, match="sigma must be nonzero"):
        d_topological(1.0, 0.0)


def test_coupled_params_store_consistent_d():
    p = AlgebraParams.coupled(2.0, 0.1, -0.2)
    assert p.coupled_mode
    assert p.d == pytest.approx(3.5)
    assert p.omega_skein == pytest.approx(1.5)
    assert p.sigma == pytest.approx(0.25)


@pytest.mark.parametrize("q", [0.0, -1.0, -0.3])
def test_coupled_params_need_positive_q(q):
    with pytest.raises(InvalidParam):
        AlgebraParams.coupled(q)


def test_params_reject_inconsistent_q_d_pair():
    with pytest.raises(InvalidParam):
        AlgebraParams(d=3.0, q=2.0)  # d_of_q(2) = 3.5


def test_tla_params_reject_sub_golden_d():
    with pytest.raises(InvalidParam):
        AlgebraParams.tla(1.5)
    with pytest.raises(InvalidParam):
        AlgebraParams.tla(1.0)


def test_tla_params_accept_golden_boundary():
    # The projector root sqrt(d^2 - d - 1) vanishes exactly at the boundary;
    # float rounding may push the radicand a hair negative, which must clamp.
    p = AlgebraParams.tla(GOLDEN_RATIO, 0.4, 1.1)
    eb = make_eb(p)
    assert np.all(np.isfinite(eb))


def test_tla_mode_has_no_skein_parameters():
    p = AlgebraParams.tla(2.0)
    assert not p.coupled_mode
    with pytest.raises(InvalidParam):
        _ = p.omega_skein
    with pytest.raises(InvalidParam):
        _ = p.sigma


# ---------------------------------------------------------------------------
# constructed matrices
# ---------------------------------------------------------------------------


def test_diagonal_projector_shape():
    p = AlgebraParams.tla(2.0)
    np.testing.assert_allclose(make_ea(p), np.diag([0.0, 2.0, 0.0]))


def test_offdiagonal_projector_entries_at_d_two():
    eb = make_eb(AlgebraParams.tla(2.0))
    assert eb[0, 0] == pytest.approx(0.5)
    assert eb[0, 2] == pytest.approx(-1.0 / math.sqrt(2.0))


def test_offdiagonal_projector_trace_is_d():
    for d in (GOLDEN_RATIO, 1.8, 2.0, 3.0, 5.0):
        eb = make_eb(AlgebraParams.tla(d, 0.9, -0.4))
        assert np.trace(eb).real == pytest.approx(d, rel=1e-14)
        assert np.trace(eb).imag == pytest.approx(0.0, abs=1e-14)


def test_offdiagonal_projector_at_golden_boundary():
    # At the boundary the first row/column vanish and the lower block becomes
    # the rank-1 projector [[1/d, -e^{i phi2}/sqrt(d)], [-e^{-i phi2}/sqrt(d), 1]].
    d, phi2 = GOLDEN_RATIO, 1.1
    eb = make_eb(AlgebraParams.tla(d, 0.4, phi2))
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 1] = 1.0 / d
    expected[1, 2] = -np.exp(1j * phi2) / math.sqrt(d)
    expected[2, 1] = -np.exp(-1j * phi2) / math.sqrt(d)
    expected[2, 2] = 1.0
    assert rel_residual(eb, expected) < 1e-14


def test_offdiagonal_projector_is_hermitian():
    eb = make_eb(AlgebraParams.tla(2.4, 1.3, -0.8))
    assert rel_residual(eb, dagger(eb)) < 1e-15


def test_projector_spectrum_is_rank_one():
    eb = make_eb(AlgebraParams.tla(3.0, 0.2, 0.9))
    np.testing.assert_allclose(hermitian_eigs(eb).values, [0.0, 0.0, 3.0], atol=1e-13)


def test_basis_change_entries_at_d_two():
    u = make_u(AlgebraParams.tla(2.0))
    assert u[0, 0] == pytest.approx(0.5)
    assert u[2, 2] == pytest.approx(0.0, abs=1e-15)


def test_basis_change_is_unitary():
    for phi1, phi2 in PHASE_PAIRS:
        u = make_u(AlgebraParams.tla(2.0, phi1, phi2))
        assert rel_residual(dagger(u) @ u, np.eye(3, dtype=complex)) < 1e-13


def test_braid_generator_diag():
    p = AlgebraParams.coupled(2.0)
    np.testing.assert_allclose(make_a(p), np.diag([2.0, 0.25, -0.5]).astype(complex))


def test_braid_generator_needs_coupled_mode():
    with pytest.raises(InvalidParam):
        make_a(AlgebraParams.tla(2.0))
    with pytest.raises(InvalidParam):
        make_b(AlgebraParams.tla(2.0))


def test_conjugated_braid_entries_at_q_one():
    b = make_b(AlgebraParams.coupled(1.0))
    assert b[0, 0] == pytest.approx(1.0 / 6.0)
    assert b[2, 2] == pytest.approx(0.5)


def test_braid_pair_related_by_basis_change():
    p = AlgebraParams.coupled(1.3, 0.6, -1.9)
    u = make_u(p)
    assert rel_residual(make_b(p), u @ make_a(p) @ inverse(u)) < 1e-13
    assert rel_residual(make_eb(p), u @ make_ea(p) @ inverse(u)) < 1e-13


def test_braid_pair_share_spectrum():
    # Similar matrices: eigenvalue multisets must coincide.
    p = AlgebraParams.coupled(0.7, 1.0, 0.3)
    spec_a = np.sort_complex(np.linalg.eigvals(make_a(p)))
    spec_b = np.sort_complex(np.linalg.eigvals(make_b(p)))
    np.testing.assert_allclose(spec_a, spec_b, atol=1e-12)


def test_braid_eigenvalue_on_projector_slot():
    # The diagonal generator carries sigma = q^-2 on the middle slot, the
    # same slot where the diagonal projector lives.
    p = AlgebraParams.coupled(2.0)
    assert make_a(p)[1, 1] == pytest.approx(p.sigma)


# ---------------------------------------------------------------------------
# relation suites
# ---------------------------------------------------------------------------


def test_tla_suite_zero_matrices_pass_trivially():
    report = check_tla(np.zeros((3, 3)), np.zeros((3, 3)), 2.0)
    assert report.all_pass
    assert report.worst == 0.0


def test_tla_suite_flags_broken_pair():
    # Both projectors equal: the sandwich identity E E E = d^2 E != E fails.
    # At d = 2 the defined metric gives ||3 E|| / max(1, ||4 E||, ||E||) = 3/4.
    ea = np.diag([0.0, 2.0, 0.0])
    report = check_tla(ea, ea, 2.0)
    assert not report.all_pass
    assert report.residual("sandwich_a") == pytest.approx(0.75)
    assert "sandwich_a" in report.failures()


@pytest.mark.parametrize("d", [GOLDEN_RATIO, 1.8, 2.0, 3.0, 5.0])
@pytest.mark.parametrize("phases", PHASE_PAIRS)
def test_tla_suite_passes_on_grid(d, phases):
    p = AlgebraParams.tla(d, *phases)
    report = check_tla(make_ea(p), make_eb(p), d, tolerance=1e-12)
    assert report.all_pass, report.failures()


def test_library_checks_default_to_the_command_line_verdicts():
    # One verdict: check_tla grades at EXACT_TOL, as the tla.* lines do, and the
    # suite and the braid check at RELATION_TOL, as the bwm.* suite lines do.
    p = AlgebraParams.coupled(2.0, 0.5, -1.2)
    assert (algebra.EXACT_TOL, algebra.RELATION_TOL) == (cli.EXACT_TOL, cli.RELATION_TOL) == (1e-12, 1e-10)
    assert check_tla(make_ea(p), make_eb(p), p.d).tolerance == cli.EXACT_TOL
    assert check_bwm_suite(p).tolerance == check_braid(make_a(p), make_b(p)).tolerance == cli.RELATION_TOL
    # A projector off by 1e-11 passed the former default 1e-10; the tla.* lines refuse it.
    report = check_tla(make_ea(p), (1.0 + 1e-11) * make_eb(p), p.d)
    assert report.failures() == ("square_b", "sandwich_a", "sandwich_b") and 1e-12 < report.worst < 1e-10


def test_braid_check_identity_matrices():
    assert check_braid(np.eye(3), np.eye(3)).worst == 0.0


def test_braid_check_equal_pair():
    a = np.diag([1.0, 2.0, 3.0])
    assert check_braid(a, a).worst == 0.0


def test_braid_check_detects_violation():
    # Commuting is not enough: with B = I the two sides are A^2 vs A, and
    # the residual is ||A^2 - A|| / ||A^2|| = sqrt(40/98) for A = diag(1,2,3).
    report = check_braid(np.diag([1.0, 2.0, 3.0]), np.eye(3))
    assert not report.all_pass
    assert report.worst == pytest.approx(math.sqrt(40.0 / 98.0))


def test_full_suite_requires_coupled_mode():
    with pytest.raises(InvalidParam):
        check_bwm_suite(AlgebraParams.tla(2.0))


def test_full_suite_reports_every_line_once():
    report = check_bwm_suite(AlgebraParams.coupled(2.0, 0.5, -1.2))
    assert tuple(c.name for c in report.checks) == SUITE_LINES
    assert len(report.checks) == 23


@pytest.mark.parametrize("q", np.linspace(0.3, 3.0, 20))
@pytest.mark.parametrize("phases", PHASE_PAIRS)
def test_full_suite_passes_on_q_grid(q, phases):
    if abs(q - 1.0) < 1e-9:
        q = 1.05  # keep the grid degenerate-free; q = 1 gets its own test
    report = check_bwm_suite(AlgebraParams.coupled(q, *phases), tolerance=1e-10)
    assert report.all_pass, (q, phases, report.failures(), report.worst)


def test_full_suite_degenerate_skein_weight():
    # q = 1 zeroes the skein weight; the suite must still pass and must say
    # how the 0/0 loop value was substituted.
    report = check_bwm_suite(AlgebraParams.coupled(1.0, 0.8, -0.3))
    assert report.all_pass, report.failures()
    assert report.notes and "omega_skein" in report.notes[0]


def test_report_accessors():
    report = check_bwm_suite(AlgebraParams.coupled(1.5))
    assert isinstance(report, RelationReport)
    assert report.worst == max(c.residual for c in report.checks)
    assert report.residual("braid") >= 0.0
    with pytest.raises(KeyError):
        report.residual("not_a_line")
    # tolerance echoes into pass/fail marks
    tight = check_bwm_suite(AlgebraParams.coupled(1.5), tolerance=1e-18)
    assert not tight.all_pass


def test_suite_tolerance_controls_failures():
    # Every line is graded at the tolerance asked for, except that the projector squares are never
    # graded below their rounding bound (``_square_tolerance``), which the report notes.
    p = AlgebraParams.coupled(0.9, 0.2, -0.5)
    report = check_bwm_suite(p, tolerance=1e-18)
    square = algebra._square_tolerance(p, 1e-18)
    assert 1e-18 < square < 1e-14
    graded = {c.name: square if c.name in ("square_a", "square_b") else 1e-18 for c in report.checks}
    assert set(report.failures()) == {c.name for c in report.checks if c.residual >= graded[c.name]}
    assert [note.startswith(f"square_a and square_b graded at {square:.3g}") for note in report.notes] == [True]



#: q on both sides of 1, from where d_topological keeps most digits to just short of the degenerate form.
NEAR_ONE = [1.0 + sign * gap for gap in (1e-5, 1e-7, 1e-9, 1e-11) for sign in (1.0, -1.0)]


@pytest.mark.parametrize("q", NEAR_ONE)
def test_full_suite_passes_near_q_one(q):
    # d_topological = 1 - (sigma - 1/sigma)/omega cancels near q = 1 (3.7e-10 at q = 1 - 1e-7); the
    # projector squares are graded at their rounding bound there, so 20 phase pairs all pass.
    for phi1, phi2 in np.random.default_rng(20).uniform(-math.pi, math.pi, size=(20, 2)):
        report = check_bwm_suite(AlgebraParams.coupled(q, phi1, phi2))
        assert report.all_pass, (q, phi1, phi2, report.failures(), report.worst)
    assert check_bwm_suite(AlgebraParams.coupled(0.9999999, 0.3, -1.1)).all_pass


@settings(max_examples=200, deadline=None)
@given(q=st.floats(min_value=1e-2, max_value=1e2))
@example(q=1.0 - 1e-7)
@example(q=1.0 + 6e-13)  # omega = 1.2e-12, just short of the degenerate form
@example(q=1.0 + 2.5e-6)
@example(q=1.0 - 3e-6)
def test_property_square_tolerance_is_the_suite_tolerance_away_from_q_one(q):
    # Beyond 3e-6 of q = 1 the bound stays below RELATION_TOL, so the lines keep their tolerance; near
    # q = 1, short of the degenerate form, SQUARE_C times the bound is about 2.3 u / |q - 1|.
    p, tolerance = AlgebraParams.coupled(q), algebra.RELATION_TOL
    square = algebra._square_tolerance(p, tolerance)
    if abs(q - 1.0) > 3e-6 or abs(p.omega_skein) < algebra.DEGENERATE_OMEGA:
        assert square == tolerance
    else:
        assert square == tolerance or 2.0 < square * abs(q - 1.0) / 2.0**-53 < 2.6


@pytest.mark.parametrize("q, scale", [(0.5, 1e-9), (2.0, 1e-9), (1.0 - 1e-7, 1e-7), (1.0 + 1e-9, 1e-5)])
def test_square_tolerance_still_catches_scaled_projectors(q, scale, monkeypatch):
    # Projectors scaled by 1 + scale break E^2 = d E by about scale, above the lines' tolerance.
    make_ea, eb_stack = algebra.make_ea, algebra._eb_stack
    monkeypatch.setattr(algebra, "make_ea", lambda p: make_ea(p) * (1.0 + scale))
    monkeypatch.setattr(algebra, "_eb_stack", lambda weights: eb_stack(weights) * (1.0 + scale))
    report = check_bwm_suite(AlgebraParams.coupled(q, 0.3, -1.1))
    assert {"square_a", "square_b"} <= set(report.failures())

# ---------------------------------------------------------------------------
# property-based coverage
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(min_value=0.1, max_value=5.0),
    phi1=st.floats(min_value=-math.pi, max_value=math.pi),
    phi2=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_property_full_suite_holds_everywhere(q, phi1, phi2):
    report = check_bwm_suite(AlgebraParams.coupled(q, phi1, phi2), tolerance=1e-9)
    assert report.all_pass, (q, phi1, phi2, report.failures())


@settings(max_examples=40, deadline=None)
@given(
    d=st.floats(min_value=GOLDEN_RATIO, max_value=50.0),
    phi1=st.floats(min_value=-math.pi, max_value=math.pi),
    phi2=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_property_tla_suite_holds_everywhere(d, phi1, phi2):
    p = AlgebraParams.tla(d, phi1, phi2)
    report = check_tla(make_ea(p), make_eb(p), d, tolerance=1e-11)
    assert report.all_pass, (d, phi1, phi2, report.failures())
