"""Tests for the loop phases: closed forms and the Wilson-loop evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwmberry import (
    SECTION_D_VALUES,
    BerryResult,
    DegenerateSpectrum,
    InvalidParam,
    berry_closed,
    berry_wilson_loop,
    cos_alpha,
    figure_data,
    loop_eigenframes,
    pancharatnam_phase,
    solid_angle,
)
from bwmberry.berry import berry_wilson_loop_pair

TAU = 2.0 * math.pi

# Frozen Wilson-loop values at theta = pi/3, d = 2, steps = 4096 (closed
# form pi/4 = 0.7853981633974483; the offset ~2e-7 is the O(steps^-2)
# discretisation bias of the overlap product).
WILSON_PLUS_FROZEN = 0.7853979612595252

# Frozen discretisation-convergence gap |gamma(8192) - gamma(4096)| at
# theta = 0.4, d = 1.7.
CONVERGENCE_GAP_FROZEN = 1.476817574896927e-07


def wrap(x: float) -> float:
    y = math.remainder(x, TAU)
    return y + TAU if y <= -math.pi else y


# ---------------------------------------------------------------------------
# solid angle
# ---------------------------------------------------------------------------


def test_solid_angle_values():
    assert solid_angle(1.0) == 0.0
    assert solid_angle(0.0) == pytest.approx(TAU)
    assert solid_angle(0.75) == pytest.approx(math.pi / 2.0)
    assert solid_angle(-1.0) == pytest.approx(2.0 * TAU)


def test_solid_angle_domain():
    with pytest.raises(InvalidParam):
        solid_angle(1.5)
    with pytest.raises(InvalidParam):
        solid_angle(-1.01)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_closed_form_sin_form_is_half_solid_angle():
    for theta in (0.2, 0.9, 2.4):
        for d in (1.0, 1.3, 2.0, 5.0):
            res = berry_closed(theta, d, "sin_form")
            ca = cos_alpha(theta, d)
            assert res.cos_alpha == pytest.approx(ca, abs=1e-15)
            assert res.solid_angle == pytest.approx(TAU * (1.0 - ca), abs=1e-13)
            assert res.gamma_plus == pytest.approx(res.solid_angle / 2.0, abs=1e-13)
            assert res.gamma_minus == -res.gamma_plus
            assert res.gamma_zero == 0.0
            assert res.method == "closed_sin_form"
            assert res.pairing is None


def test_closed_form_cos_form_examples():
    assert berry_closed(0.0, math.sqrt(2.0), "cos_form").gamma_plus == pytest.approx(0.0, abs=1e-15)
    assert berry_closed(1.234, 1.0, "cos_form").gamma_plus == pytest.approx(math.pi)
    # maximum of the d = 2 section: pi (1 + sqrt(3)/2)
    assert berry_closed(math.pi, 2.0, "cos_form").gamma_plus == pytest.approx(
        5.862291699941119, abs=1e-14
    )


def test_closed_forms_related_by_quarter_turn():
    for theta in np.linspace(-3.0, 3.0, 25):
        via_cos = berry_closed(theta, 1.9, "cos_form").gamma_plus
        via_sin = berry_closed(math.pi / 2.0 - theta, 1.9, "sin_form").gamma_plus
        assert via_cos == pytest.approx(via_sin, abs=1e-12)


def test_closed_form_domain_and_form_validation():
    with pytest.raises(InvalidParam):
        berry_closed(0.5, 0.9)
    with pytest.raises(InvalidParam):
        berry_closed(0.5, 2.0, "tan_form")


def test_closed_form_returns_result_type():
    assert isinstance(berry_closed(0.1, 1.5), BerryResult)


# ---------------------------------------------------------------------------
# eigenframes and the gauge-invariant loop product
# ---------------------------------------------------------------------------


def test_eigenframes_shapes():
    phis, values, vectors = loop_eigenframes(0.7, 2.0, steps=64)
    assert phis.shape == (64,)
    assert values.shape == (64, 3)
    assert vectors.shape == (64, 3, 3)
    assert phis[0] == 0.0 and phis[-1] < TAU


def test_eigenframes_step_floor():
    with pytest.raises(InvalidParam):
        loop_eigenframes(0.7, 2.0, steps=8)


def test_loop_product_rejects_wrong_shapes():
    with pytest.raises(InvalidParam):
        pancharatnam_phase(np.ones((2, 3), dtype=complex))
    with pytest.raises(InvalidParam):
        pancharatnam_phase(np.ones((5, 2), dtype=complex))


def test_loop_product_flags_orthogonal_neighbours():
    frames = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        dtype=complex,
    )
    with pytest.raises(DegenerateSpectrum):
        pancharatnam_phase(frames)


def test_loop_product_is_gauge_invariant():
    _, _, vectors = loop_eigenframes(0.7, 2.0, steps=256)
    rng = np.random.default_rng(2024)
    for branch in range(3):
        states = vectors[:, :, branch]
        reference = pancharatnam_phase(states)
        rephased = states * np.exp(1j * rng.uniform(0.0, TAU, size=(states.shape[0], 1)))
        assert abs(pancharatnam_phase(rephased) - reference) < 1e-12


# ---------------------------------------------------------------------------
# Wilson loop against the closed forms
# ---------------------------------------------------------------------------


def test_wilson_loop_frozen_point():
    res = berry_wilson_loop(math.pi / 3.0, 2.0, steps=4096)
    assert res.method == "wilson_loop"
    assert res.cos_alpha == pytest.approx(0.75)
    assert res.gamma_plus == pytest.approx(WILSON_PLUS_FROZEN, abs=1e-12)
    assert res.gamma_plus == pytest.approx(math.pi / 4.0, abs=1e-4)
    assert res.gamma_minus == pytest.approx(-math.pi / 4.0, abs=1e-4)
    assert abs(res.gamma_zero) < 1e-6
    assert res.pairing in (
        "gamma_plus=lowest_energy_branch",
        "gamma_plus=highest_energy_branch",
    )


@pytest.mark.parametrize("theta", (0.3, 0.7, 1.2, 2.0))
@pytest.mark.parametrize("d", (1.7, 2.0, 3.0, 5.0))
def test_wilson_loop_matches_closed_form_on_grid(theta, d):
    closed = berry_closed(theta, d, "sin_form")
    loop = berry_wilson_loop(theta, d, steps=2048)
    assert abs(wrap(loop.gamma_plus - closed.gamma_plus)) < 1e-4
    assert abs(wrap(loop.gamma_minus - closed.gamma_minus)) < 1e-4
    assert abs(loop.gamma_zero) < 1e-6


def test_wilson_loop_branch_set_matches_closed_pair():
    # Branch attribution is recorded, but the invariant asserted is the
    # set-wise match of the two outer phases with {+-pi(1 - cos(alpha))}.
    theta, d = 0.9, 2.5
    closed = berry_closed(theta, d, "sin_form")
    loop = berry_wilson_loop(theta, d, steps=2048)
    got = sorted((wrap(loop.gamma_plus), wrap(loop.gamma_minus)))
    want = sorted((wrap(closed.gamma_plus), wrap(closed.gamma_minus)))
    assert got[0] == pytest.approx(want[0], abs=1e-4)
    assert got[1] == pytest.approx(want[1], abs=1e-4)
    assert loop.pairing is not None


def test_wilson_loop_lifted_representatives():
    theta, d = 1.2, 1.7
    closed = berry_closed(theta, d, "sin_form")
    loop = berry_wilson_loop(theta, d, steps=2048)
    assert 0.0 <= loop.gamma_plus_lifted < TAU
    assert -TAU < loop.gamma_minus_lifted <= 0.0
    assert wrap(loop.gamma_plus_lifted - loop.gamma_plus) == pytest.approx(0.0, abs=1e-12)
    assert abs(loop.gamma_plus_lifted - closed.gamma_plus) < 1e-4
    assert abs(loop.gamma_minus_lifted - closed.gamma_minus) < 1e-4


def test_wilson_loop_antisymmetry():
    loop = berry_wilson_loop(0.7, 3.0, steps=2048)
    assert abs(wrap(loop.gamma_plus + loop.gamma_minus)) < 1e-4


def test_wilson_loop_convergence_under_refinement():
    coarse = berry_wilson_loop(0.4, 1.7, steps=4096).gamma_plus
    fine = berry_wilson_loop(0.4, 1.7, steps=8192).gamma_plus
    gap = abs(wrap(fine - coarse))
    assert gap < 1e-6
    assert gap == pytest.approx(CONVERGENCE_GAP_FROZEN, rel=1e-6)


def test_wilson_loop_degenerate_spectrum_guard():
    # theta = 0 collapses all three levels to zero energy.
    with pytest.raises(DegenerateSpectrum) as info:
        berry_wilson_loop(0.0, 2.0, steps=64)
    assert str(info.value) == "|cos(alpha)| = 0.000e+00 leaves the outer branches unresolvable"


def test_wilson_loop_guards_the_level_gap_not_cos_alpha():
    # At omega = 0 H vanishes although cos(alpha) = 0.8, and a subnormal
    # omega underflows H to zero.  Any other scale of omega leaves the
    # eigenvectors, and so the phases, unchanged; a negative drive frequency
    # only swaps which energy branch carries gamma_plus.
    for omega in (0.0, 5e-324):
        with pytest.raises(DegenerateSpectrum):
            berry_wilson_loop(0.7, 2.0, omega_drive=omega, steps=256)
    closed = berry_closed(0.7, 2.0, "sin_form")
    for omega in (-1.0, 1e-7):
        loop = berry_wilson_loop(0.7, 2.0, omega_drive=omega, steps=2048)
        assert abs(wrap(loop.gamma_plus - closed.gamma_plus)) < 1e-4
        assert abs(wrap(loop.gamma_minus - closed.gamma_minus)) < 1e-4


@pytest.mark.parametrize("steps", (64, 1024, 4096))
@pytest.mark.parametrize(
    "theta, d, pairing",
    ((0.7, 2.0, "gamma_plus=lowest_energy_branch"), (4.0, 1.7, "gamma_plus=highest_energy_branch")),
)
def test_wilson_loop_pair_coarse_equals_half_step_loop(theta, d, pairing, steps):
    fine, coarse, coarse_steps = berry_wilson_loop_pair(theta, d, steps=steps)
    assert coarse_steps == steps // 2
    assert fine == berry_wilson_loop(theta, d, steps=steps)
    assert coarse == berry_wilson_loop(theta, d, steps=steps // 2)
    assert fine.pairing == coarse.pairing == pairing


def test_wilson_loop_pair_odd_steps_close_with_one_grid_step():
    # Every step of a loop shares one overlap 1 - p + p exp(-i delta) with
    # p = (1 - cos(alpha)) / 2, so the 17 even-indexed frames of a 33-step
    # loop (16 double steps, then one single step back to phi = 0) have an
    # exact phase.
    theta, d, steps = 0.7, 2.0, 33
    p = (1.0 - cos_alpha(theta, d)) / 2.0

    def step_arg(k):
        return np.angle(1.0 - p + p * np.exp(-1j * TAU * k / steps))

    fine, coarse, coarse_steps = berry_wilson_loop_pair(theta, d, steps=steps)
    assert coarse_steps == 17
    assert fine == berry_wilson_loop(theta, d, steps=steps)
    assert wrap(coarse.gamma_plus + 16 * step_arg(2) + step_arg(1)) == pytest.approx(0.0, abs=1e-12)
    _, coarse, coarse_steps = berry_wilson_loop_pair(theta, d, steps=31)
    assert coarse is not None and coarse_steps == 16
    _, coarse, coarse_steps = berry_wilson_loop_pair(theta, d, steps=30)
    assert coarse is None and coarse_steps == 15  # below MIN_STEPS


def test_wilson_loop_domain_guard_below_golden_ratio():
    # The closed form extends to d >= 1 but the generator construction does
    # not; the loop route must refuse rather than extrapolate.
    with pytest.raises(InvalidParam):
        berry_wilson_loop(math.pi / 2.0, math.sqrt(2.0), steps=64)


def test_wilson_loop_steps_floor():
    with pytest.raises(InvalidParam):
        berry_wilson_loop(0.7, 2.0, steps=4)


# ---------------------------------------------------------------------------
# section tables
# ---------------------------------------------------------------------------


def test_figure_rows_sorted_and_complete():
    thetas = np.linspace(0.0, TAU, 11)
    rows = figure_data(thetas, (2.0, 1.0))
    assert len(rows) == 22
    keys = [(d, t) for t, d, _ in rows]
    assert keys == sorted(keys)


def test_figure_section_values():
    rows = figure_data([0.0, math.pi], SECTION_D_VALUES)
    table = {(round(t, 12), round(d, 12)): g for t, d, g in rows}
    assert table[(0.0, round(math.sqrt(2.0), 12))] == pytest.approx(0.0, abs=1e-15)
    assert table[(round(math.pi, 12), 1.0)] == pytest.approx(math.pi)
    assert table[(round(math.pi, 12), 5.0)] == pytest.approx(
        math.pi * (1.0 + 2.0 * math.sqrt(24.0) / 25.0), abs=1e-13
    )


def test_figure_sqrt2_section_reduces_to_cosine_law():
    thetas = np.linspace(0.0, TAU, 1000)
    rows = figure_data(thetas, (math.sqrt(2.0),))
    worst = max(abs(g - math.pi * (1.0 - math.cos(t))) for t, _, g in rows)
    assert worst < 1e-12


def test_figure_extrema_and_monotone_envelope():
    thetas = np.linspace(0.0, TAU, 401)  # includes 0, pi, 2 pi exactly
    maxima, minima = {}, {}
    for d in (1.5, 2.0, 3.0, 5.0, 10.0):
        gammas = [g for _, _, g in figure_data(thetas, (d,))]
        env = 2.0 * math.sqrt(d * d - 1.0) / d**2
        assert max(gammas) == pytest.approx(math.pi * (1.0 + env), abs=1e-12)
        assert min(gammas) == pytest.approx(math.pi * (1.0 - env), abs=1e-12)
        maxima[d], minima[d] = max(gammas), min(gammas)
    ds = sorted(maxima)
    assert all(maxima[a] > maxima[b] for a, b in zip(ds, ds[1:]))
    assert all(minima[a] < minima[b] for a, b in zip(ds, ds[1:]))


def test_figure_large_d_tail_approaches_pi():
    rows = figure_data([0.0], (1e6,))
    assert abs(rows[0][2] - math.pi) <= 7e-6


def test_figure_rows_equal_scalar_closed_form():
    thetas = np.linspace(0.0, TAU, 401)
    ds = (5.0, 1.0, 1e6, math.sqrt(2.0), 2.0, 1.0000001, 2.0, 1.0)
    rows = figure_data(thetas[::-1], ds)
    assert [(d, t) for t, d, _ in rows] == [(d, t) for d in sorted(ds) for t in sorted(thetas)]
    for t, d, g in rows:
        assert g == berry_closed(t, d, "cos_form").gamma_plus


def test_figure_rejects_sub_unit_d():
    # A NaN theta and an infinite d are rejected along with d < 1.
    for thetas, ds in (([0.0], (0.5,)), ([0.0, math.nan], (2.0,)), ([0.0], (2.0, math.inf))):
        with pytest.raises(InvalidParam):
            figure_data(thetas, ds)


# ---------------------------------------------------------------------------
# property-based coverage
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    theta=st.floats(min_value=-10.0, max_value=10.0),
    d=st.floats(min_value=1.0, max_value=100.0),
    form=st.sampled_from(["sin_form", "cos_form"]),
)
def test_property_closed_form_invariants(theta, d, form):
    res = berry_closed(theta, d, form)
    assert res.gamma_minus == -res.gamma_plus
    assert res.gamma_plus == pytest.approx(res.solid_angle / 2.0, abs=1e-12)
    assert 0.0 <= res.gamma_plus <= TAU + 1e-12
