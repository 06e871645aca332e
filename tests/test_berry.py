"""Tests for the loop phases: closed forms and the Wilson-loop evaluation."""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from bwmberry.algebra import GOLDEN_RATIO
from bwmberry.berry import DEGENERACY_GUARD, LOOP_BIAS_K, MIN_STEPS, _loop_grid, _wrap_phase, berry_discrete, figure_table
from bwmberry.matrices import _closed_form_eigh
from bwmberry.spin import DriveParams, hamiltonian_stack
from bwmberry.cli import main
from bwmberry.config import MAX_STEPS

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


# The p = (1 - cos(alpha)) / 2 of the largest |p (1 - p) (1 - 2 p)|: cos(alpha) = 1 / sqrt(3),
# which is sin(theta) at d = sqrt(2).
WORST_BIAS_POINT = (math.asin(1.0 / math.sqrt(3.0)), math.sqrt(2.0))


@pytest.mark.parametrize(
    "x, wrapped",
    [(0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi), (3.0 * math.pi, math.pi), (TAU + 0.5, 0.5), (-0.5, -0.5)],
)
def test_wrap_phase_reduces_to_the_half_open_principal_interval(x, wrapped):
    # (-pi, pi]: -pi is the open end and goes to pi.
    assert _wrap_phase(x) == pytest.approx(wrapped, abs=1e-15)
    assert -math.pi < _wrap_phase(x) <= math.pi


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


@pytest.mark.parametrize("value", [np.nan, complex(np.nan, 1.0), np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("rows", [[5], [0, 63], list(range(10))])
def test_loop_product_refuses_states_that_are_not_finite(value, rows):
    # A NaN or inf entry leaves no phase: it raises, naming the states, and no warning escapes.
    _, _, vectors = loop_eigenframes(0.7, 2.0, steps=64)
    states = vectors[:, :, 0].copy()
    states[rows, 1] = value
    shown = ", ".join(map(str, rows[:5])) + (", ..." if len(rows) > 5 else "")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParam, match=rf"^{len(rows)} of 64 loop states hold NaN or inf: states {shown}$"):
            pancharatnam_phase(states)


def test_loop_product_names_an_inf_state_before_orthogonal_neighbours():
    frames = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, np.inf]], dtype=complex)
    with pytest.raises(InvalidParam, match=r"^1 of 4 loop states hold NaN or inf: states 3$"):
        pancharatnam_phase(frames)


def test_loop_product_refuses_overlaps_that_overflow():
    # Finite states of size 1e200 have overlaps of 1e400: no phase, and no warning.
    states = np.full((8, 3), 1e200, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParam, match="overlaps of the loop states overflow"):
            pancharatnam_phase(states)


def test_loop_product_is_gauge_invariant():
    _, _, vectors = loop_eigenframes(0.7, 2.0, steps=256)
    rng = np.random.default_rng(2024)
    for branch in range(3):
        states = vectors[:, :, branch]
        reference = pancharatnam_phase(states)
        rephased = states * np.exp(1j * rng.uniform(0.0, TAU, size=(states.shape[0], 1)))
        assert abs(pancharatnam_phase(rephased) - reference) < 1e-12


def _roll_overlaps(states):
    """<v_k | v_{k+1}> around the loop as ``pancharatnam_phase`` formed them with np.roll and one sum."""
    return np.sum(np.conjugate(states) * np.roll(states, -1, axis=0), axis=1)


def _walk_states(seed, n, step, layout):
    """n unit states, each a small random step from the last, as an (n, 3) array or a column of (n, 3, 3)."""
    rng = np.random.default_rng(seed)
    walk = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    walk[1:] *= step
    walk = np.cumsum(walk, axis=0)
    walk /= np.linalg.norm(walk, axis=1, keepdims=True)
    return np.ascontiguousarray(walk[:, :, 0]) if layout == 3 else walk[:, :, layout]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 600),
    step=st.sampled_from([1e-3, 0.05, 0.3]),
    layout=st.sampled_from([0, 1, 2, 3]),
)
def test_property_loop_product_keeps_the_bits_of_the_roll_formula(seed, n, step, layout):
    # Layouts 0-2 are the strided columns vectors[:, :, b] that berry_wilson_loop passes, 3 a
    # contiguous (n, 3) array.  Where the product is normal, the phase is the same float.
    states = _walk_states(seed, n, step, layout)
    product = np.prod(_roll_overlaps(states))
    if sys.float_info.min <= abs(product) < math.inf:
        reference = _wrap_phase(-float(np.angle(product)))
        assert np.float64(pancharatnam_phase(states)).tobytes() == np.float64(reference).tobytes()


@pytest.mark.parametrize("scale", [1.0, 1e10])
def test_loop_product_phase_survives_an_underflowing_or_overflowing_product(scale):
    # 2000 random unit states: each overlap is below 1 in size, so their product underflows to 0
    # and its argument says nothing.  Scaled by 1e10, every overlap is near 1e20 and the
    # product overflows.  The phase is still -(sum of the overlap arguments), wrapped.
    rng = np.random.default_rng(7)
    states = rng.standard_normal((2000, 3)) + 1j * rng.standard_normal((2000, 3))
    states *= scale / np.linalg.norm(states, axis=1, keepdims=True)
    overlaps = _roll_overlaps(states)
    with np.errstate(over="ignore", invalid="ignore"):
        product = np.prod(overlaps)
    assert product == 0.0 if scale == 1.0 else not np.isfinite(product)
    expected = _wrap_phase(-float(np.sum(np.angle(overlaps))))
    assert abs(_wrap_phase(pancharatnam_phase(states) - expected)) <= 1e-10


@pytest.mark.parametrize("order", list(itertools.permutations([16, 4096, 4099])))
def test_wilson_loop_keeps_the_bits_of_an_uncached_grid(order):
    # The phases and drive factors of a step count are built once and shared; each loop still
    # gives what building them afresh gives, whichever counts ran before it.
    theta, d = 1.2944812858963195, 2.9074918293191
    for steps in order + order[:1]:
        phis = TAU * np.arange(steps) / steps
        values, vectors = _closed_form_eigh(hamiltonian_stack(phis, DriveParams(theta, d)))
        got_phis, got_values, got_vectors = loop_eigenframes(theta, d, steps=steps)
        assert got_phis.tobytes() == phis.tobytes()
        assert got_values.tobytes() == values.tobytes() and got_vectors.tobytes() == vectors.tobytes()
        low, zero, high = (pancharatnam_phase(vectors[:, :, b]) for b in range(3))
        loop = berry_wilson_loop(theta, d, steps=steps)
        got = np.array([loop.gamma_plus, loop.gamma_zero, loop.gamma_minus]).tobytes()
        assert got in (np.array([low, zero, high]).tobytes(), np.array([high, zero, low]).tobytes())
        assert _loop_grid.cache_info().currsize == 1


def test_eigenframes_phases_are_the_callers_to_write():
    phis, _, _ = loop_eigenframes(0.7, 2.0, steps=64)
    phis[:] = -1.0
    again, _, _ = loop_eigenframes(0.7, 2.0, steps=64)
    assert again[0] == 0.0 and again[1] == TAU / 64
    grid_phis, grid_up = _loop_grid(64)
    assert not grid_phis.flags.writeable and not grid_up.flags.writeable


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


def theta_for_cos_alpha(c: float, d: float) -> float:
    """The theta in [0, pi/2] at which cos(alpha) = c for loop value d."""
    return math.asin(c * d * d / (2.0 * math.sqrt(d * d - 1.0)))


# Edges of the loop's domain for its closed-form eigensolver: |cos(alpha)|
# just above the degeneracy guard, d at the golden-ratio boundary, and theta
# a hair either side of pi/2, where cos(alpha) is largest.
EDGE_POINTS = (
    (theta_for_cos_alpha(2.0 * DEGENERACY_GUARD, 2.0), 2.0, "gamma_plus=lowest_energy_branch"),
    (-theta_for_cos_alpha(2.0 * DEGENERACY_GUARD, 3.0), 3.0, "gamma_plus=highest_energy_branch"),
    (0.7, GOLDEN_RATIO, "gamma_plus=lowest_energy_branch"),
    (math.pi / 2.0 - 1e-9, 2.0, "gamma_plus=lowest_energy_branch"),
    (math.pi / 2.0 + 1e-9, 2.0, "gamma_plus=lowest_energy_branch"),
    (math.pi / 2.0 + 1e-9, GOLDEN_RATIO, "gamma_plus=lowest_energy_branch"),
)


@pytest.mark.parametrize("steps", (16, 17, 33, 1024, 4096))
@pytest.mark.parametrize(
    "theta, d, pairing",
    (
        (0.7, 2.0, "gamma_plus=lowest_energy_branch"),
        (1.2, 3.0, "gamma_plus=lowest_energy_branch"),
        (4.0, 1.7, "gamma_plus=highest_energy_branch"),
    )
    + EDGE_POINTS,
)
def test_wilson_loop_equals_exact_discrete_phase(theta, d, pairing, steps):
    # Only level 2 carries the drive phase, so every step of the dense loop
    # has the same overlap and the N-step product is exact, not just close
    # to the N -> oo limit: gamma_+ = -gamma_- = berry_discrete, gamma_0 = 0.
    gamma = berry_discrete(theta, d, steps=steps)
    loop = berry_wilson_loop(theta, d, steps=steps)
    assert loop.pairing == pairing
    assert abs(wrap(loop.gamma_plus - gamma)) <= 1e-12
    assert abs(wrap(loop.gamma_minus + gamma)) <= 1e-12
    assert abs(loop.gamma_zero) <= 1e-12


@pytest.mark.parametrize("omega", (1e-200, 1e200))
def test_wilson_loop_at_extreme_drive_scales(omega):
    # The eigensolver divides each H by its largest entry, so its invariants
    # neither underflow nor overflow and the phases do not see the scale.
    reference = berry_wilson_loop(0.7, 2.0, steps=1024)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loop = berry_wilson_loop(0.7, 2.0, omega_drive=omega, steps=1024)
    for branch in ("gamma_plus", "gamma_minus", "gamma_zero"):
        assert abs(getattr(loop, branch) - getattr(reference, branch)) <= 1e-12


def test_berry_loops_never_fall_back_to_eigh(monkeypatch, tmp_path):
    # The spectrum {0, +-omega cos(alpha)} keeps every loop matrix's relative
    # gap at 1/sqrt(2), far above the closed-form solver's fallback threshold.
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    assert main(["berry", "--out", str(tmp_path)]) == 0
    for theta, d, _ in EDGE_POINTS:
        berry_wilson_loop(theta, d, steps=4096)
    assert calls == []


@pytest.mark.parametrize("theta, d", ((0.7, 2.0), (1.2, 3.0), (4.0, 1.7), WORST_BIAS_POINT))
def test_discrete_phase_bias_is_second_order(theta, d):
    # Expanding -N arg(1 - p + p exp(-2 pi i / N)) in 1/N gives
    # pi(1 - cos(alpha)) - (2 pi)^3 p(1 - p)(1 - 2p) / (6 N^2) + O(N^-4):
    # the dense loop's bias against the closed form, in sign and size.  Its
    # size is at most LOOP_BIAS_K / N^2, which the worst point reaches.
    p = (1.0 - cos_alpha(theta, d)) / 2.0
    leading = -(TAU ** 3) * p * (1.0 - p) * (1.0 - 2.0 * p) / 6.0
    assert abs(leading) <= LOOP_BIAS_K * (1.0 + 1e-12)
    if (theta, d) == WORST_BIAS_POINT:
        assert abs(leading) == pytest.approx(LOOP_BIAS_K, rel=1e-12)
    closed = berry_closed(theta, d, "sin_form").gamma_plus
    for steps in (1024, 4096):
        bias = wrap(berry_discrete(theta, d, steps=steps) - closed)
        assert steps * steps * bias == pytest.approx(leading, rel=1e-5)


def test_wilson_loop_domain_guard_below_golden_ratio():
    # The closed form extends to d >= 1 but the generator construction does
    # not; the loop route must refuse rather than extrapolate.
    with pytest.raises(InvalidParam):
        berry_wilson_loop(math.pi / 2.0, math.sqrt(2.0), steps=64)


def test_wilson_loop_steps_floor():
    with pytest.raises(InvalidParam):
        berry_wilson_loop(0.7, 2.0, steps=4)
    with pytest.raises(InvalidParam):
        berry_discrete(0.7, 2.0, steps=15)


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


@pytest.mark.parametrize(
    "thetas, ds",
    [([0.0], (0.5,)), ([0.0, math.nan], (2.0,)), ([0.0], (2.0, math.inf)), ([0.3], (2.0, 1e200))],
    ids=["sub_unit_d", "nan_theta", "infinite_d", "overflowing_d_squared"],
)
def test_figure_table_rejects_at_the_call(thetas, ds):
    # The table's rows are made as they are taken, but its inputs are checked when it is called.
    with pytest.raises(InvalidParam):
        figure_table(thetas, ds)


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


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(min_value=-10.0, max_value=10.0),
    d=st.floats(min_value=1.0, max_value=100.0),
    steps=st.integers(min_value=MIN_STEPS, max_value=MAX_STEPS),
)
@example(theta=WORST_BIAS_POINT[0], d=WORST_BIAS_POINT[1], steps=MIN_STEPS)
@example(theta=WORST_BIAS_POINT[0], d=WORST_BIAS_POINT[1], steps=MAX_STEPS)
def test_property_discrete_phase_is_within_the_match_bound(theta, d, steps):
    # The bound the command line grades berry.match_* at: 2 K / N^2.
    closed = berry_closed(theta, d, "sin_form").gamma_plus
    assert abs(wrap(berry_discrete(theta, d, steps=steps) - closed)) <= 2.0 * LOOP_BIAS_K / steps**2
