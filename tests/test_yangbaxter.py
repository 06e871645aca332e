"""Tests for the velocity family of unitaries and the exchange identity."""

import cmath
import json
import math
import re
from dataclasses import astuple
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bwmberry import (
    GOLDEN_RATIO,
    AlgebraParams,
    BwmBerryError,
    DomainError,
    InvalidParam,
    PoleEncountered,
    SpectralParams,
    dagger,
    inverse,
    make_ea,
    make_eb,
    make_r_theta,
    make_r_u,
    make_u,
    rel_residual,
    theta_of_u,
    velocity_add,
    ybe_residual,
    z_of_u,
)
from bwmberry.cli import _YBE_CORNERS, RELATION_TOL, RunConfig, _record, _skip, _ybe_samples, cmd_verify
from bwmberry.algebra import DOMAIN_SLACK
from bwmberry.yangbaxter import _angle_form, _compose, _exchange_columns, _exchange_setup, _z_stack

# Frozen from an independent evaluation: with x = beta^2 u^2 + 1 and
# y = 2 epsilon beta u g, the angle is -atan2(y, x); computed at 40-digit
# precision for u = 0.5, beta = 1, epsilon = +1, d = 1.8.
THETA_AT_HALF = -1.0264137704909981


def sample(u=0.5, v=0.1, beta=1.0, epsilon=1, d=1.8, phi1=0.0, phi2=0.0):
    return SpectralParams(u=u, v=v, beta=beta, epsilon=epsilon, d=d, phi1=phi1, phi2=phi2)


def exchange_residuals(samples) -> list:
    """The per-sample results of ``_exchange_columns`` of a sequence of ``SpectralParams``, each one row
    of its (n, 7) array, after checking the line names."""
    names, results = _exchange_columns(np.array([astuple(s) for s in samples], dtype=float).reshape(-1, 7))
    assert names == ("exchange", "unimodularity")
    return results


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_spectral_params_reject_bad_epsilon():
    with pytest.raises(InvalidParam):
        sample(epsilon=0)
    with pytest.raises(InvalidParam):
        sample(epsilon=2)


@pytest.mark.parametrize("d", [0.0, -1.0, 2.0, 2.5])
def test_spectral_params_reject_d_outside_open_interval(d):
    # The anisotropy g = sqrt(d^2 / (4 - d^2)) needs 0 < d < 2.
    with pytest.raises(DomainError):
        sample(d=d)


def test_spectral_params_accept_joint_domain():
    s = sample(d=1.9)
    assert s.d == 1.9


# ---------------------------------------------------------------------------
# velocity composition
# ---------------------------------------------------------------------------


def test_velocity_add_example():
    # (0.3 + 0.5) / (1 + 0.15) = 16/23
    assert velocity_add(0.3, 0.5, 1.0) == pytest.approx(16.0 / 23.0, abs=1e-15)


def test_velocity_add_zero_is_neutral():
    assert velocity_add(0.0, 0.7, 1.3) == pytest.approx(0.7)
    assert velocity_add(0.7, 0.0, 1.3) == pytest.approx(0.7)


def test_velocity_add_beta_zero_is_galilean():
    assert velocity_add(0.4, 0.5, 0.0) == pytest.approx(0.9)


def test_velocity_add_pole():
    with pytest.raises(PoleEncountered):
        velocity_add(1.0, -1.0, 1.0)


def test_velocity_add_is_commutative_and_associative():
    u, v, w, beta = 0.21, -0.63, 0.44, 0.8
    assert velocity_add(u, v, beta) == pytest.approx(velocity_add(v, u, beta), rel=1e-15)
    left = velocity_add(velocity_add(u, v, beta), w, beta)
    right = velocity_add(u, velocity_add(v, w, beta), beta)
    assert left == pytest.approx(right, rel=1e-13)


@pytest.mark.parametrize(
    "u, v, beta",
    [
        (1e10, 0.0, 1e150),  # beta^2 u is inf, times v = 0 is nan
        (1e300, 1e-300, 1e150),  # beta^2 u v is inf
        (1e308, 1e308, 0.0),  # u + v is inf
    ],
)
def test_velocity_add_refuses_a_composition_out_of_the_double_range(u, v, beta):
    with pytest.raises(InvalidParam, match="^velocity_add overflows double precision"):
        velocity_add(u, v, beta)
    # The exchange skip names velocity_add, not the nan it used to pass on as u*v.
    (result,) = exchange_residuals([sample(u=u, v=v, beta=beta, d=1.7)])
    assert (type(result), str(result)) == (InvalidParam, "velocity_add overflows double precision at these parameters")


# ---------------------------------------------------------------------------
# rational phase and angle map
# ---------------------------------------------------------------------------


def reference_z_of_u(u, s):
    """z(u) as the scalar formula computes it in Python float and complex arithmetic.

    Raises OverflowError where b ** 2 or u ** 2 overflows, and gives nan
    where their product does.
    """
    g = math.sqrt(s.d * s.d / (4.0 - s.d * s.d))
    num = s.beta ** 2 * u ** 2 + 2j * s.epsilon * s.beta * u * g + 1.0
    den = s.beta ** 2 * u ** 2 - 2j * s.epsilon * s.beta * u * g + 1.0
    return complex(num / den)


def bits(z: complex) -> tuple[str, str]:
    """The real and imaginary parts of z in hex, so that the sign of a zero counts."""
    return z.real.hex(), z.imag.hex()


FINITE = dict(allow_nan=False, allow_infinity=False)
VELOCITIES = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(-0.9, 0.9), st.floats(-1e200, 1e200, **FINITE), st.floats(-1e-200, 1e-200)
)
BETAS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 2.0), st.floats(-1e200, 1e200, **FINITE))
LOOP_VALUES = st.one_of(
    st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
    st.floats(GOLDEN_RATIO, 2.0, exclude_max=True),
    st.floats(GOLDEN_RATIO - 1e-11, GOLDEN_RATIO + 1e-11),
    st.sampled_from(
        [GOLDEN_RATIO, GOLDEN_RATIO - DOMAIN_SLACK, math.nextafter(GOLDEN_RATIO - DOMAIN_SLACK, 0.0), math.nextafter(2.0, 0.0)]
    ),
)


@settings(max_examples=300, deadline=None)
@given(u=VELOCITIES, beta=BETAS, epsilon=st.sampled_from([-1, 1]), d=LOOP_VALUES)
@example(u=1e10, beta=1e150, epsilon=1, d=1.7)  # beta^2 u^2 overflows in the product, not in a power
@example(u=1e200, beta=1.0, epsilon=1, d=1.7)  # u ** 2 overflows
@example(u=-0.0, beta=-0.0, epsilon=-1, d=1.7)
@example(u=0.9, beta=1.4, epsilon=1, d=1.99)  # |t| ~ 25 > |a| ~ 2.6: the quotient's second branch
@example(u=0.27504408870479913, beta=1.0, epsilon=-1, d=1.7806600813411375)  # t = -a exactly: the first branch, Re z = +0
def test_z_of_u_has_the_bits_of_the_scalar_formula(u, beta, epsilon, d):
    s = SpectralParams(u=u, v=0.0, beta=beta, epsilon=epsilon, d=d)
    try:
        want = reference_z_of_u(u, s)
    except OverflowError:
        want = complex("nan")
    if cmath.isfinite(want):
        assert bits(z_of_u(u, s)) == bits(want)
    else:
        with pytest.raises(InvalidParam, match="^z_of_u overflows double precision"):
            z_of_u(u, s)


def test_z_of_u_refuses_a_product_that_overflows():
    # beta ** 2 = 1e300 and u ** 2 = 1e20 are finite; their product is inf, and
    # the phase nan, which the unimodularity guard's comparison used to let through.
    s = SpectralParams(u=1e10, v=0, beta=1e150, epsilon=1, d=1.7)
    assert cmath.isnan(reference_z_of_u(1e10, s))
    for fn in (z_of_u, theta_of_u):
        with pytest.raises(InvalidParam, match="^z_of_u overflows double precision"):
            fn(1e10, s)


def test_z_is_unimodular_on_velocity_grid():
    s = sample()
    for u in np.linspace(-5.0, 5.0, 100):
        assert abs(abs(z_of_u(u, s)) - 1.0) < 1e-13


def test_z_at_rest_is_one():
    assert z_of_u(0.0, sample()) == pytest.approx(1.0)
    assert theta_of_u(0.0, sample()) == 0.0


def test_theta_frozen_value():
    assert theta_of_u(0.5, sample()) == pytest.approx(THETA_AT_HALF, abs=1e-15)


def test_theta_is_odd_in_u_and_epsilon():
    s_plus = sample(epsilon=1)
    s_minus = sample(epsilon=-1)
    for u in (0.2, 0.5, 0.83):
        assert theta_of_u(-u, s_plus) == pytest.approx(-theta_of_u(u, s_plus), abs=1e-15)
        assert theta_of_u(u, s_minus) == pytest.approx(-theta_of_u(u, s_plus), abs=1e-15)


# ---------------------------------------------------------------------------
# dressed unitaries: angle form
# ---------------------------------------------------------------------------


def test_angle_form_at_right_angle_is_diagonal_phase():
    pair = make_r_theta(math.pi / 2.0, AlgebraParams.tla(2.0))
    np.testing.assert_allclose(pair.a, np.diag([1j, -1j, 1j]), atol=1e-15)


def test_angle_form_inverse_is_negative_angle():
    p = AlgebraParams.tla(1.9, 0.7, -0.4)
    for theta in (0.3, 1.1, -2.0):
        fwd = make_r_theta(theta, p)
        bwd = make_r_theta(-theta, p)
        assert rel_residual(fwd.a @ bwd.a, np.eye(3, dtype=complex)) < 1e-13
        assert rel_residual(fwd.b @ bwd.b, np.eye(3, dtype=complex)) < 1e-13


def test_angle_form_is_unitary():
    p = AlgebraParams.tla(1.7, 1.2, 2.5)
    for theta in np.linspace(-math.pi, math.pi, 17):
        pair = make_r_theta(theta, p)
        assert rel_residual(dagger(pair.a) @ pair.a, np.eye(3, dtype=complex)) < 1e-13
        assert rel_residual(dagger(pair.b) @ pair.b, np.eye(3, dtype=complex)) < 1e-13


def reference_r_theta(theta, E, d):
    """One matrix of the angle form as make_r_theta built it, with a phase from math.cos and math.sin."""
    ident = np.eye(3, dtype=complex)
    f = 2j * math.sin(theta) / d
    phase = complex(math.cos(theta), math.sin(theta))
    return phase * ident - f * E


def reference_b0(thetas, E, d):
    """The angle form at a stack of thetas as the drive generator built its B(0), with a phase from np.exp."""
    f = np.array([2j * math.sin(th) / d for th in thetas], dtype=complex).reshape(-1, 1, 1)
    rot = np.array([np.exp(1j * th) for th in thetas], dtype=complex).reshape(-1, 1, 1)
    return rot * np.eye(3, dtype=complex) - f * E


ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi / 2.0, -math.pi / 2.0]), st.floats(-4.0, 4.0), st.floats(-1e6, 1e6)
)


@settings(max_examples=200, deadline=None)
@given(
    thetas=st.lists(ANGLES, min_size=1, max_size=40),
    d=st.one_of(st.just(GOLDEN_RATIO), st.floats(GOLDEN_RATIO, 3.0), st.floats(GOLDEN_RATIO, 1e6)),
    phi1=st.floats(-1e3, 1e3),
    phi2=st.floats(-1e3, 1e3),
)
def test_angle_form_has_the_bits_of_both_phase_forms(thetas, d, phi1, phi2):
    # make_r_theta took e^{i theta} as complex(cos, sin) and the drive generator's
    # B(0) as np.exp(1j * theta); the one builder must agree with both, bit for bit.
    p = AlgebraParams.tla(d, phi1, phi2)
    for E in (make_ea(p), make_eb(p)):
        got = _angle_form(thetas, E, d)
        assert got.shape == (len(thetas), 3, 3)
        assert got.tobytes() == reference_b0(thetas, E, d).tobytes()
        for k, theta in enumerate(thetas):
            assert got[k].tobytes() == reference_r_theta(theta, E, d).tobytes()
    pair = make_r_theta(thetas[0], p)
    assert pair.a.tobytes() == reference_r_theta(thetas[0], make_ea(p), d).tobytes()
    assert pair.b.tobytes() == reference_r_theta(thetas[0], make_eb(p), d).tobytes()


def test_pair_members_related_by_basis_change():
    p = AlgebraParams.tla(1.8, -0.9, 0.6)
    u_mat = make_u(p)
    pair = make_r_theta(0.77, p)
    assert rel_residual(pair.b, u_mat @ pair.a @ inverse(u_mat)) < 1e-12


def test_epsilon_flip_gives_adjoint_family_member():
    s_plus = sample(phi1=0.3, phi2=-1.2)
    s_minus = sample(epsilon=-1, phi1=0.3, phi2=-1.2)
    for u in (0.15, 0.5, 0.82):
        fwd = make_r_u(u, s_plus)
        rev = make_r_u(u, s_minus)
        assert rel_residual(rev.a, dagger(fwd.a)) < 1e-13
        assert rel_residual(rev.b, dagger(fwd.b)) < 1e-13


# ---------------------------------------------------------------------------
# dressed unitaries: velocity form agrees with the angle form
# ---------------------------------------------------------------------------


def test_velocity_and_angle_forms_agree_on_grid():
    # The two constructions use different arithmetic (rational weights vs
    # trigonometric ones); their agreement is the cross-check.
    s = sample(beta=0.9, d=1.75, phi1=0.4, phi2=-2.2)
    p = AlgebraParams.tla(s.d, s.phi1, s.phi2)
    for u in np.linspace(-0.95, 0.95, 100):
        via_u = make_r_u(u, s)
        via_theta = make_r_theta(theta_of_u(u, s), p)
        assert rel_residual(via_u.a, via_theta.a) < 1e-13
        assert rel_residual(via_u.b, via_theta.b) < 1e-13


def test_velocity_form_below_golden_ratio_raises():
    # Angles exist for any 0 < d < 2, but the projectors do not.
    s = sample(d=1.5)
    assert math.isfinite(theta_of_u(0.5, s))
    with pytest.raises(InvalidParam):
        make_r_u(0.5, s)


# ---------------------------------------------------------------------------
# exchange identity
# ---------------------------------------------------------------------------

CORNERS = [
    sample(u=0.0, v=0.37, beta=0.3, epsilon=1, d=1.7, phi1=0.4, phi2=-1.1),
    sample(u=0.41, v=-0.41, beta=1.0, epsilon=-1, d=1.9, phi1=-2.0, phi2=0.7),
    sample(u=0.25, v=0.6, beta=0.0, epsilon=1, d=1.7, phi1=1.2, phi2=2.5),
]


@pytest.mark.parametrize("s", CORNERS)
def test_exchange_identity_corner_cases(s):
    assert ybe_residual(s) < 1e-10


def test_exchange_identity_seeded_sweep():
    rng = np.random.default_rng(99)
    for _ in range(60):
        u, v = rng.uniform(-0.9, 0.9, size=2)
        s = sample(
            u=float(u),
            v=float(v),
            beta=float(rng.choice([0.3, 1.0])),
            epsilon=int(rng.choice([-1, 1])),
            d=float(rng.choice([1.7, 1.9])),
            phi1=float(rng.uniform(-math.pi, math.pi)),
            phi2=float(rng.uniform(-math.pi, math.pi)),
        )
        assert ybe_residual(s) < 1e-10, s


def test_exchange_identity_uses_composed_velocity():
    # Exchanging with the wrong middle velocity must not satisfy the
    # identity: check the residual really is sensitive to the composition.
    s = sample(u=0.5, v=0.3, beta=1.0, d=1.8)
    w = velocity_add(s.u, s.v, s.beta)
    p = AlgebraParams.tla(s.d, s.phi1, s.phi2)
    a_u = make_r_theta(theta_of_u(s.u, s), p).a
    a_v = make_r_theta(theta_of_u(s.v, s), p).a
    b_u = make_r_theta(theta_of_u(s.u, s), p).b
    b_v = make_r_theta(theta_of_u(s.v, s), p).b
    b_w = make_r_theta(theta_of_u(w, s), p).b
    a_bad = make_r_theta(theta_of_u(0.5 * w, s), p).a
    good = rel_residual(a_u @ b_w @ a_v, b_v @ make_r_theta(theta_of_u(w, s), p).a @ b_u)
    bad = rel_residual(a_u @ b_w @ a_v, b_v @ a_bad @ b_u)
    assert good < 1e-12 < bad


# The per-sample path as it stood before the exchange identity was stacked:
# three make_r_u pairs, each from its own z(u), and one np.linalg.norm per
# matrix.  The stacked evaluation must give the same bits and the same errors.


def reference_rel_residual(a, b) -> float:
    return float(np.linalg.norm(a - b)) / max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))


def reference_r_u(u, s):
    theta = theta_of_u(u, s)
    z = z_of_u(u, s)
    p = AlgebraParams.tla(s.d, s.phi1, s.phi2)
    ident = np.eye(3, dtype=complex)
    f_weight = (z - 1.0) / s.d
    rho = np.exp(-0.5j * np.angle(z))
    return rho * (ident + f_weight * make_ea(p)), rho * (ident + f_weight * make_eb(p)), theta


def reference_exchange(s):
    """(residual, unimodularity deviation), or the error, as the per-sample path gave them."""
    try:
        w = velocity_add(s.u, s.v, s.beta)
        ua, ub, _ = reference_r_u(s.u, s)
        va, vb, _ = reference_r_u(s.v, s)
        wa, wb, _ = reference_r_u(w, s)
    except BwmBerryError as exc:
        return exc
    zdev = max(abs(abs(z_of_u(x, s)) - 1.0) for x in (s.u, s.v, w))
    return reference_rel_residual(ua @ wb @ va, vb @ wa @ ub), zdev


def same_outcome(got, want) -> bool:
    if isinstance(want, BwmBerryError):
        return type(got) is type(want) and str(got) == str(want)
    return got == [*want]


EXCHANGE_EDGE_SAMPLES = [
    sample(u=0.5, v=-0.5, beta=2.0),  # 1 + beta^2 u v = 0: the velocity pole
    sample(u=0.3, v=0.2, d=1.5),  # below the golden ratio: no projectors
    sample(u=0.5, v=1e200, d=1.5),  # the projector domain is checked before z(v) overflows
    sample(u=1e200, v=0.5, d=1.5),  # z(u) overflows before the projector domain is checked
    sample(u=0.0, v=0.0, beta=0.0),
]


def exchange_samples(n: int) -> list:
    rng = np.random.default_rng(n)
    out = EXCHANGE_EDGE_SAMPLES[:n]
    while len(out) < n:
        u, v, p1, p2 = rng.uniform(-0.9, 0.9, size=4) * [1, 1, math.pi, math.pi]
        beta, d = float(rng.choice([0.3, 1.0, 1.4])), float(rng.choice([GOLDEN_RATIO, 1.7, 1.9]))
        out.append(sample(u=float(u), v=float(v), beta=beta, epsilon=int(rng.choice([-1, 1])), d=d, phi1=p1, phi2=p2))
    return out


@pytest.mark.parametrize("n", [0, 1, 5, 256, 257])
def test_stacked_exchange_is_bit_equal_to_the_per_sample_path(n):
    samples = exchange_samples(n)
    got = exchange_residuals(samples)
    assert len(got) == n
    for s, result in zip(samples, got):
        want = reference_exchange(s)
        assert same_outcome(result, want), (s, result, want)
        if isinstance(want, BwmBerryError):
            with pytest.raises(type(want), match=re.escape(str(want))):
                ybe_residual(s)
        else:
            assert ybe_residual(s) == want[0]
            ua, ub, theta = reference_r_u(s.u, s)
            pair = make_r_u(s.u, s)
            assert (pair.a.tobytes(), pair.b.tobytes(), pair.theta) == (ua.tobytes(), ub.tobytes(), theta)


@pytest.mark.parametrize("seeded, jobs", [(0, 1), (253, 1), (254, 1), (254, 2)])
def test_verify_chunks_give_the_per_sample_records(seeded, jobs, tmp_path):
    # With the three corner samples, 253 and 254 seeded samples fill one chunk
    # of 256 exactly or spill one sample into a second; d = 1.5 skips.
    grids = {"q": (), "tla_d": (), "ybe_d": (1.5, 1.7, 1.9)}
    cfg = RunConfig(command="verify", out_dir=tmp_path, ybe_samples=seeded, jobs=jobs, grids=grids)
    samples = [SpectralParams(*row) for row in _ybe_samples(cfg).tolist()]
    want = []
    for s in samples:
        base = dict(vars(s), epsilon=int(s.epsilon))
        result = reference_exchange(s)
        if isinstance(result, BwmBerryError):
            want.append(_skip("ybe.exchange", base, RELATION_TOL, result))
        else:
            want.append(_record("ybe.exchange", base, result[0], RELATION_TOL))
            want.append(_record("ybe.unimodularity", base, result[1], 1e-13))
    got = [r for row in cmd_verify(cfg) for r in row]
    assert got == want
    assert json.dumps(got) == json.dumps(want)  # the same types too: epsilon is an int
    assert cfg.timings["verify.ybe"]["points"] == cfg.timings["verify.ybe_draw"]["points"] == len(samples)
    assert 0 < sum(r["status"] == "skip" for r in got) < len(samples) or not samples


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**128), n_beta=st.integers(1, 9), n_d=st.integers(1, 9), n=st.integers(0, 600))
@example(seed=20260815, n_beta=3, n_d=1, n=599)
def test_property_exchange_samples_are_the_corners_then_five_generator_calls(seed, n_beta, n_d, n):
    # The order of the five calls is part of every seeded ybe.* record, so it
    # is written out here; the generator must end where these five calls leave it.
    betas = tuple(0.1 + 0.2 * i for i in range(n_beta))
    ds = tuple(GOLDEN_RATIO + 0.04 * i for i in range(n_d))
    cfg = RunConfig(command="verify", out_dir=Path(), seed=seed, ybe_samples=n, grids={"ybe_beta": betas, "ybe_d": ds})
    made = []

    def recording_rng(seed, default_rng=np.random.default_rng):
        made.append(default_rng(seed))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", recording_rng):
        got = _ybe_samples(cfg)
    if n == 0:  # no exchange checks, the corners included
        assert got.shape == (0, 7) and not made
        return
    rng = np.random.default_rng([seed, 1])
    u, v = rng.uniform(-0.9, 0.9, size=(2, n))
    beta_picks = rng.integers(len(betas), size=n)
    signs = rng.integers(2, size=n) * 2 - 1
    d_picks = rng.integers(len(ds), size=n)
    phi1, phi2 = rng.uniform(-math.pi, math.pi, size=(2, n))
    seeded = np.column_stack([u, v, np.take(betas, beta_picks), signs, np.take(ds, d_picks), phi1, phi2])
    assert got.dtype == np.float64 and got.shape == (3 + n, 7)
    assert got[:3].tolist() == [list(map(float, corner)) for corner in _YBE_CORNERS]
    assert got[3:].tobytes() == seeded.tobytes()
    assert len(made) == 1 and made[0].bit_generator.state == rng.bit_generator.state
    assert set(got[:, 3].tolist()) <= {-1.0, 1.0}
    assert set(got[3:, 2].tolist()) <= set(betas) and set(got[3:, 4].tolist()) <= set(ds)


@st.composite
def exchange_sample(draw):
    """A sample anywhere in the domain of SpectralParams, at times at or next to the velocity pole."""
    u, v, beta = draw(VELOCITIES), draw(VELOCITIES), draw(BETAS)
    if draw(st.booleans()) and beta * beta * u != 0.0:
        v = -1.0 / (beta * beta * u) * draw(st.sampled_from([1.0, 1.0 + 1e-13, 1.0 + 1e-11]))
        v = v if math.isfinite(v) else 0.5
    phi1, phi2 = draw(st.floats(-math.pi, math.pi)), draw(st.floats(-math.pi, math.pi))
    return sample(u=u, v=v, beta=beta, epsilon=draw(st.sampled_from([-1, 1])), d=draw(LOOP_VALUES), phi1=phi1, phi2=phi2)


@settings(max_examples=30, deadline=None)
@given(samples=st.lists(exchange_sample(), min_size=1, max_size=300))
def test_property_stacked_set_up_gives_every_sample_its_one_sample_result(samples):
    # Each sample gets what a chunk of its own gives it, and what its set-up
    # one function call at a time gives: the same error, or the same phases
    # from the stacked z (``_z_stack`` over the chunk's columns), whose
    # largest | |z| - 1 | in Python arithmetic is the defect.
    u, v, beta, epsilon, d = np.array([astuple(s) for s in samples], dtype=float).T[:5]
    z = np.stack([_z_stack(x, beta, epsilon, d) for x in (u, v, _compose(u, v, beta)[1])], axis=1)
    for s, got, stacked in zip(samples, exchange_residuals(samples), z.tolist(), strict=True):
        (want,) = exchange_residuals([s])
        try:
            zs = _exchange_setup(s)
        except BwmBerryError as exc:
            assert (type(got), str(got)) == (type(want), str(want)) == (type(exc), str(exc)), s
        else:
            assert got == want == [got[0], max(abs(abs(z) - 1.0) for z in zs)], s
            assert [bits(z) for z in stacked] == [bits(z) for z in zs], s


# ---------------------------------------------------------------------------
# property-based coverage
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    u=st.floats(min_value=-0.9, max_value=0.9),
    v=st.floats(min_value=-0.9, max_value=0.9),
    beta=st.floats(min_value=0.0, max_value=1.5),
    epsilon=st.sampled_from([-1, 1]),
    d=st.floats(min_value=GOLDEN_RATIO, max_value=1.95),
)
def test_property_exchange_identity(u, v, beta, epsilon, d):
    s = SpectralParams(u=u, v=v, beta=beta, epsilon=epsilon, d=d)
    assert ybe_residual(s) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    u=st.floats(min_value=-3.0, max_value=3.0),
    beta=st.floats(min_value=0.0, max_value=2.0),
    epsilon=st.sampled_from([-1, 1]),
    d=st.floats(min_value=0.1, max_value=1.99),
)
def test_property_rational_phase_unimodular(u, beta, epsilon, d):
    s = SpectralParams(u=u, v=0.0, beta=beta, epsilon=epsilon, d=d)
    assert abs(abs(z_of_u(u, s)) - 1.0) < 1e-12
