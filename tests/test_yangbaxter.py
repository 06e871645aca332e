"""Tests for the velocity family of unitaries and the exchange identity."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
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
from bwmberry.cli import RunConfig, _record, _skip, _ybe_corner_samples, _ybe_seeded_samples, cmd_verify
from bwmberry.yangbaxter import exchange_residuals

# Frozen from an independent evaluation: with x = beta^2 u^2 + 1 and
# y = 2 epsilon beta u g, the angle is -atan2(y, x); computed at 40-digit
# precision for u = 0.5, beta = 1, epsilon = +1, d = 1.8.
THETA_AT_HALF = -1.0264137704909981


def sample(u=0.5, v=0.1, beta=1.0, epsilon=1, d=1.8, phi1=0.0, phi2=0.0):
    return SpectralParams(u=u, v=v, beta=beta, epsilon=epsilon, d=d, phi1=phi1, phi2=phi2)


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


# ---------------------------------------------------------------------------
# rational phase and angle map
# ---------------------------------------------------------------------------


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
    resid, zs = got
    return (resid, max(abs(abs(z) - 1.0) for z in zs)) == want


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
    samples = _ybe_corner_samples() + _ybe_seeded_samples(cfg) if seeded else []
    want = []
    for s in samples:
        base = dict(vars(s))
        result = reference_exchange(s)
        if isinstance(result, BwmBerryError):
            want.append(_skip("ybe.exchange", base, cfg.tolerance, result))
        else:
            want.append(_record("ybe.exchange", base, result[0], cfg.tolerance))
            want.append(_record("ybe.unimodularity", base, result[1], 1e-13))
    got = cmd_verify(cfg)
    assert got == want
    assert cfg.timings["verify.ybe"]["points"] == len(samples)
    assert 0 < sum(r.status == "skip" for r in got) < len(samples) or not samples


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
