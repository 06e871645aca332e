"""The stacked verify rows against the one-point-at-a-time route they replace.

``verify`` evaluates the BWM suite and the transport lines once per chunk of
phase pairs of a q row, and the Temperley-Lieb lines once per chunk of a
tla_d row, on (n, 3, 3) stacks built by the ``algebra._*_stack`` builders
and inverted by ``matrices._inverse_stack``.  The reference here is the
scalar route: the projector, unitary and braid builders, the adjugate
inverse and the per-point record functions as they read when every point
was evaluated alone.  Every matrix, inverse, error and report record must
match it bit for bit.
"""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bwmberry import GOLDEN_RATIO, AlgebraParams, BwmBerryError, algebra, cli, config, make_a, make_ea, rel_residual
from bwmberry.algebra import (
    DEGENERATE_OMEGA,
    TRANSPORT_LINES,
    _b_stack,
    _bwm_row,
    _ea_stack,
    _eb_stack,
    _phase_weights,
    _square_tolerance,
    _u_stack,
    check_bwm_suite,
    d_topological,
    make_b,
    make_eb,
    make_u,
)
from bwmberry.errors import InvalidParam, SingularMatrix
from bwmberry.matrices import SINGULARITY_RTOL, _adjugate_det, _cmul, _inverse_stack, dagger, frobenius, inverse, refuse_overflow
from record_dicts import line, record_dict, skip_dict

# ---------------------------------------------------------------------------
# the scalar route: one point, numpy scalar arithmetic
# ---------------------------------------------------------------------------


def _weights(d, phi1, phi2):
    s = math.sqrt(max(0.0, d * d - d - 1.0))
    return s, math.sqrt(d), np.exp(1j * phi1), np.exp(1j * phi2), np.exp(1j * (phi1 + phi2))


def scalar_eb(d, phi1, phi2):
    s, rd, e1, e2, e12 = _weights(d, phi1, phi2)
    return np.array(
        [
            [(d * d - d - 1.0) / d, s / d * e1, -s / rd * e12],
            [s / d / e1, 1.0 / d, -e2 / rd],
            [-s / rd / e12, -1.0 / e2 / rd, 1.0],
        ],
        dtype=complex,
    )


def scalar_u(d, phi1, phi2):
    s, rd, e1, e2, e12 = _weights(d, phi1, phi2)
    return np.array(
        [
            [1.0 / ((d - 1.0) * d), -s / d * e1, -s / (rd * (d - 1.0)) * e12],
            [s / d / e1, -1.0 / d, e2 / rd],
            [s / (rd * (d - 1.0)) / e12, 1.0 / e2 / rd, -(d - 2.0) / (d - 1.0)],
        ],
        dtype=complex,
    )


@functools.partial(refuse_overflow, name="make_b")
def scalar_b(q, d, phi1, phi2):
    s, rd, e1, e2, e12 = _weights(d, phi1, phi2)
    return np.array(
        [
            [1.0 / (q ** 4 * (d - 1.0) * d), s / (d * q) * e1, -s / (q * q * (d - 1.0) * rd) * e12],
            [s / (d * q) / e1, q * q / d, q / rd * e2],
            [-s / (q * q * (d - 1.0) * rd) / e12, q / rd / e2, (d - 2.0) / (d - 1.0)],
        ],
        dtype=complex,
    )


@functools.partial(refuse_overflow, name="inverse")
def scalar_inverse(m):
    a = np.asarray(m, dtype=complex)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    d = complex(a00 * (a11 * a22 - a12 * a21) - a01 * (a10 * a22 - a12 * a20) + a02 * (a10 * a21 - a11 * a20))
    scale = max(1.0, frobenius(a) ** 3)
    if abs(d) <= SINGULARITY_RTOL * scale:
        raise SingularMatrix(
            f"determinant too small for the matrix scale: |det| = {abs(d):.3e} <= "
            f"{SINGULARITY_RTOL:g} * max(1, ||m||_F^3) = {SINGULARITY_RTOL * scale:.3e}"
        )
    adj = np.array(
        [
            [a11 * a22 - a12 * a21, a02 * a21 - a01 * a22, a01 * a12 - a02 * a11],
            [a12 * a20 - a10 * a22, a00 * a22 - a02 * a20, a02 * a10 - a00 * a12],
            [a10 * a21 - a11 * a20, a01 * a20 - a00 * a21, a00 * a11 - a01 * a10],
        ],
        dtype=complex,
    )
    return adj / d


def scalar_bwm_lines(p, a, b, ea, eb):
    """The 23 suite lines of one point, raising as the one-point suite did."""
    ident = np.eye(3, dtype=complex)
    ai = scalar_inverse(a)
    bi = scalar_inverse(b)
    omega = p.omega_skein
    sigma = p.sigma
    dtop = p.d if abs(omega) < DEGENERATE_OMEGA else d_topological(omega, sigma)
    return [
        ("skein_a", a - ai, omega * (ident - ea)),
        ("skein_b", b - bi, omega * (ident - eb)),
        ("braid", a @ b @ a, b @ a @ b),
        ("sandwich_a", ea @ eb @ ea, ea),
        ("sandwich_b", eb @ ea @ eb, eb),
        ("eigen_a_left", ea @ a, sigma * ea),
        ("eigen_a_right", a @ ea, sigma * ea),
        ("eigen_b_left", eb @ b, sigma * eb),
        ("eigen_b_right", b @ eb, sigma * eb),
        ("slide_ab", a @ b @ ea, eb @ a @ b),
        ("absorb_ab", eb @ a @ b, eb @ ea),
        ("slide_ba", b @ a @ eb, ea @ b @ a),
        ("absorb_ba", ea @ b @ a, ea @ eb),
        ("conjugate_a", a @ eb @ a, bi @ ea @ bi),
        ("conjugate_b", b @ ea @ b, ai @ eb @ ai),
        ("project_right_a", ea @ eb @ a, ea @ bi),
        ("project_right_b", eb @ ea @ b, eb @ ai),
        ("project_left_a", a @ eb @ ea, bi @ ea),
        ("project_left_b", b @ ea @ eb, ai @ eb),
        ("cross_eigen_a", ea @ b @ ea, ea / sigma),
        ("cross_eigen_b", eb @ a @ eb, eb / sigma),
        ("square_a", ea @ ea, dtop * ea),
        ("square_b", eb @ eb, dtop * eb),
    ]


def _residual_records(prefix, base, lines, tolerance):
    names, lhs, rhs = zip(*lines)
    residuals = rel_residual(np.stack(lhs), np.stack(rhs)).tolist()
    return [record_dict(f"{prefix}.{n}", base, r, tolerance) for n, r in zip(names, residuals)]


def scalar_bwm_point(cfg, q, p1, p2):
    base = {"q": float(q), "phi1": float(p1), "phi2": float(p2)}
    try:
        p = AlgebraParams.coupled(q, p1, p2)
        a, b, ea, eb = make_a(p), scalar_b(p.q, p.d, p1, p2), make_ea(p), scalar_eb(p.d, p1, p2)
        suite = _residual_records("bwm", base, scalar_bwm_lines(p, a, b, ea, eb), cli.RELATION_TOL)
    except BwmBerryError as exc:
        return [skip_dict("bwm.suite", base, cli.RELATION_TOL, exc)]
    u = scalar_u(p.d, p1, p2)
    ui = scalar_inverse(u)
    transports = [("transport_b", b, u @ a @ ui), ("transport_eb", eb, u @ ea @ ui)]
    transports.append(("unitary_u", dagger(u) @ u, np.eye(3, dtype=complex)))
    return suite + _residual_records("bwm", base, transports, cli.EXACT_TOL)


def scalar_tla_point(cfg, d, p1, p2):
    base = {"d": float(d), "phi1": float(p1), "phi2": float(p2)}
    try:
        p = AlgebraParams.tla(d, p1, p2)
        ea, eb = make_ea(p), scalar_eb(p.d, p1, p2)
        lines = [
            ("square_a", ea @ ea, d * ea),
            ("square_b", eb @ eb, d * eb),
            ("sandwich_a", ea @ eb @ ea, ea),
            ("sandwich_b", eb @ ea @ eb, eb),
        ]
        return _residual_records("tla", base, lines, cli.EXACT_TOL)
    except BwmBerryError as exc:
        return [skip_dict("tla.suite", base, cli.EXACT_TOL, exc)]


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# the stacked builders
# ---------------------------------------------------------------------------

PHASES = [0.0, -0.0, math.pi, -math.pi, math.pi / 2.0, -1e-300, 2.5, -1.3]
LOOP_VALUES = [GOLDEN_RATIO, 1.7, 2.0, 3.0, 7.5, 1e100]


@pytest.mark.parametrize("d", LOOP_VALUES)
def test_projector_and_unitary_stacks_have_the_bits_of_each_scalar_builder(d):
    rng = np.random.default_rng(7)
    phi1 = np.concatenate([PHASES, rng.uniform(-math.pi, math.pi, 40)])
    phi2 = np.concatenate([PHASES[::-1], rng.uniform(-math.pi, math.pi, 40)])
    weights = _phase_weights(d, phi1, phi2)
    eb, u = _eb_stack(weights), _u_stack(weights)
    for k, (p1, p2) in enumerate(zip(phi1.tolist(), phi2.tolist())):
        p = AlgebraParams.tla(d, p1, p2)
        assert same_bits(eb[k], scalar_eb(d, p1, p2)) and same_bits(make_eb(p), eb[k])
        assert same_bits(u[k], scalar_u(d, p1, p2)) and same_bits(make_u(p), u[k])


@pytest.mark.parametrize("q", [0.3, 0.9, 1.0, 1.5, 1e-3, 1e40])
def test_braid_stack_has_the_bits_of_the_scalar_builder(q):
    p = AlgebraParams.coupled(q)
    rng = np.random.default_rng(8)
    phi1, phi2 = rng.uniform(-math.pi, math.pi, (2, 30))
    b = _b_stack(_phase_weights(p.d, phi1, phi2), p.q)
    for k, (p1, p2) in enumerate(zip(phi1.tolist(), phi2.tolist())):
        assert same_bits(b[k], scalar_b(q, p.d, p1, p2))
        assert same_bits(make_b(AlgebraParams.coupled(q, p1, p2)), b[k])


def test_stack_with_one_loop_value_per_pair_matches_each_pair():
    # The exchange identity builds its projectors with a loop value per sample.
    d = np.array([GOLDEN_RATIO, 1.7, 1.9, 1.7])
    phi1, phi2 = np.array([0.4, -2.0, 1.2, -0.0]), np.array([-1.1, 0.7, 2.5, math.pi])
    weights = _phase_weights(d, phi1, phi2)
    ea, eb = _ea_stack(weights), _eb_stack(weights)
    for k in range(len(d)):
        assert same_bits(ea[k], make_ea(AlgebraParams.tla(d[k])))
        assert same_bits(eb[k], scalar_eb(float(d[k]), float(phi1[k]), float(phi2[k])))


@pytest.mark.parametrize("q", [1e100, 1e-100])
def test_braid_stack_refuses_overflow_as_make_b(q):
    p = AlgebraParams.coupled(q)
    with pytest.raises(InvalidParam, match="^make_b overflows double precision"):
        _b_stack(_phase_weights(p.d, [0.1, 0.2], [0.3, 0.4]), p.q)


# ---------------------------------------------------------------------------
# the stacked inverse
# ---------------------------------------------------------------------------

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def scaled_matrices(draw):
    """A complex 3x3 matrix with row scales 10**e: ordinary, near-singular, singular or with ||m||^3 overflowing.

    The exponents keep every cofactor product and the determinant inside the
    double range, so the scalar route raises no overflow warning.
    """
    m = np.array(draw(st.lists(finite, min_size=18, max_size=18))).reshape(2, 3, 3)
    m = m[0] + 1j * m[1]
    kind = draw(st.sampled_from(["plain", "near_singular", "singular"]))
    if kind != "plain":
        eps = 0.0 if kind == "singular" else draw(st.sampled_from([1e-15, 1e-12, 1e-9]))
        m[2] = m[0] + eps * m[1]
    exps = draw(st.lists(st.integers(-70, 120), min_size=3, max_size=3).filter(lambda e: sum(e) <= 290))
    return m * (10.0 ** np.array(exps, dtype=float))[:, None]


def scalar_inverse_or_error(m):
    try:
        return scalar_inverse(m)
    except BwmBerryError as exc:
        return exc


@settings(max_examples=150, deadline=None)
@given(st.lists(scaled_matrices(), min_size=1, max_size=6))
@example([np.diag([1e-3, 1e6, -1e3]).astype(complex), np.eye(3, dtype=complex)])  # the singular A at q = 1e-3
@example([np.diag([1e-60, 1e120, -1e60]).astype(complex), 2.0 * np.eye(3, dtype=complex)])  # ||m||_F^3 overflows
@example([np.zeros((3, 3), dtype=complex), np.eye(3, dtype=complex)])  # det = 0 exactly
@example([make_b(AlgebraParams.coupled(1e-3, 0.4, -1.1)), np.eye(3, dtype=complex)])  # |det| = 1.000e+06 on the bound
@example([make_b(AlgebraParams.coupled(1e-60, 0.4, -1.1)), np.eye(3, dtype=complex)])  # ||B||_F^3 overflows
@example([np.diag([1.0, 1.0, SINGULARITY_RTOL * math.sqrt(2.0) ** 3]).astype(complex)])  # |det| is the bound
def test_stacked_inverse_gives_each_matrix_its_own_result(matrices):
    stack = np.stack(matrices)
    inverses, errors = _inverse_stack(stack)
    for k, m in enumerate(matrices):
        expected = scalar_inverse_or_error(m)
        if isinstance(expected, BwmBerryError):
            assert type(errors[k]) is type(expected) and str(errors[k]) == str(expected)
            with pytest.raises(type(expected)) as raised:
                inverse(m)
            assert str(raised.value) == str(expected)
        else:
            assert k not in errors
            assert same_bits(inverses[k], expected) and same_bits(inverse(m), expected)


def test_stacked_inverse_finds_a_norm_beyond_the_double_range_per_matrix():
    huge = np.full((3, 3), 1e308, dtype=complex)  # ||m||_F = 3e308
    inverses, errors = _inverse_stack(np.stack([np.eye(3), huge, 4.0 * np.eye(3)]))  # its cofactors overflow silently
    assert set(errors) == {1} and str(errors[1]) == "the Frobenius norm overflows double precision"
    assert same_bits(inverses[0], np.eye(3, dtype=complex)) and same_bits(inverses[2], scalar_inverse(4.0 * np.eye(3)))


components = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150)


@settings(max_examples=300, deadline=None)
@given(components, components, components, components)
@example(1.0 + 2**-52, 1.0 - 2**-52, 3.0, 1.0 / 3.0)
def test_cmul_is_numpy_scalar_complex_multiply(ar, ai, br, bi):
    # The adjugate and determinant form their complex products with _cmul
    # because numpy's array multiply may fuse a product and a sum into one
    # FMA (it does with AVX-512) and round once where the scalar multiply
    # rounds twice, so the array ``*`` differs from the scalar ``*`` in the
    # last bit on about half of all products.  _cmul must be the scalar one.
    scalar = np.complex128(complex(ar, ai)) * np.complex128(complex(br, bi))
    re, im = _cmul(np.float64(ar), np.float64(ai), np.float64(br), np.float64(bi))
    assert same_bits([scalar.real, scalar.imag], [re, im])


def test_adjugate_det_keeps_the_bits_of_the_scalar_expansion():
    rng = np.random.default_rng(9)
    for m in rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3)):
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = m
        d = complex(a00 * (a11 * a22 - a12 * a21) - a01 * (a10 * a22 - a12 * a20) + a02 * (a10 * a21 - a11 * a20))
        assert same_bits(_adjugate_det(m[None])[1][0], d)


# ---------------------------------------------------------------------------
# the verify records
# ---------------------------------------------------------------------------


def report_lines(path):
    """The text of each element of the report's ``checks``, one per line."""
    text = path.read_text(encoding="utf-8")
    if '"checks": []' in text:
        return []
    body = text[text.index('"checks": [\n') :].split("\n  ]")[0]
    return [line.strip().rstrip(",") for line in body.splitlines()[1:]]


def bwm_outcome(evaluate):
    """What ``evaluate()`` returns, or the type and text of the error it raises."""
    try:
        return evaluate()
    except BwmBerryError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(q=st.floats(1e-2, 1e2), phi1=st.floats(-math.pi, math.pi), phi2=st.floats(-math.pi, math.pi))
@example(q=1.0, phi1=0.8, phi2=-0.3)  # omega = 0: the involution lines and the suite's notes
@example(q=1e-3, phi1=0.4, phi2=-1.1)  # A is refused by inverse: both raise
@example(q=1.0 - 1e-7, phi1=0.3, phi2=-1.1)  # the projector squares graded at their bound, and noted
def test_property_the_suite_is_the_first_lines_of_the_stacked_row(q, phi1, phi2):
    # check_bwm_suite and the stacked row share ``_bwm_lines``: the suite's 23
    # residuals are the row's first 23, bit for bit, or both raise alike.
    suite = bwm_outcome(lambda: check_bwm_suite(AlgebraParams.coupled(q, phi1, phi2)))
    row = bwm_outcome(lambda: _bwm_row(AlgebraParams.coupled(q), [phi1], [phi2]))
    if isinstance(suite, tuple):
        assert row == suite and (q != 1e-3 or suite[0] is SingularMatrix)
        return
    names, (residuals,) = row
    n = len(names) - len(TRANSPORT_LINES)
    assert n == 23 and [c.name for c in suite.checks] == list(names[:n])
    assert np.array([c.residual for c in suite.checks]).tobytes() == np.array(residuals[:n]).tobytes()
    assert suite.tolerance == cli.RELATION_TOL
    degenerate = abs(AlgebraParams.coupled(q).omega_skein) < DEGENERATE_OMEGA
    widened = _square_tolerance(AlgebraParams.coupled(q), cli.RELATION_TOL) > cli.RELATION_TOL
    assert [note.startswith("omega_skein ~ 0: skein lines reduce") for note in suite.notes] == [True] * degenerate + [False] * widened
    assert all(note.startswith("square_a and square_b graded at ") for note in suite.notes[degenerate:])


# Rows with a singular A (1e-3), q <= 0, q = 1 (degenerate skein weight),
# an overflowing q (1e150), d below the golden ratio and d = 1e100.
EDGE_GRIDS = ["--grid-spec", "q=1e-3,-1,0,1,0.7,1e150", "--grid-spec", f"tla_d=1.5,{GOLDEN_RATIO!r},3,1e100"]


@pytest.mark.parametrize("pairs, jobs", [(0, 1), (1, 1), (1, 2), (256, 1), (257, 1), (257, 2)])
def test_verify_records_match_the_per_point_route(pairs, jobs, tmp_path):
    argv = ["verify", *EDGE_GRIDS, "--phase-pairs", str(pairs), "--ybe-samples", "0", "--jobs", str(jobs)]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    cfg = config.build_config(config.build_parser().parse_args(argv))
    phase_pairs = cli._phase_pairs(cfg).tolist()
    expected = [rec for q in cfg.grid("q") for p1, p2 in phase_pairs for rec in scalar_bwm_point(cfg, q, p1, p2)]
    expected += [rec for d in cfg.grid("tla_d") for p1, p2 in phase_pairs for rec in scalar_tla_point(cfg, d, p1, p2)]
    assert report_lines(tmp_path / "verify_report.json") == [line(r) for r in expected]
    report = json.loads((tmp_path / "verify_report.json").read_text(encoding="utf-8"))
    timings = report["meta"]["timings"]
    chunks = -(-pairs // cli.CHUNK)
    assert timings["verify.bwm"]["rows"] == 6 * chunks and timings["verify.tla"]["rows"] == 4 * chunks
    # q = 1e-3, -1, 0 and 1e150 skip whole rows, and so does d = 1.5.
    assert report["summary"]["skipped"] == 4 * pairs + pairs


#: q on both sides of 1, from where d_topological keeps most digits to just short of the degenerate form.
NEAR_ONE = [1.0 + sign * gap for gap in (1e-5, 1e-7, 1e-9, 1e-11) for sign in (1.0, -1.0)]


def _squares(path):
    checks = json.loads(path.read_text(encoding="utf-8"))["checks"]
    return [c for c in checks if c["name"] in ("bwm.square_a", "bwm.square_b")], checks


def test_verify_grades_the_projector_squares_at_their_bound_near_q_one(tmp_path):
    # d_topological cancels near q = 1: at q = 1 - 1e-7 the squares read 3.7e-10 against 1e-10, and
    # at 1 - 1e-9, 3.7e-8.  Each row grades them at _square_tolerance; every other line keeps its own.
    grids = ["--grid-spec", "q=" + ",".join(map(repr, NEAR_ONE)), "--grid-spec", "tla_d=2"]
    assert cli.main(["verify", "--phase-pairs", "20", "--ybe-samples", "0", *grids, "--out", str(tmp_path)]) == 0
    squares, checks = _squares(tmp_path / "verify_report.json")
    assert len(squares) == len(NEAR_ONE) * 20 * 2 and all(c["status"] == "pass" for c in checks)
    for c in squares:
        q = c["params"]["q"]
        assert c["tolerance"] == _square_tolerance(AlgebraParams.coupled(q), cli.RELATION_TOL)
        assert (c["tolerance"] > cli.RELATION_TOL) == (abs(q - 1.0) < 1e-6)
    others = {(c["name"], c["tolerance"]) for c in checks if c not in squares and c["name"].startswith("bwm.")}
    assert {t for _, t in others} == {cli.RELATION_TOL, cli.EXACT_TOL}
    # The run that read exit 1 before.
    argv = ["verify", "--phase-pairs", "5", "--ybe-samples", "0", "--grid-spec", "q=0.9999999", "--grid-spec", "tla_d=2"]
    assert cli.main([*argv, "--out", str(tmp_path / "one")]) == 0


def test_verify_still_fails_projectors_scaled_by_1e_9_at_q_one_half(tmp_path, monkeypatch):
    # Away from q = 1 the squares keep RELATION_TOL, so E_A and E_B off by 1e-9 fail them.
    monkeypatch.setattr(algebra, "make_ea", lambda p, make_ea=algebra.make_ea: make_ea(p) * (1.0 + 1e-9))
    monkeypatch.setattr(algebra, "_eb_stack", lambda weights, stack=algebra._eb_stack: stack(weights) * (1.0 + 1e-9))
    grids = ["--grid-spec", "q=0.5", "--grid-spec", "tla_d=2"]
    assert cli.main(["verify", "--phase-pairs", "3", "--ybe-samples", "0", *grids, "--out", str(tmp_path)]) == 1
    squares, _ = _squares(tmp_path / "verify_report.json")
    assert len(squares) == 6 and all((c["status"], c["tolerance"]) == ("fail", cli.RELATION_TOL) for c in squares)
