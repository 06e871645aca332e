"""Acceptance gate: the shipped guarantees, one test per criterion.

Every test prints exactly one ``[criterion NN] PASS/FAIL`` line (visible
even under pytest's capture) and then asserts, so a bare ``pytest`` run
doubles as the acceptance report.
"""

import json
import math
import time

import numpy as np
import pytest

from bwmberry import (
    GOLDEN_RATIO,
    AlgebraParams,
    DriveParams,
    SpectralParams,
    berry_closed,
    berry_wilson_loop,
    check_bwm_suite,
    check_tla,
    cos_alpha,
    dagger,
    decomposition_residual,
    figure_data,
    frobenius,
    hamiltonian,
    hermitian_eigs,
    inverse,
    ladder_ops,
    loop_eigenframes,
    make_a,
    make_b,
    make_ea,
    make_eb,
    make_r_theta,
    make_u,
    pancharatnam_phase,
    rel_residual,
    velocity_add,
    z_of_u,
)
from bwmberry.cli import main as cli_main

TAU = 2.0 * math.pi
SEED = 20260815

Q_GRID = (0.5, 0.9, 1.3, 2.0)
TLA_D_GRID = (GOLDEN_RATIO, 1.8, 2.0, 3.0, 5.0)
THETA_GRID = (0.0, 0.4, math.pi / 6.0, 1.0, 2.2)
D_GRID = (1.7, 2.0, 3.0, 5.0)
OMEGA_GRID = (0.5, 1.0)
PHI_GRID = (0.0, 1.3)
BERRY_THETA_GRID = (0.3, 0.7, 1.2, 2.0)


def phase_pairs(count: int = 5) -> list[tuple[float, float]]:
    rng = np.random.default_rng(SEED)
    return [tuple(float(x) for x in row) for row in rng.uniform(-math.pi, math.pi, size=(count, 2))]


def wrap(x: float) -> float:
    y = math.remainder(x, TAU)
    return y + TAU if y <= -math.pi else y


@pytest.fixture
def verdict(capsys):
    def _verdict(num: int, label: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {label}")

    return _verdict


def test_criterion_01_defining_relation_suite(verdict):
    started = time.perf_counter()
    worst = 0.0
    for q in Q_GRID:
        for p1, p2 in phase_pairs():
            p = AlgebraParams.coupled(q, p1, p2)
            assert p.d == pytest.approx(q + 1.0 + 1.0 / q)
            assert p.omega_skein == pytest.approx(q - 1.0 / q)
            assert p.sigma == pytest.approx(q**-2)
            report = check_bwm_suite(p, tolerance=1e-10)
            worst = max(worst, report.worst)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 1.0
    verdict(1, f"defining relation suite, worst residual {worst:.3e} in {elapsed:.2f}s", ok)
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_02_projector_pair_suite(verdict):
    worst = 0.0
    for d in TLA_D_GRID:
        for p1, p2 in phase_pairs():
            p = AlgebraParams.tla(d, p1, p2)
            report = check_tla(make_ea(p), make_eb(p), d, tolerance=1e-12)
            worst = max(worst, report.worst)
    ok = worst < 1e-12
    verdict(2, f"projector pair suite incl. golden-ratio boundary, worst {worst:.3e}", ok)
    assert worst < 1e-12


def test_criterion_03_conjugation_transport(verdict):
    ident = np.eye(3, dtype=complex)
    worst = 0.0
    thetas = (0.3, 1.0, 2.2)
    for q in Q_GRID:
        for p1, p2 in phase_pairs():
            p = AlgebraParams.coupled(q, p1, p2)
            u = make_u(p)
            ui = inverse(u)
            worst = max(worst, rel_residual(make_b(p), u @ make_a(p) @ ui))
            worst = max(worst, rel_residual(make_eb(p), u @ make_ea(p) @ ui))
            worst = max(worst, rel_residual(dagger(u) @ u, ident))
            for theta in thetas:
                pair = make_r_theta(theta, p)
                worst = max(worst, rel_residual(pair.b, u @ pair.a @ ui))
    for d in TLA_D_GRID:
        for p1, p2 in phase_pairs():
            p = AlgebraParams.tla(d, p1, p2)
            u = make_u(p)
            ui = inverse(u)
            worst = max(worst, rel_residual(make_eb(p), u @ make_ea(p) @ ui))
            worst = max(worst, rel_residual(dagger(u) @ u, ident))
            for theta in thetas:
                pair = make_r_theta(theta, p)
                worst = max(worst, rel_residual(pair.b, u @ pair.a @ ui))
    ok = worst < 1e-12
    verdict(3, f"conjugation transport and unitarity, worst {worst:.3e}", ok)
    assert worst < 1e-12


def test_criterion_04_exchange_identity(verdict):
    from bwmberry import ybe_residual

    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    samples = [
        SpectralParams(u=0.0, v=0.37, beta=0.3, epsilon=1, d=1.7, phi1=0.4, phi2=-1.1),
        SpectralParams(u=0.41, v=-0.41, beta=1.0, epsilon=-1, d=1.9, phi1=-2.0, phi2=0.7),
    ]
    for _ in range(200):
        u, v = rng.uniform(-0.9, 0.9, size=2)
        samples.append(
            SpectralParams(
                u=float(u),
                v=float(v),
                beta=float(rng.choice([0.3, 1.0])),
                epsilon=int(rng.choice([-1, 1])),
                d=float(rng.choice([1.7, 1.9])),
                phi1=float(rng.uniform(-math.pi, math.pi)),
                phi2=float(rng.uniform(-math.pi, math.pi)),
            )
        )
    worst_residual = 0.0
    worst_modulus = 0.0
    for s in samples:
        worst_residual = max(worst_residual, ybe_residual(s))
        w = velocity_add(s.u, s.v, s.beta)
        for x in (s.u, s.v, w):
            worst_modulus = max(worst_modulus, abs(abs(z_of_u(x, s)) - 1.0))
    elapsed = time.perf_counter() - started
    ok = worst_residual < 1e-10 and worst_modulus < 1e-13 and elapsed < 2.0
    verdict(
        4,
        f"exchange identity over {len(samples)} samples, worst {worst_residual:.3e}, "
        f"|z| drift {worst_modulus:.3e}, {elapsed:.2f}s",
        ok,
    )
    assert worst_residual < 1e-10
    assert worst_modulus < 1e-13
    assert elapsed < 2.0


def test_criterion_05_generator_spectrum(verdict):
    worst_eig = 0.0
    worst_trace = 0.0
    worst_phi_drift = 0.0
    for theta in THETA_GRID:
        for d in D_GRID:
            for omega in OMEGA_GRID:
                dp = DriveParams(theta=theta, d=d, omega_drive=omega)
                level = omega * cos_alpha(theta, d)
                predicted = np.sort([0.0, level, -level])
                spectra = []
                for phi in PHI_GRID:
                    h = hamiltonian(phi, dp)
                    values = hermitian_eigs(h).values
                    spectra.append(values)
                    worst_eig = max(worst_eig, float(np.max(np.abs(values - predicted))))
                    worst_trace = max(worst_trace, abs(np.trace(h)))
                worst_phi_drift = max(
                    worst_phi_drift, float(np.max(np.abs(spectra[0] - spectra[1])))
                )
    ok = worst_eig < 1e-10 and worst_trace < 1e-12 and worst_phi_drift < 1e-12
    verdict(
        5,
        f"generator spectrum {{0, +-hw cos(alpha)}}, worst {worst_eig:.3e}, "
        f"trace {worst_trace:.3e}, phase drift {worst_phi_drift:.3e}",
        ok,
    )
    assert worst_eig < 1e-10
    assert worst_trace < 1e-12
    assert worst_phi_drift < 1e-12


def test_criterion_06_embedded_su2_and_casimir(verdict):
    worst_comm = 0.0
    worst_nilpotent = 0.0
    worst_casimir = 0.0
    worst_decomp = 0.0
    checked = 0
    for theta in THETA_GRID:
        for d in D_GRID:
            trip = ladder_ops(theta, d)
            checked += 1
            comm = lambda x, y: x @ y - y @ x
            worst_comm = max(
                worst_comm,
                rel_residual(comm(trip.s_plus, trip.s_minus), 2.0 * trip.s3),
                rel_residual(comm(trip.s3, trip.s_plus), trip.s_plus),
                rel_residual(comm(trip.s3, trip.s_minus), -trip.s_minus),
            )
            zero = np.zeros((3, 3), dtype=complex)
            worst_nilpotent = max(
                worst_nilpotent,
                rel_residual(trip.s_plus @ trip.s_plus, zero),
                rel_residual(trip.s_minus @ trip.s_minus, zero),
            )
            casimir = (
                0.5 * (trip.s_plus @ trip.s_minus + trip.s_minus @ trip.s_plus)
                + trip.s3 @ trip.s3
            )
            worst_casimir = max(
                worst_casimir,
                float(np.max(np.abs(hermitian_eigs(casimir).values - [0.0, 0.75, 0.75]))),
            )
            for omega in OMEGA_GRID:
                dp = DriveParams(theta=theta, d=d, omega_drive=omega)
                for phi in PHI_GRID:
                    worst_decomp = max(worst_decomp, decomposition_residual(phi, dp))
    ok = (
        checked > 0
        and worst_comm < 1e-10
        and worst_nilpotent < 1e-12
        and worst_casimir < 1e-10
        and worst_decomp < 1e-10
    )
    verdict(
        6,
        f"embedded su(2) triple on {checked} points: "
        f"commutators {worst_comm:.3e}, nilpotency {worst_nilpotent:.3e}, "
        f"casimir {worst_casimir:.3e}, decomposition {worst_decomp:.3e}",
        ok,
    )
    assert checked > 0
    assert worst_comm < 1e-10
    assert worst_nilpotent < 1e-12
    assert worst_casimir < 1e-10
    assert worst_decomp < 1e-10


def test_criterion_07_loop_phase_cross_validation(verdict):
    started = time.perf_counter()
    worst_match = 0.0
    worst_zero = 0.0
    for theta in BERRY_THETA_GRID:
        for d in D_GRID:
            closed = berry_closed(theta, d, "sin_form")
            loop = berry_wilson_loop(theta, d, steps=4096)
            got = sorted((wrap(loop.gamma_plus), wrap(loop.gamma_minus)))
            want = sorted((wrap(closed.gamma_plus), wrap(closed.gamma_minus)))
            worst_match = max(
                worst_match,
                abs(wrap(loop.gamma_plus - closed.gamma_plus)),
                abs(wrap(loop.gamma_minus - closed.gamma_minus)),
                abs(wrap(got[0] - want[0])),
                abs(wrap(got[1] - want[1])),
            )
            worst_zero = max(worst_zero, abs(loop.gamma_zero))
    elapsed = time.perf_counter() - started
    ok = worst_match < 1e-4 and worst_zero < 1e-6 and elapsed < 10.0
    verdict(
        7,
        f"loop phases vs closed forms at 4096 steps, worst {worst_match:.3e}, "
        f"flat branch {worst_zero:.3e}, {elapsed:.2f}s",
        ok,
    )
    assert worst_match < 1e-4
    assert worst_zero < 1e-6
    assert elapsed < 10.0


def test_criterion_08_section_tables(verdict):
    thetas = np.linspace(0.0, TAU, 1001)  # hits 0, pi, 2 pi exactly
    d_values = (1.0, math.sqrt(2.0), 2.0, 3.0, 5.0)
    columns = {d: [g for _, _, g in figure_data(thetas, (d,))] for d in d_values}

    worst_sqrt2 = max(
        abs(g - math.pi * (1.0 - math.cos(t)))
        for t, g in zip(thetas, columns[math.sqrt(2.0)])
    )
    worst_flat = max(abs(g - math.pi) for g in columns[1.0])
    worst_extrema = 0.0
    maxima, minima = {}, {}
    for d in d_values:
        env = 2.0 * math.sqrt(d * d - 1.0) / d**2
        maxima[d] = max(columns[d])
        minima[d] = min(columns[d])
        worst_extrema = max(
            worst_extrema,
            abs(maxima[d] - math.pi * (1.0 + env)),
            abs(minima[d] - math.pi * (1.0 - env)),
        )
    # The stated envelope behaviour (maxima shrink, minima grow as d grows)
    # holds from d = sqrt(2) upward; at d = 1 the curve is the constant pi.
    envelope_ds = [d for d in d_values if d >= math.sqrt(2.0)]
    max_monotone = all(
        maxima[a] > maxima[b] for a, b in zip(envelope_ds, envelope_ds[1:])
    )
    min_monotone = all(
        minima[a] < minima[b] for a, b in zip(envelope_ds, envelope_ds[1:])
    )
    tail = abs(figure_data([0.0], (1e6,))[0][2] - math.pi)

    ok = (
        worst_sqrt2 < 1e-12
        and worst_flat < 1e-12
        and worst_extrema < 1e-12
        and max_monotone
        and min_monotone
        and tail <= 7e-6
    )
    verdict(
        8,
        f"section tables: sqrt2 law {worst_sqrt2:.3e}, flat {worst_flat:.3e}, "
        f"extrema {worst_extrema:.3e}, envelopes monotone {max_monotone and min_monotone}, "
        f"large-d tail {tail:.3e}",
        ok,
    )
    assert worst_sqrt2 < 1e-12
    assert worst_flat < 1e-12
    assert worst_extrema < 1e-12
    assert max_monotone and min_monotone
    assert tail <= 7e-6


def test_criterion_09_gauge_invariance(verdict):
    _, _, vectors = loop_eigenframes(0.7, 2.0, steps=512)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for branch in range(3):
        states = vectors[:, :, branch]
        reference = pancharatnam_phase(states)
        for _ in range(3):
            rephased = states * np.exp(1j * rng.uniform(0.0, TAU, size=(states.shape[0], 1)))
            worst = max(worst, abs(pancharatnam_phase(rephased) - reference))
    ok = worst < 1e-12
    verdict(9, f"loop phase invariant under random per-step rephasing, drift {worst:.3e}", ok)
    assert worst < 1e-12


def test_criterion_10_deterministic_artifacts(verdict, tmp_path, capsys):
    verify_args = [
        "verify",
        "--grid-spec",
        "q=0.9,2.0",
        "--grid-spec",
        "tla_d=2.0,3.0",
        "--phase-pairs",
        "2",
        "--ybe-samples",
        "25",
        "--seed",
        "11",
    ]
    figure_args = ["figure", "--theta-points", "201", "--d-mesh", "1:6:21"]
    codes = [
        cli_main([*verify_args, "--out", str(tmp_path / "v1")]),
        cli_main([*verify_args, "--out", str(tmp_path / "v2")]),
        cli_main([*figure_args, "--out", str(tmp_path / "f1")]),
        cli_main([*figure_args, "--out", str(tmp_path / "f2")]),
    ]
    capsys.readouterr()  # swallow the four summary lines

    def report_ex_meta(path):
        data = json.loads(path.read_text(encoding="utf-8"))
        data.pop("meta")
        return json.dumps(data, sort_keys=True)

    verify_same = report_ex_meta(tmp_path / "v1" / "verify_report.json") == report_ex_meta(
        tmp_path / "v2" / "verify_report.json"
    )
    figure_same = report_ex_meta(tmp_path / "f1" / "figure_report.json") == report_ex_meta(
        tmp_path / "f2" / "figure_report.json"
    )
    csv_same = all(
        (tmp_path / "f1" / name).read_bytes() == (tmp_path / "f2" / name).read_bytes()
        for name in ("figure_sections.csv", "figure_surface.csv")
    )
    ok = codes == [0, 0, 0, 0] and verify_same and figure_same and csv_same
    verdict(
        10,
        "re-runs with fixed seed produce identical reports and tables "
        f"(reports {verify_same and figure_same}, csv {csv_same})",
        ok,
    )
    assert codes == [0, 0, 0, 0]
    assert verify_same
    assert figure_same
    assert csv_same
