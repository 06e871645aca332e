"""End-to-end tests of the command-line front end."""

import ast
import contextlib
import dataclasses
import errno
import io
import itertools
import json
import math
import os
import pickle
import platform
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bwmberry import (
    GOLDEN_RATIO,
    AlgebraParams,
    BwmBerryError,
    DegenerateSpectrum,
    DriveParams,
    InvalidParam,
    NoConvergence,
    NotHermitian,
    SingularMatrix,
    berry,
    berry_closed,
    cli,
    cos_alpha,
    hamiltonian_stack,
    hermitian_eigs,
    ladder_ops,
)
from bwmberry import report as writer
from bwmberry.algebra import DOMAIN_SLACK
from bwmberry.cli import KNOBS, build_config, build_parser, main
from record_dicts import csv_dict, line, lines, record_dict, skip_dict

PI_THIRD = repr(math.pi / 3.0)
PI_HALF = repr(math.pi / 2.0)
SQRT2 = repr(math.sqrt(2.0))

SMALL_VERIFY = [
    "--grid-spec",
    "q=0.9,2.0",
    "--grid-spec",
    "tla_d=2.0",
    "--phase-pairs",
    "2",
    "--ybe-samples",
    "5",
]

# Casimir and H points skip as invalid_param below the golden ratio (d = 1.2 and
# sqrt 2, including the ladder normalisation pole at (pi/2, sqrt 2)).
SPECTRUM_DOMAIN_GRIDS = [
    "--grid-spec",
    f"theta=0.3,{PI_HALF},2.2",
    "--grid-spec",
    f"d=1.2,{SQRT2},1.7,2,3",
    "--grid-spec",
    "omega=0.5,1",
    "--grid-spec",
    "phi=0,1.3",
]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_report(out_dir, command):
    path = out_dir / f"{command}_report.json"
    assert path.is_file(), f"missing report {path}"
    return json.loads(path.read_text(encoding="utf-8"))


def strip_meta(report: dict) -> dict:
    trimmed = dict(report)
    trimmed.pop("meta")
    return trimmed


#: The bytes of a report a failed run must leave as it was.
OLD_REPORT = b'{"an": "earlier report"}\n'


def place_old_report(out_dir, command, existing):
    """Put ``OLD_REPORT`` at the command's report path if ``existing``; return the names the directory must keep."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if not existing:
        return []
    (out_dir / f"{command}_report.json").write_bytes(OLD_REPORT)
    return [f"{command}_report.json"]


def assert_left_as_it_was(out_dir, command, kept):
    """Only the files in ``kept`` are there, no report and no temporary file, and an earlier report is unchanged."""
    assert sorted(os.listdir(out_dir)) == sorted(kept)
    if f"{command}_report.json" in kept and (out_dir / f"{command}_report.json").is_file():
        assert (out_dir / f"{command}_report.json").read_bytes() == OLD_REPORT


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_and_writes_report(tmp_path, capsys):
    code, out, err = run(["verify", "--out", str(tmp_path), *SMALL_VERIFY], capsys)
    assert code == 0
    report = load_report(tmp_path, "verify")
    assert report["schema"] == 1
    summary = report["summary"]
    assert summary["overall_pass"] is True
    assert summary["failed"] == 0
    assert summary["checks"] == len(report["checks"])
    assert summary["worst_residual"] < 1e-10
    assert "[bwmberry verify]" in out
    assert f"{summary['passed']}/{summary['checks']} checks passed" in out
    names = {c["name"] for c in report["checks"]}
    assert {"bwm.braid", "bwm.transport_b", "bwm.transport_eb", "bwm.unitary_u"} <= names
    assert {"tla.square_a", "ybe.exchange", "ybe.unimodularity"} <= names


def test_verify_tight_tolerance_reports_failures(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "RELATION_TOL", 1e-16)
    code, out, _ = run(["verify", "--out", str(tmp_path), *SMALL_VERIFY], capsys)
    assert code == 1
    report = load_report(tmp_path, "verify")
    assert report["summary"]["failed"] > 0
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    # Failures are raw double-precision residuals, far below any honest bound.
    assert all(c["residual"] < 1e-10 for c in failed)


def test_verify_empty_grids_warn_but_pass(tmp_path, capsys):
    code, out, err = run(
        [
            "verify",
            "--out",
            str(tmp_path),
            "--grid-spec",
            "q=",
            "--grid-spec",
            "tla_d=",
            "--ybe-samples",
            "0",
        ],
        capsys,
    )
    assert code == 0
    assert "no checks were executed" in err
    report = load_report(tmp_path, "verify")
    assert report["summary"]["checks"] == 0
    assert report["summary"]["overall_pass"] is True
    assert report["warnings"]


@pytest.mark.parametrize("empty", [["ybe_beta"], ["ybe_d"], ["ybe_beta", "ybe_d"]])
def test_empty_exchange_grid_warns_that_the_seeded_samples_were_not_drawn(empty, tmp_path, capsys):
    specs = [arg for name in empty for arg in ("--grid-spec", f"{name}=")]
    code, _, err = run(["verify", "--out", str(tmp_path), *SMALL_VERIFY, "--ybe-samples", "500", *specs], capsys)
    assert code == 0
    warning = f"grid {' and '.join(empty)} is empty: the 500 seeded exchange samples were not drawn"
    report = load_report(tmp_path, "verify")
    assert report["warnings"] == [warning]
    assert f"warning: {warning}\n" in err
    assert report["meta"]["timings"]["verify.ybe_draw"]["points"] == 3  # the corner samples only
    assert sum(c["name"] == "ybe.exchange" for c in report["checks"]) == 3


# An exchange sample's real angles need 0 < d < 2, so a ybe_d value outside is
# refused with the grid's name before any family is evaluated; a value in
# (0, golden ratio) has real angles but no R matrices, and skips per sample.
@pytest.mark.parametrize("value", ["2.5", "2", "0", "-1"])
def test_ybe_d_outside_the_real_angle_domain_is_a_config_error(value, tmp_path, capsys):
    code, out, err = run(["verify", "--out", str(tmp_path), "--grid-spec", f"ybe_d=1.7,{value}"], capsys)
    assert code == 2 and not out and not list(tmp_path.iterdir())
    assert err.startswith("error: grid 'ybe_d' must be a list of finite numbers in (0, 2)")


def test_ybe_d_below_the_golden_ratio_skips_per_sample(tmp_path, capsys):
    grids = ["--grid-spec", "q=", "--grid-spec", "tla_d=", "--grid-spec", "ybe_d=1.5"]
    code, _, _ = run(["verify", "--out", str(tmp_path), *grids, "--ybe-samples", "4"], capsys)
    assert code == 0
    seeded = [c for c in load_report(tmp_path, "verify")["checks"] if c["params"]["d"] == 1.5]
    assert [(c["name"], c["reason"]) for c in seeded] == [("ybe.exchange", "invalid_param")] * 4


def test_verify_deterministic_across_runs_and_jobs(tmp_path, capsys):
    args = [*SMALL_VERIFY, "--seed", "7"]
    run(["verify", "--out", str(tmp_path / "a"), *args], capsys)
    run(["verify", "--out", str(tmp_path / "b"), *args], capsys)
    run(["verify", "--out", str(tmp_path / "c"), *args, "--jobs", "2"], capsys)
    rep_a = strip_meta(load_report(tmp_path / "a", "verify"))
    rep_b = strip_meta(load_report(tmp_path / "b", "verify"))
    rep_c = strip_meta(load_report(tmp_path / "c", "verify"))
    assert rep_a == rep_b == rep_c


def test_verify_seed_changes_sampled_points(tmp_path, capsys):
    run(["verify", "--out", str(tmp_path / "a"), *SMALL_VERIFY, "--seed", "1"], capsys)
    run(["verify", "--out", str(tmp_path / "b"), *SMALL_VERIFY, "--seed", "2"], capsys)
    rep_a = load_report(tmp_path / "a", "verify")
    rep_b = load_report(tmp_path / "b", "verify")
    params_a = [c["params"] for c in rep_a["checks"] if c["name"] == "ybe.exchange"]
    params_b = [c["params"] for c in rep_b["checks"] if c["name"] == "ybe.exchange"]
    assert params_a != params_b


def test_the_seed_moves_the_seeded_exchange_samples_but_not_the_corners(tmp_path, capsys):
    for seed in ("1", "2"):
        run(["verify", "--out", str(tmp_path / seed), *SMALL_VERIFY, "--seed", seed], capsys)
    params_a, params_b = (
        [c["params"] for c in load_report(tmp_path / seed, "verify")["checks"] if c["name"] == "ybe.exchange"]
        for seed in ("1", "2")
    )
    corners = [dict(zip(cli._YBE_KEYS, map(float, row)), epsilon=row[3]) for row in cli._YBE_CORNERS]
    assert params_a[:3] == params_b[:3] == corners
    assert len(params_a) == len(params_b) == 3 + 5
    assert all(a["u"] != b["u"] and a["phi1"] != b["phi1"] for a, b in zip(params_a[3:], params_b[3:]))


def test_zero_exchange_samples_run_no_exchange_checks_not_even_the_corners(tmp_path, capsys):
    code, _, err = run(["verify", "--out", str(tmp_path), *SMALL_VERIFY, "--ybe-samples", "0"], capsys)
    assert code == 0 and not err
    report = load_report(tmp_path, "verify")
    names = {c["name"].split(".")[0] for c in report["checks"]}
    assert names == {"bwm", "tla"} and not report["warnings"]
    timings = report["meta"]["timings"]
    assert timings["verify.ybe_draw"]["points"] == 0
    assert (timings["verify.ybe"]["points"], timings["verify.ybe"]["rows"]) == (0, 0)


def test_verify_tla_below_golden_ratio_skips(tmp_path, capsys):
    code, _, _ = run(["verify", "--out", str(tmp_path), *SMALL_VERIFY, "--grid-spec", "tla_d=1.2"], capsys)
    assert code == 0
    tla = [c for c in load_report(tmp_path, "verify")["checks"] if c["name"].startswith("tla.")]
    assert tla and all((c["name"], c["status"], c["reason"]) == ("tla.suite", "skip", "invalid_param") for c in tla)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_reports_predicted_levels(tmp_path, capsys):
    code, _, _ = run(
        [
            "spectrum",
            "--out",
            str(tmp_path),
            "--grid-spec",
            f"theta=0,{math.pi / 6.0!r}",
            "--grid-spec",
            "d=2",
            "--grid-spec",
            "omega=1",
            "--grid-spec",
            "phi=0",
        ],
        capsys,
    )
    assert code == 0
    report = load_report(tmp_path, "spectrum")
    levels = {
        round(c["params"]["theta"], 12): c["data"]
        for c in report["checks"]
        if c["name"] == "spectrum.h_eigenvalues"
    }
    flat = levels[0.0]
    assert flat["predicted"] == [0.0, 0.0, 0.0]
    split = levels[round(math.pi / 6.0, 12)]
    assert split["predicted"][2] == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-14)
    assert max(abs(a - b) for a, b in zip(split["observed"], split["predicted"])) < 1e-10
    casimirs = [c for c in report["checks"] if c["name"] == "spectrum.casimir"]
    assert casimirs and all(c["status"] == "pass" for c in casimirs)
    assert all(c["data"]["predicted"] == [0.0, 0.75, 0.75] for c in casimirs)


def test_spectrum_residual_is_relative_to_the_largest_level(tmp_path, capsys):
    # Levels of size ~1e7 carry rounding errors of ~1e-9, far above the
    # absolute tolerance but ~1e-16 relative to the levels.
    grids = ["--grid-spec", "omega=1e7", "--grid-spec", "theta=0.3,1.0,2.2", "--grid-spec", "d=1.7,2,3,5"]
    code, _, _ = run(["spectrum", "--out", str(tmp_path), *grids, "--grid-spec", "phi=0,1.3"], capsys)
    assert code == 0
    for c in load_report(tmp_path, "spectrum")["checks"]:
        assert c["status"] == "pass"
        deviation = max(abs(a - b) for a, b in zip(c["data"]["observed"], c["data"]["predicted"]))
        assert c["residual"] == deviation / max(1.0, *map(abs, c["data"]["predicted"]))


def test_spectrum_domain_violations_become_skips(tmp_path, capsys):
    code, _, _ = run(
        [
            "spectrum",
            "--out",
            str(tmp_path),
            "--grid-spec",
            f"theta=0.3,{PI_HALF}",
            "--grid-spec",
            f"d={SQRT2}",
            "--grid-spec",
            "omega=1",
            "--grid-spec",
            "phi=0",
        ],
        capsys,
    )
    # Skips are reported per-point, never fatal.
    assert code == 0
    checks = load_report(tmp_path, "spectrum")["checks"]
    for c in checks:
        assert (c["status"], c["reason"]) == ("skip", "invalid_param")
    # The ladder normalisation pole at (pi/2, sqrt(2)) lies below the golden
    # ratio, so the projector-domain guard refuses it like every other point.
    casimir = [c["params"] for c in checks if c["name"] == "spectrum.casimir"]
    assert {"theta": math.pi / 2.0, "d": math.sqrt(2.0)} in casimir


@pytest.mark.parametrize("error, reason", [(NoConvergence, "no_convergence"), (NotHermitian, "not_hermitian")])
def test_spectrum_solver_errors_become_skips(error, reason, tmp_path, capsys, monkeypatch):
    def fail(matrix):
        raise error("injected solver failure")

    monkeypatch.setattr(cli, "_eigh", fail)
    grids = ["--grid-spec", "theta=0.4", "--grid-spec", "d=2", "--grid-spec", "omega=1", "--grid-spec", "phi=0"]
    code, _, err = run(["spectrum", "--out", str(tmp_path), *grids], capsys)
    assert code == 0
    assert "Traceback" not in err
    checks = load_report(tmp_path, "spectrum")["checks"]
    assert [(c["name"], c["status"], c["reason"]) for c in checks] == [
        ("spectrum.casimir", "skip", reason),
        ("spectrum.h_eigenvalues", "skip", reason),
    ]


def test_a_chunk_level_exchange_error_skips_every_sample_of_the_chunk(tmp_path, capsys, monkeypatch):
    # No valid sample reaches this path (R's entries are O(1)); an error of a
    # whole chunk skips each of its samples, as it does each point of a BWM or
    # TLA row, and the run goes on.
    def fail(samples):
        raise InvalidParam("injected chunk failure")

    monkeypatch.setattr(cli, "_exchange_columns", fail)
    code, _, err = run(["verify", "--out", str(tmp_path), "--phase-pairs", "0", "--ybe-samples", "300"], capsys)
    assert code == 0
    assert "Traceback" not in err
    checks = load_report(tmp_path, "verify")["checks"]
    assert len(checks) == 303  # the three corners and 300 seeded samples, in two chunks
    skip = ("ybe.exchange", "skip", "invalid_param", 1e-10, {"detail": "injected chunk failure"})
    assert all((c["name"], c["status"], c["reason"], c["tolerance"], c["data"]) == skip for c in checks)


def casimir_matrix(theta: float, d: float) -> np.ndarray:
    trip = ladder_ops(theta, d)
    return 0.5 * (trip.s_plus @ trip.s_minus + trip.s_minus @ trip.s_plus) + trip.s3 @ trip.s3


def assert_only_the_refused_point_skips(chosen, name, params, tmp_path, capsys, monkeypatch):
    # The row's batched solve fails because one matrix of it is refused; the
    # row is then solved matrix by matrix, so only that point becomes a skip.
    solve = cli._eigh

    def refuse_chosen(m):
        if any(np.array_equal(h, chosen) for h in np.reshape(m, (-1, 3, 3))):
            raise NotHermitian("injected for one matrix")
        return solve(m)

    code, _, _ = run(["spectrum", "--out", str(tmp_path / "plain"), *SPECTRUM_DOMAIN_GRIDS], capsys)
    assert code == 0
    monkeypatch.setattr(cli, "_eigh", refuse_chosen)
    code, _, err = run(["spectrum", "--out", str(tmp_path / "patched"), *SPECTRUM_DOMAIN_GRIDS], capsys)
    assert code == 0
    assert "Traceback" not in err
    plain = load_report(tmp_path / "plain", "spectrum")["checks"]
    patched = load_report(tmp_path / "patched", "spectrum")["checks"]
    assert len(plain) == len(patched)
    changed = [(a, b) for a, b in zip(plain, patched) if a != b]
    assert len(changed) == 1
    before, after = changed[0]
    assert after["params"] == before["params"] == params
    assert (after["name"], after["status"], after["reason"]) == (name, "skip", "not_hermitian")
    assert after["data"] == {"detail": "injected for one matrix"}


def test_spectrum_solver_error_skips_only_its_own_point(tmp_path, capsys, monkeypatch):
    chosen = hamiltonian_stack([1.3], DriveParams(theta=2.2, d=2.0, omega_drive=0.5))[0]
    params = {"theta": 2.2, "d": 2.0, "omega_drive": 0.5, "phi": 1.3}
    assert_only_the_refused_point_skips(chosen, "spectrum.h_eigenvalues", params, tmp_path, capsys, monkeypatch)


def test_spectrum_solver_error_skips_only_its_own_casimir_point(tmp_path, capsys, monkeypatch):
    chosen = casimir_matrix(2.2, 2.0)
    params = {"theta": 2.2, "d": 2.0}
    assert_only_the_refused_point_skips(chosen, "spectrum.casimir", params, tmp_path, capsys, monkeypatch)


def per_point_levels(name: str, points: list) -> list:
    """Record dicts of (params, matrix or error, predicted) points, each matrix solved on its own."""
    out = []
    for params, m, predicted in points:
        if not isinstance(m, BwmBerryError):
            try:
                m = hermitian_eigs(m).values
            except BwmBerryError as exc:
                m = exc
        if isinstance(m, BwmBerryError):
            out.append(skip_dict(name, params, cli.RELATION_TOL, m))
            continue
        observed, predicted = m.tolist(), [float(x) for x in predicted]
        dev = max(abs(o - p) for o, p in zip(observed, predicted)) / max(1.0, max(abs(p) for p in predicted))
        out.append(record_dict(name, params, dev, cli.RELATION_TOL, observed=observed, predicted=predicted))
    return out


def per_point_spectrum(cfg) -> list:
    """The spectrum record dicts built point by point: one ``ladder_ops`` per (d, theta), one
    ``DriveParams``, ``hamiltonian_stack`` and ``cos_alpha`` per (d, theta, omega)."""
    casimirs, generators = [], []
    for d in cfg.grid("d"):
        for theta in cfg.grid("theta"):
            try:
                casimirs.append(({"theta": theta, "d": d}, casimir_matrix(theta, d), (0.0, 0.75, 0.75)))
            except BwmBerryError as exc:
                casimirs.append(({"theta": theta, "d": d}, exc, None))
            for omega in cfg.grid("omega"):
                points = [{"theta": theta, "d": d, "omega_drive": omega, "phi": phi} for phi in cfg.grid("phi")]
                try:
                    dp = DriveParams(theta=theta, d=d, omega_drive=omega)
                    hs = hamiltonian_stack(cfg.grid("phi"), dp)
                    level = dp.hbar * dp.omega_drive * cos_alpha(theta, d)
                    predicted = np.sort([0.0, level, -level])
                except BwmBerryError as exc:
                    generators += [(p, exc, None) for p in points]
                    continue
                generators += [(p, h, predicted) for p, h in zip(points, hs)]
    return per_point_levels("spectrum.casimir", casimirs) + per_point_levels("spectrum.h_eigenvalues", generators)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "grids",
    [
        SPECTRUM_DOMAIN_GRIDS,
        [],
        ["--grid-spec", "theta="],
        ["--grid-spec", "omega="],
        ["--grid-spec", "phi="],
        ["--grid-spec", "d="],
        ["--grid-spec", "d=1e100"],
        ["--grid-spec", "d=1e200"],
        ["--grid-spec", "omega=1e300"],
        ["--grid-spec", f"d={GOLDEN_RATIO!r}", "--grid-spec", f"theta=0,{math.pi!r},-0.0"]
        + ["--grid-spec", "omega=-1,0"],
        ["--grid-spec", "phi=0,-0.0", "--grid-spec", "omega=0,1", "--grid-spec", "theta=0,1", "--grid-spec", "d=2"],
    ],
    ids=[
        "domain", "default", "no_theta", "no_omega", "no_phi", "no_d", "d_1e100", "d_1e200", "omega_1e300", "edges",
        "signed_zero",
    ],
)
def test_spectrum_rows_match_the_per_point_route(grids, jobs):
    # Every byte of every record, the signs of zeros included, skips with their details.
    cfg = build_config(build_parser().parse_args(["spectrum", *grids, "--jobs", jobs]))
    records, expected = [r for row in cli.cmd_spectrum(cfg) for r in row], per_point_spectrum(cfg)
    assert lines(records) == [line(r) for r in expected]


@pytest.mark.parametrize("d, jobs", [("2", "1"), ("3,2", "2"), ("2,3", "2")])
def test_an_overflowing_norm_skips_only_its_own_points_after_the_batched_solve(d, jobs, tmp_path, capsys):
    # At omega = 1.7e308, ||H||_F = sqrt 2 omega |cos alpha| overflows for theta = 1.5 only, so the
    # d = 2 row's batched solve raises and each matrix is solved on its own; with --jobs 2 that row
    # runs in the forked child for d=3,2 and in this process, beside a forked d = 3 row, for d=2,3.
    grids = ["--grid-spec", f"d={d}", "--grid-spec", "theta=1.5,0.3", "--grid-spec", "omega=1.7e308,1"]
    args = ["spectrum", *grids, "--grid-spec", "phi=0,1.3", "--jobs", jobs]
    detail = "the Frobenius norm overflows double precision"
    with pytest.raises(InvalidParam, match=detail):
        hermitian_eigs(cli._hamiltonian_row((1.5, 0.3), (1.7e308, 1.0), cli._drive_factors((0.0, 1.3)), 2.0).reshape(-1, 3, 3))
    code, _, err = run([*args, "--out", str(tmp_path)], capsys)
    assert code == 0 and "Traceback" not in err
    checks = load_report(tmp_path, "spectrum")["checks"]
    skips = [c for c in checks if c["status"] == "skip"]
    assert [(c["name"], c["reason"], c["data"]) for c in skips] == [
        ("spectrum.h_eigenvalues", "invalid_param", {"detail": detail})
    ] * 2
    assert [c["params"] for c in skips] == [
        {"theta": 1.5, "d": 2.0, "omega_drive": 1.7e308, "phi": phi} for phi in (0.0, 1.3)
    ]
    expected = per_point_spectrum(build_config(build_parser().parse_args(args)))
    assert json.loads(json.dumps(expected)) == checks


#: A grid that holds both 0.0 and -0.0, where omega = 0 (and theta = 0) predicts the levels [0.0, 0.0, -0.0].
SIGNED_ZERO_GRIDS = ["--grid-spec", "phi=0,-0.0", "--grid-spec", "omega=0,1", "--grid-spec", "theta=0,1", "--grid-spec", "d=2"]


def test_signed_zeros_of_a_grid_keep_their_own_texts(tmp_path, capsys):
    # 0.0 and -0.0 compare equal: a text looked up by value would give both the same one.
    code, _, _ = run(["spectrum", *SIGNED_ZERO_GRIDS, "--out", str(tmp_path)], capsys)
    assert code == 0
    text = (tmp_path / "spectrum_report.json").read_text(encoding="utf-8")
    records = [c[4:].rstrip(",") for c in text.splitlines() if c.startswith("    {")]
    cfg = build_config(build_parser().parse_args(["spectrum", *SIGNED_ZERO_GRIDS]))
    assert records == [line(r) for r in per_point_spectrum(cfg)]
    h = [json.loads(c) for c in records if '"name": "spectrum.h_eigenvalues"' in c]
    assert [repr(c["params"]["phi"]) for c in h] == ["0.0", "-0.0"] * 4
    assert [repr(c["data"]["predicted"]) for c in h[:6]] == ["[0.0, 0.0, -0.0]"] * 6


@pytest.mark.parametrize("nan_first", [True, False], ids=["nan_first", "nan_later"])
def test_non_finite_levels_are_written_as_json_spells_them(nan_first, tmp_path, capsys, monkeypatch):
    # The d = 2 H row's solve (the third) returns NaN, +inf and -inf levels; with nan_first the
    # d = 2 Casimir row's (the first) returns a NaN too.  Those records fail, their lines spell the
    # values as json does, and only a NaN on the first graded record is kept as the worst residual.
    poisoned = {2: [[math.nan, 0.0, 1.0], [-math.inf, math.inf, 0.0]]}
    if nan_first:
        poisoned[0] = [[math.nan, 0.75, 0.75]]
    solve, calls = cli._eigh, []

    def solve_or_poison(matrices):
        calls.append(matrices)
        levels = poisoned.get(len(calls) - 1)
        return solve(matrices) if levels is None else (np.array(levels), None)

    monkeypatch.setattr(cli, "_eigh", solve_or_poison)
    grids = ["--grid-spec", "d=2,3", "--grid-spec", "theta=0.3", "--grid-spec", "omega=1", "--grid-spec", "phi=0,1.3"]
    code, out, err = run(["spectrum", *grids, "--out", str(tmp_path)], capsys)
    assert (code, err, len(calls)) == (1, "", 4)
    text = (tmp_path / "spectrum_report.json").read_text(encoding="utf-8")
    checks = text[: text.index('\n  "command": ')]
    assert "nan" not in checks and "inf" not in checks
    assert '"observed": [NaN, 0.0, 1.0]' in checks and '"observed": [-Infinity, Infinity, 0.0]' in checks
    assert '"residual": NaN' in checks and '"residual": Infinity' in checks
    report = json.loads(text)
    failed = [(c["name"], c["params"]["d"], repr(c["residual"])) for c in report["checks"] if c["status"] == "fail"]
    h = [("spectrum.h_eigenvalues", 2.0, "nan"), ("spectrum.h_eigenvalues", 2.0, "inf")]
    assert failed == ([("spectrum.casimir", 2.0, "nan")] if nan_first else []) + h
    assert report["summary"]["failed"] == len(failed)
    if nan_first:
        assert math.isnan(report["summary"]["worst_residual"])
        assert "largest residual/tolerance nan (spectrum.casimir)" in out
    else:
        assert report["summary"]["worst_residual"] == math.inf
        assert "largest residual/tolerance inf (spectrum.h_eigenvalues)" in out


def test_report_meta_holds_stage_timings(tmp_path, capsys):
    run(["spectrum", "--out", str(tmp_path), *SPECTRUM_DOMAIN_GRIDS], capsys)
    report = load_report(tmp_path, "spectrum")
    assert set(report["meta"]) == {"timestamp", "out_dir", "jobs", "timings", "platform"}
    timings = report["meta"]["timings"]
    assert set(timings) == {"build_config", "evaluate", "report_write", "spectrum.casimir", "spectrum.h"}
    assert timings["evaluate"]["records"] == report["summary"]["checks"] == 75
    assert [timings[f"spectrum.{family}"]["points"] for family in ("casimir", "h")] == [3 * 5, 3 * 5 * 2 * 2]
    families = sum(timings[f"spectrum.{family}"]["seconds"] for family in ("casimir", "h"))
    assert 0.0 < families <= timings["evaluate"]["seconds"]
    run(["figure", "--out", str(tmp_path), "--theta-points", "11", "--d-mesh", "1:3:4"], capsys)
    report = load_report(tmp_path, "figure")
    timings = report["meta"]["timings"]
    assert set(timings) == {"build_config", "evaluate", "report_write", "write_csv"}
    assert timings["evaluate"]["records"] == 2
    assert timings["write_csv"]["rows"] == sum(c["data"]["rows"] for c in report["checks"]) == 11 * (5 + 4)
    csv_bytes = sum((tmp_path / c["data"]["file"]).stat().st_size for c in report["checks"])
    assert timings["write_csv"]["bytes"] == csv_bytes > 0
    assert all(entry["seconds"] >= 0.0 for entry in timings.values())
    run(["verify", "--out", str(tmp_path), "--phase-pairs", "2", "--ybe-samples", "7", "--grid-spec", "q=0.5,2"], capsys)
    report = load_report(tmp_path, "verify")
    timings = report["meta"]["timings"]
    families = ("bwm", "tla", "ybe_draw", "ybe")
    assert set(timings) == {"build_config", "evaluate", "report_write", *(f"verify.{family}" for family in families)}
    assert [timings[f"verify.{family}"]["points"] for family in families] == [2 * 2, 5 * 2, 3 + 7, 3 + 7]
    assert set(timings["verify.ybe_draw"]) == {"seconds", "points"}
    assert 0.0 < sum(timings[f"verify.{family}"]["seconds"] for family in families) <= timings["evaluate"]["seconds"]


def test_report_meta_names_the_platform(tmp_path, capsys):
    # What the bits outside meta depend on: the Python build, numpy and numpy's CPU dispatch.
    umath = sys.modules.get("numpy._core._multiarray_umath") or sys.modules["numpy.core._multiarray_umath"]
    run(["figure", "--out", str(tmp_path), "--theta-points", "3", "--d-mesh", "1:2:2"], capsys)
    platform = load_report(tmp_path, "figure")["meta"]["platform"]
    assert set(platform) == {"python", "numpy", "cpu_baseline", "cpu_dispatch"}
    assert platform["python"] == sys.version
    assert platform["numpy"] == np.__version__
    assert platform["cpu_baseline"] == list(umath.__cpu_baseline__)
    assert platform["cpu_dispatch"] == [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


# Grids whose points skip: the verify rows of a singular A, q <= 0, an
# overflowing q, d below the golden ratio and d = 1e100, with exchange samples
# at d = 1.5; the spectrum points below the golden ratio; berry's degenerate
# theta = 0 loop and its closed-form-only d below the golden ratio.
SKIPPING_RUNS = {
    "verify": [
        *("--grid-spec", "q=1e-3,-1,0,1,0.7,1e150", "--grid-spec", f"tla_d=1.5,{GOLDEN_RATIO!r},3,1e100"),
        *("--grid-spec", "ybe_d=1.5,1.7,1.9", "--phase-pairs", "3", "--ybe-samples", "20"),
    ],
    "spectrum": SPECTRUM_DOMAIN_GRIDS,
    "berry": [
        *("--grid-spec", "berry_theta=0,0.7", "--grid-spec", f"berry_d=1,{SQRT2},2"),
        *("--steps", "64"),  # a 64-step loop errs by up to K / 64^2 ~ 9.7e-4, graded at twice that
    ],
}

#: The ``meta.timings`` stage of each record name, or of its first dotted part.
STAGE_OF = {
    "bwm": "verify.bwm",
    "tla": "verify.tla",
    "ybe": "verify.ybe",
    "spectrum.casimir": "spectrum.casimir",
    "spectrum.h_eigenvalues": "spectrum.h",
    "berry": "berry",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", sorted(SKIPPING_RUNS))
def test_stage_timings_count_the_points_and_skips_of_each_family(command, jobs, tmp_path, capsys):
    code, _, _ = run([command, *SKIPPING_RUNS[command], "--jobs", jobs, "--out", str(tmp_path)], capsys)
    assert code == 0
    report = load_report(tmp_path, command)
    timings = report["meta"]["timings"]
    points, skipped = {}, {}
    for c in report["checks"]:
        stage = STAGE_OF.get(c["name"]) or STAGE_OF[c["name"].split(".")[0]]
        points.setdefault(stage, set()).add(json.dumps(c["params"]))  # as text, so -0.0 is not 0.0
        skipped[stage] = skipped.get(stage, 0) + (c["status"] == "skip")
    stages = {s for s in timings if s.split(".")[0] == command} - {"verify.ybe_draw"}
    assert {s: timings[s]["points"] for s in stages} == {s: len(p) for s, p in points.items()}
    assert {s: timings[s]["skipped"] for s in stages} == skipped
    assert sum(timings[s]["skipped"] for s in stages) == report["summary"]["skipped"] > 0
    if command == "berry":
        assert timings["berry"]["rows"] == timings["berry"]["points"] == 2 * 3
        assert set(timings["berry"]) == {"seconds", "points", "rows", "skipped"}


def test_error_escaping_the_point_guards_exits_two(tmp_path, capsys, monkeypatch):
    def fail(cfg):
        raise DegenerateSpectrum("injected outside any point")

    monkeypatch.setitem(cli._COMMANDS, "berry", fail)
    code, _, err = run(["berry", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err == "error: injected outside any point\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv, skipped",
    [
        (["spectrum", "--grid-spec", "d=1e100"], {"spectrum.casimir"}),
        (["spectrum", "--grid-spec", "d=1e200"], {"spectrum.casimir", "spectrum.h_eigenvalues"}),  # d * d is inf
        (["berry", "--grid-spec", "berry_d=1e200"], {"berry.closed"}),
        (["figure", "--grid-spec", "figure_d=1e200"], {"figure.sections_row"}),  # d ** 2 in the closed form
        (["verify", "--grid-spec", "q=1e200"], {"bwm.suite"}),
        (["verify", "--grid-spec", "q=1e-200"], {"bwm.suite"}),
        (["verify", "--grid-spec", "q=1e-60"], {"bwm.suite"}),  # ||A||_F ** 3 in inverse
        (["verify", "--grid-spec", "q=1e-100"], {"bwm.suite"}),  # q ** 4 underflows to 0 in make_b
        (["verify", "--grid-spec", "q=1e-150"], {"bwm.suite"}),
        (["verify", "--grid-spec", "ybe_beta=1e200"], {"ybe.exchange"}),
        (["verify", "--grid-spec", "q=1e-80"], {"bwm.suite"}),  # ||A||_F = 1e160, its cube in inverse is not finite
        (["verify", "--grid-spec", "tla_d=1e100"], set()),  # E_B^2 has entries ~1e200: its norm squares to inf
        (["spectrum", "--grid-spec", "omega=1e300"], set()),  # H's norm squares to inf in the Hermiticity guard
    ],
    ids=[
        "spectrum_d",
        "spectrum_d_squared",
        "berry_d",
        "figure_d",
        "verify_q_large",
        "verify_q_small",
        "verify_q_inverse",
        "verify_q_underflow",
        "verify_q_underflow_150",
        "verify_ybe_beta",
        "verify_q_inverse_cube",
        "verify_tla_d_norm",
        "spectrum_omega_norm",
    ],
)
def test_overflowing_parameters_skip_as_invalid_param(argv, skipped, tmp_path, capsys):
    # Each command evaluates the point, or the figure row, or skips it as invalid_param.
    # pytest turns a numpy RuntimeWarning into an error, so none escapes either.
    code, _, err = run([*argv, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "Traceback" not in err
    reasons = {(c["name"], c["reason"]) for c in load_report(tmp_path, argv[0])["checks"] if c["status"] == "skip"}
    assert reasons == {(name, "invalid_param") for name in skipped}


# ---------------------------------------------------------------------------
# berry
# ---------------------------------------------------------------------------


def test_berry_matches_closed_form_and_skips_below_domain(tmp_path, capsys):
    code, _, _ = run(
        [
            "berry",
            "--out",
            str(tmp_path),
            "--grid-spec",
            f"berry_theta={PI_THIRD}",
            "--grid-spec",
            "berry_d=1,2",
            "--steps",
            "1024",
        ],
        capsys,
    )
    assert code == 0
    report = load_report(tmp_path, "berry")
    checks = {(c["name"], c["params"]["d"]): c for c in report["checks"]}
    match = checks[("berry.match_plus", 2.0)]
    assert match["status"] == "pass"
    assert match["data"]["closed"] == pytest.approx(math.pi / 4.0, abs=1e-13)
    assert abs(match["data"]["wilson"] - math.pi / 4.0) < 1e-4
    assert match["data"]["pairing"] is not None
    closed_only = checks[("berry.match_plus", 1.0)]
    assert closed_only["status"] == "skip"
    assert closed_only["reason"] == "closed_form_only"
    assert ("berry.form_consistency", 1.0) in checks
    assert checks[("berry.exact_discrete", 2.0)]["status"] == "pass"


def test_berry_form_consistency_allows_for_the_rounding_of_its_argument(tmp_path, capsys):
    # The sin form is read at fl(pi/2 - theta), rounded by up to u |pi/2 - theta|.
    code, _, _ = run(
        ["berry", "--out", str(tmp_path), "--grid-spec", "berry_theta=0.3,3e4,1e300", "--grid-spec", "berry_d=2"],
        capsys,
    )
    assert code == 0
    lines = {c["params"]["theta"]: c for c in load_report(tmp_path, "berry")["checks"] if c["name"] == "berry.form_consistency"}
    assert all(line["status"] == "pass" for line in lines.values())
    assert lines[0.3]["tolerance"] == cli.EXACT_TOL
    assert lines[3e4]["tolerance"] == cli.FORM_ARGUMENT_C * 2.0**-53 * abs(math.pi / 2.0 - 3e4)
    assert lines[3e4]["residual"] > cli.EXACT_TOL


def test_closing_line_gives_the_largest_residual_to_tolerance_ratio(tmp_path, capsys):
    # The theta = 1e300 form line has the largest raw residual (about 3.8, graded at
    # about 7e284), but the run came closest to failing on a match line.
    grids = ["--grid-spec", "berry_theta=0.3,3e4,1e300", "--grid-spec", "berry_d=2"]
    code, out, _ = run(["berry", "--out", str(tmp_path), *grids], capsys)
    assert code == 0
    report = load_report(tmp_path, "berry")
    graded = [c for c in report["checks"] if c["residual"] is not None]
    worst = max(graded, key=lambda c: c["residual"])
    assert worst["name"] == "berry.form_consistency" and report["summary"]["worst_residual"] == worst["residual"] > 1
    closest = max(graded, key=lambda c: c["residual"] / c["tolerance"])
    assert closest["name"].startswith("berry.match_")
    ratio = closest["residual"] / closest["tolerance"]
    assert 0 < ratio < 1 and "15/15 checks passed" in out
    assert f"0 skipped; largest residual/tolerance {ratio:.3g} ({closest['name']}); wrote " in out

    code, out, _ = run(["figure", "--out", str(tmp_path), "--theta-points", "5", "--d-mesh", "1:2:3"], capsys)
    assert code == 0 and "; largest residual/tolerance n/a; wrote " in out


def test_berry_form_consistency_fails_on_a_shifted_cos_form(tmp_path, capsys, monkeypatch):
    def shifted(theta, d, form="sin_form"):
        result = berry_closed(theta, d, form)
        if form == "cos_form":
            return dataclasses.replace(result, gamma_plus=result.gamma_plus + 1e-11)
        return result

    monkeypatch.setattr(cli, "berry_closed", shifted)
    code, out, _ = run(["berry", "--out", str(tmp_path), "--grid-spec", "berry_theta=0.3", "--grid-spec", "berry_d=2"], capsys)
    assert code == 1
    (line,) = [c for c in load_report(tmp_path, "berry")["checks"] if c["name"] == "berry.form_consistency"]
    assert line["status"] == "fail" and line["tolerance"] == cli.EXACT_TOL
    assert f"largest residual/tolerance {line['residual'] / cli.EXACT_TOL:.3g} (berry.form_consistency);" in out


@pytest.mark.parametrize(
    "d",
    [GOLDEN_RATIO, GOLDEN_RATIO - 5e-13, GOLDEN_RATIO - 1.1e-12, GOLDEN_RATIO - 2e-12, math.sqrt(2.0), 1.0, -2.0],
    ids=["phi", "phi-5e-13", "phi-1.1e-12", "phi-2e-12", "sqrt2", "one", "minus_two"],
)
def test_golden_ratio_rule_agrees_everywhere(d, tmp_path, capsys):
    # Every construction on the projector domain accepts or refuses d together.
    constructions = {
        "AlgebraParams.tla": lambda: AlgebraParams.tla(d),
        "DriveParams": lambda: DriveParams(theta=0.7, d=d),
        "ladder_ops": lambda: ladder_ops(0.7, d),
    }
    refused = set()
    for name, construct in constructions.items():
        try:
            construct()
        except InvalidParam:
            refused.add(name)
    assert refused in (set(), set(constructions))
    # berry leaves the Hamiltonian route exactly there; below d = 1 the closed form is refused too.
    grids = ["--grid-spec", "berry_theta=0.7", "--grid-spec", f"berry_d={d!r}"]
    code, _, _ = run(["berry", "--out", str(tmp_path), *grids], capsys)
    assert code == 0
    skips = {c["reason"] for c in load_report(tmp_path, "berry")["checks"] if c["status"] == "skip"}
    assert skips == (set() if not refused else {"closed_form_only"} if d >= 1.0 else {"invalid_param"})


# No check tolerance is a knob: the relation lines are graded at RELATION_TOL, the
# identities that hold up to rounding at theirs, and the Berry match lines at twice
# the N-step loop's bias bound K / N^2.  Each retired config key exits 2.
@pytest.mark.parametrize(
    "command, args, prefix, tolerance, removed_key",
    [
        ("verify", SMALL_VERIFY, "bwm.skein_a", cli.RELATION_TOL, "tolerance"),
        ("spectrum", ["--grid-spec", "d=2,3"], "spectrum.casimir", cli.RELATION_TOL, "tolerance"),
        ("verify", SMALL_VERIFY, "tla.", 1e-12, "tla_tolerance"),
        ("verify", SMALL_VERIFY, "ybe.unimodularity", 1e-13, "unimodularity_tolerance"),
        (
            "berry",
            ["--grid-spec", "berry_theta=0.7,4.0", "--steps", "256"],
            "berry.zero_branch",
            1e-12,
            "zero_branch_tolerance",
        ),
        (
            "berry",
            ["--grid-spec", "berry_theta=0.7,4.0", "--grid-spec", "berry_d=1.7,3", "--steps", "256"],
            "berry.match_",
            2.0 * berry.LOOP_BIAS_K / 256**2,
            "phase_tolerance",
        ),
    ],
    ids=["skein_a", "casimir", "tla", "unimodularity", "zero_branch", "match"],
)
def test_exact_checks_have_fixed_tolerances(command, args, prefix, tolerance, removed_key, tmp_path, capsys):
    code, _, _ = run([command, "--out", str(tmp_path), *args], capsys)
    assert code == 0
    records = [c for c in load_report(tmp_path, command)["checks"] if c["name"].startswith(prefix)]
    assert records
    for c in records:
        assert (c["status"], c["tolerance"]) == ("pass", tolerance) and c["residual"] < tolerance
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({removed_key: tolerance}))
    code, _, err = run([command, "--out", str(tmp_path), "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown config keys" in err and removed_key in err


# At 33 steps the N^-2 discretisation bias is up to K / 33^2 ~ 3.7e-3, and the
# match lines are graded at twice that; the exact discrete check stays at 1e-12.
@pytest.mark.parametrize("steps", [1024, 33])
def test_berry_exact_discrete_record_catches_a_misspaced_loop(tmp_path, capsys, monkeypatch, steps):
    grids = ["--grid-spec", "berry_theta=0.7,4.0", "--grid-spec", "berry_d=1.7,3", "--steps", str(steps)]
    code, _, _ = run(["berry", "--out", str(tmp_path / "exact"), *grids], capsys)
    assert code == 0
    exact = [c for c in load_report(tmp_path / "exact", "berry")["checks"] if c["name"] == "berry.exact_discrete"]
    assert len(exact) == 4
    for c in exact:
        assert c["status"] == "pass" and c["residual"] <= 1e-12 and c["tolerance"] == 1e-12
        gamma = berry.berry_discrete(c["params"]["theta"], c["params"]["d"], steps=steps)
        assert c["data"] == {"steps": steps, "gamma_discrete": gamma}

    # Loop phases spaced 2 pi / (N + 1) instead of 2 pi / N: the loop still
    # misses the closed form by about the N^-2 bias, within the match lines'
    # bound 2 K / N^2, so only the exact discrete check sees it.
    frames = berry.loop_eigenframes

    def misspaced(theta, d, omega_drive=1.0, steps=4096):
        phis, values, vectors = frames(theta, d, omega_drive=omega_drive, steps=steps + 1)
        return phis[:-1], values[:-1], vectors[:-1]

    monkeypatch.setattr(berry, "loop_eigenframes", misspaced)
    code, _, _ = run(["berry", "--out", str(tmp_path / "misspaced"), *grids], capsys)
    assert code == 1
    checks = load_report(tmp_path / "misspaced", "berry")["checks"]
    failed = [c["name"] for c in checks if c["status"] == "fail"]
    assert failed == ["berry.exact_discrete"] * 4


@pytest.mark.parametrize(
    "command, args",
    [
        ("berry", ["--grid-spec", "berry_theta=0,0.7,4.0", "--grid-spec", "berry_d=1.2,1.7,3", "--steps", "256"]),
        ("spectrum", SPECTRUM_DOMAIN_GRIDS),
    ],
    ids=["berry", "spectrum"],
)
def test_report_identical_across_jobs(command, args, tmp_path, capsys):
    texts = []
    for jobs in ("1", "2", "3"):
        run([command, "--out", str(tmp_path / jobs), *args, "--jobs", jobs], capsys)
        texts.append(json.dumps(strip_meta(load_report(tmp_path / jobs, command)), indent=2, sort_keys=True))
    assert texts[0] == texts[1] == texts[2]


SMALL_BERRY = ["--grid-spec", "berry_theta=0,0.7", "--grid-spec", "berry_d=1.2,1.7", "--steps", "64"]

# Five Berry rows at d = 2: with --jobs 2 the parent evaluates rows 0, 2, 4
# and one child rows 1, 3; with --jobs 3 the parent rows 0, 3 and two
# children rows 1, 4 and 2.
FIVE_THETAS = [0.1, 0.2, 0.3, 0.4, 0.5]
FIVE_BERRY_ROWS = ["--grid-spec", "berry_theta=0.1,0.2,0.3,0.4,0.5", "--grid-spec", "berry_d=2", "--steps", "16"]

#: A larger verify run: 3 BWM rows, 2 TLA rows and 2 exchange chunks (256 + 44 samples).
VERIFY_ROWS = ["--grid-spec", "q=0.5,0.9,2.0", "--grid-spec", "tla_d=2,3", "--phase-pairs", "2", "--ybe-samples", "300"]


def assert_no_child_process_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", [2, 3, 4])
@pytest.mark.parametrize("command, args, rows", [("berry", SMALL_BERRY, [4]), ("verify", VERIFY_ROWS, [3, 2, 2])])
def test_each_family_forks_one_child_per_extra_worker_and_reaps_them(command, args, rows, jobs, tmp_path, capsys, monkeypatch):
    # A family of n rows forks min(jobs, n) - 1 children; --jobs 4 exceeds every verify family.
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    code, _, _ = run([command, *args, "--jobs", str(jobs), "--out", str(tmp_path / "n")], capsys)
    assert code == 0
    assert len(forks) == sum(min(jobs, n) - 1 for n in rows)
    assert_no_child_process_left()
    run([command, *args, "--out", str(tmp_path / "1")], capsys)
    assert strip_meta(load_report(tmp_path / "n", command)) == strip_meta(load_report(tmp_path / "1", command))


def test_worker_k_evaluates_every_jobs_th_row():
    # Interleaved, not contiguous: the cheap rows at the start of a grid spread over the workers.
    from bwmberry._workers import interleaved

    pids = list(interleaved(lambda row: (row, os.getpid()), list(range(8)), 3))
    assert [row for row, _ in pids] == list(range(8))
    assert [{pid for _, pid in pids[k::3]} for k in range(3)] == [{os.getpid()}, {pids[1][1]}, {pids[2][1]}]
    assert len({pid for _, pid in pids}) == 3
    assert_no_child_process_left()


def test_rows_stream_back_before_a_later_row_fails():
    # Row 4 is child 1's second row: rows 0 to 3 come out before its error is raised.
    from bwmberry._workers import interleaved

    def call(row):
        if row == 4:
            raise DegenerateSpectrum("injected at row 4")
        return row, os.getpid()

    rows = interleaved(call, list(range(8)), 3)
    taken = [next(rows) for _ in range(4)]
    assert [row for row, _ in taken] == [0, 1, 2, 3]
    assert len({pid for _, pid in taken}) == 3
    with pytest.raises(DegenerateSpectrum, match="^injected at row 4$"):
        next(rows)
    assert_no_child_process_left()


def test_closing_the_stream_reaps_every_child():
    # After the first row both children are blocked on a full pipe or still
    # computing; closing the stream ends and reaps them.
    from bwmberry._workers import interleaved

    rows = interleaved(lambda row: bytes(100_000), list(range(30)), 3)
    assert next(rows) == bytes(100_000)
    rows.close()
    assert_no_child_process_left()


@pytest.mark.parametrize(
    "failing, exiting",
    [((1, 2, 3, 4), ()), ((3,), ()), ((0, 4), ()), ((0,), (1,))],
    ids=["from_row_1", "row_3", "rows_0_4", "row_0_then_a_child_exit"],
)
@pytest.mark.parametrize("error", [DegenerateSpectrum, MemoryError, ValueError])
def test_an_error_in_a_worker_gives_the_verdict_of_one_job(error, failing, exiting, tmp_path, capsys, monkeypatch):
    # The first failing row in row order decides, wherever it ran: exit code
    # and stderr, or the exception main() lets escape, are those of --jobs 1,
    # also where a later row's child ends without a result.
    parent, real_point = os.getpid(), cli._berry_point

    def point(cfg, theta, d):
        if FIVE_THETAS.index(theta) in exiting and os.getpid() != parent:
            os._exit(3)
        if FIVE_THETAS.index(theta) in failing:
            raise error(f"injected at theta={theta}")
        return real_point(cfg, theta, d)

    monkeypatch.setattr(cli, "_berry_point", point)
    verdicts = []
    for jobs in ("1", "2", "3"):
        try:
            verdicts.append(run(["berry", *FIVE_BERRY_ROWS, "--jobs", jobs, "--out", str(tmp_path)], capsys))
        except ValueError as exc:
            verdicts.append(repr(exc))
        assert_no_child_process_left()
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert f"injected at theta={FIVE_THETAS[failing[0]]}" in str(verdicts[0])
    assert os.listdir(tmp_path) == []  # no report and no temporary file


class TwoPartError(BwmBerryError):
    """Pickles, but does not unpickle: its constructor needs two arguments."""

    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


def raise_two_part_error():
    raise TwoPartError("does not", "unpickle")


@pytest.mark.parametrize(
    "end, how",
    [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
        (lambda: [threading.Lock()], "exit status 1"),  # a result that does not pickle
        (raise_two_part_error, "exit status 0"),
    ],
    ids=["exit", "killed", "unpicklable_result", "unpicklable_error"],
)
def test_a_worker_that_ends_without_a_result_exits_two(end, how, tmp_path, capsys, monkeypatch):
    # The child forks with the temporary report open; the earlier report stays as it was.
    kept = place_old_report(tmp_path, "berry", True)
    parent, real_point = os.getpid(), cli._berry_point
    monkeypatch.setattr(cli, "_berry_point", lambda cfg, *row: end() if os.getpid() != parent else real_point(cfg, *row))
    code, out, err = run(["berry", *SMALL_BERRY, "--jobs", "2", "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: worker 1 of 2 (--jobs) ended without a result ({how})\n"
    assert_left_as_it_was(tmp_path, "berry", kept)
    assert_no_child_process_left()


def test_every_prefix_of_an_outcome_is_no_result(monkeypatch):
    # A child killed while writing leaves a prefix of its row's pickle in the pipe.
    from bwmberry._workers import interleaved

    records = [("berry.closed", "pass", 0.5, 1e-10, '{"name": "berry.closed", "data": [1.0, null]}')]
    for result, error in [(records, None), (None, DegenerateSpectrum("near"))]:

        def call(row):
            if row and error:
                raise error
            return result

        def taken():
            try:
                return list(interleaved(call, [0, 1], 2))
            except Exception as exc:
                return repr(exc)

        assert taken() == (repr(error) if error else [result, result])
        size = len(pickle.dumps((result, error), pickle.HIGHEST_PROTOCOL))
        for cut in range(size):

            def dump(obj, file, protocol, cut=cut):
                data = pickle.dumps(obj, protocol)
                assert len(data) == size
                file.write(data[:cut])
                file.flush()
                os.kill(os.getpid(), signal.SIGKILL)

            monkeypatch.setattr(pickle, "dump", dump)
            assert taken() == repr(BwmBerryError("worker 1 of 2 (--jobs) ended without a result (killed by signal 9)"))
            monkeypatch.undo()
    assert_no_child_process_left()


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_workers_leave_by_os_exit_and_one_job_imports_no_worker_module(jobs, tmp_path):
    # Buffered stdout and an atexit handler of the parent show once each: no
    # child flushes its copy of the buffer or runs the handler.
    script = "\n".join(
        [
            "import atexit, sys",
            "from bwmberry.cli import main",
            "atexit.register(print, 'atexit ran')",
            "print('written before the fork')",
            f"code = main(['berry', *{SMALL_BERRY!r}, '--jobs', {jobs!r}, '--out', {str(tmp_path)!r}])",
            "assert 'concurrent.futures' not in sys.modules",
            f"assert ('bwmberry._workers' in sys.modules) == {jobs != '1'}",
            "sys.exit(code)",
        ]
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    assert lines[0] == "written before the fork" and lines[1].startswith("[bwmberry berry]") and lines[2] == "atexit ran"


def test_without_fork_every_job_count_runs_in_one_process(tmp_path, capsys, monkeypatch):
    monkeypatch.delattr(os, "fork")
    verdicts = []
    for jobs in ("1", "3"):
        code, _, err = run(["berry", *SMALL_BERRY, "--jobs", jobs, "--out", str(tmp_path / jobs)], capsys)
        verdicts.append((code, err, strip_meta(load_report(tmp_path / jobs, "berry"))))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][1] == "" and verdicts[0][2]["warnings"] == []


@pytest.mark.parametrize("steps", [16, 17, 31, 64, 100, 4096])
def test_berry_match_lines_are_graded_at_the_loop_bias_bound(steps, tmp_path, capsys):
    # Every loop of the default grid misses the closed form by its N^-2 bias
    # only, so each step count passes; skips carry the same tolerance.
    code, _, _ = run(["berry", "--out", str(tmp_path), "--steps", str(steps)], capsys)
    assert code == 0
    matches = [c for c in load_report(tmp_path, "berry")["checks"] if c["name"].startswith("berry.match_")]
    statuses = [c["status"] for c in matches]
    assert (statuses.count("pass"), statuses.count("skip"), len(statuses)) == (32, 8, 40)
    assert {c["tolerance"] for c in matches} == {2.0 * berry.LOOP_BIAS_K / steps**2}


def test_berry_match_plus_catches_a_closed_form_shifted_by_1e_5(tmp_path, capsys, monkeypatch):
    # At 4096 steps the bound is 4.7e-7, so a shift of 1e-5 in gamma_plus of
    # both closed forms fails berry.match_plus alone; form consistency is kept.
    closed = cli.berry_closed

    def shifted(theta, d, form="sin_form"):
        result = closed(theta, d, form)
        return dataclasses.replace(result, gamma_plus=result.gamma_plus + 1e-5)

    monkeypatch.setattr(cli, "berry_closed", shifted)
    grids = ["--grid-spec", "berry_theta=0.7,4.0", "--grid-spec", "berry_d=1.7,3"]
    code, _, _ = run(["berry", "--out", str(tmp_path), *grids], capsys)
    assert code == 1
    failed = [c["name"] for c in load_report(tmp_path, "berry")["checks"] if c["status"] == "fail"]
    assert failed == ["berry.match_plus"] * 4


@pytest.mark.parametrize(
    "argv",
    [["berry", "--phase-tolerance", "1e-4"], ["verify", "--tolerance", "1e-9"], ["verify", "--tolerance", "-1"]],
)
def test_the_retired_tolerance_flags_are_gone(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_berry_degenerate_loop_is_skipped(tmp_path, capsys):
    code, _, _ = run(
        [
            "berry",
            "--out",
            str(tmp_path),
            "--grid-spec",
            "berry_theta=0",
            "--grid-spec",
            "berry_d=2",
            "--steps",
            "64",
        ],
        capsys,
    )
    assert code == 0
    report = load_report(tmp_path, "berry")
    skip = next(c for c in report["checks"] if c["name"] == "berry.match_plus")
    assert skip["status"] == "skip"
    assert skip["reason"] == "degenerate_spectrum"


def _recorded_mallopt(monkeypatch) -> list:
    """The (param, value) calls of glibc's ``mallopt`` as ``cli._keep_heap`` would make them, recorded instead."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: type("libc", (), {"mallopt": staticmethod(mallopt)})())
    return calls


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_berry_keeps_freed_heap_once_per_run(jobs, tmp_path, capsys, monkeypatch):
    calls = _recorded_mallopt(monkeypatch)
    code, _, _ = run(["berry", *SMALL_BERRY, "--jobs", jobs, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert calls == [(-3, 32 * 2**20), (-1, 128 * 2**20)]


@pytest.mark.parametrize(
    "argv", [["verify", *SMALL_VERIFY], ["spectrum", "--grid-spec", "d=2", "--grid-spec", "theta=0.4"], ["figure", "--theta-points", "5"]]
)
def test_only_berry_changes_the_allocator(argv, tmp_path, capsys, monkeypatch):
    calls = _recorded_mallopt(monkeypatch)
    code, _, _ = run([*argv, "--out", str(tmp_path)], capsys)
    assert code == 0 and calls == []


@pytest.mark.parametrize("error", [AttributeError, OSError, TypeError])
def test_keep_heap_does_nothing_without_mallopt(error, tmp_path, capsys, monkeypatch):
    # macOS's C library has no mallopt (AttributeError), and Windows takes no CDLL(None) (TypeError).
    def missing(name):
        raise error("no mallopt here")

    monkeypatch.setattr(cli.ctypes, "CDLL", missing)
    assert cli._keep_heap() is None
    code, _, _ = run(["berry", *SMALL_BERRY, "--out", str(tmp_path)], capsys)
    assert code == 0


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator setting is glibc's")
def test_berry_loops_fault_in_no_fresh_pages_once_the_heap_is_kept():
    # Under glibc's dynamic trim threshold (about 1.2 MB) the freed top of each 4096-step loop's
    # ~3 MB peak goes back to the OS, and every loop faults thousands of pages in again.
    script = "\n".join(
        [
            "import resource",
            "from bwmberry import berry_wilson_loop",
            "from bwmberry.cli import _keep_heap",
            "_keep_heap()",
            "berry_wilson_loop(0.7, 2.0, steps=4096)",
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "for theta in (0.3, 0.7, 1.2, 2.0, 0.5, 0.9, 1.4, 2.5):",
            "    berry_wilson_loop(theta, 3.0, steps=4096)",
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
        ]
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert int(proc.stdout) < 100


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------


def test_figure_writes_sorted_tables(tmp_path, capsys):
    code, _, _ = run(
        [
            "figure",
            "--out",
            str(tmp_path),
            "--theta-points",
            "101",
            "--d-mesh",
            "1:6:6",
            "--grid-spec",
            f"figure_d=1,{SQRT2},5",
        ],
        capsys,
    )
    assert code == 0
    sections = (tmp_path / "figure_sections.csv").read_bytes()
    assert b"\r" not in sections
    lines = sections.decode("utf-8").splitlines()
    assert lines[0] == "theta,d,gamma_plus"
    assert lines[1] == "0,1,3.1415926535897931"
    body = [line.split(",") for line in lines[1:]]
    assert len(body) == 3 * 101
    keys = [(float(d), float(t)) for t, d, _ in body]
    assert keys == sorted(keys)
    # d = 1 rows are identically pi; the sqrt(2) row at theta = 0 vanishes.
    for t, d, g in body:
        if d == "1":
            assert g == "3.1415926535897931"
    sqrt2_origin = next(row for row in body if row[0] == "0" and row[1] != "1" and float(row[1]) < 2)
    assert float(sqrt2_origin[2]) == 0.0
    surface = (tmp_path / "figure_surface.csv").read_text(encoding="utf-8").splitlines()
    assert len(surface) == 1 + 6 * 101
    report = load_report(tmp_path, "figure")
    assert {c["name"] for c in report["checks"]} == {"figure.sections_csv", "figure.surface_csv"}


def test_figure_skips_each_d_whose_square_overflows(tmp_path, capsys):
    # d = 1e155 and d = 1e300 square to inf, which the closed form needs: each gets one skip
    # record, and the CSVs hold the other rows with the bytes of a run that never had them.
    common = ["figure", "--theta-points", "7"]
    bad = ["--grid-spec", "figure_d=2,1e300,1,1e155", "--d-mesh", "1:1e300:3", "--out", str(tmp_path / "bad")]
    code, out, _ = run([*common, *bad], capsys)
    assert code == 0 and "2/6 checks passed, 0 failed, 4 skipped" in out
    # The surface keeps only d = 1, the row that a sections table of d = 1 alone holds.
    for name, figure_d, csv in (("sections", "2,1", "figure_sections.csv"), ("surface", "1", "figure_surface.csv")):
        assert run([*common, "--grid-spec", f"figure_d={figure_d}", "--out", str(tmp_path / name)], capsys)[0] == 0
        assert (tmp_path / "bad" / csv).read_bytes() == (tmp_path / name / "figure_sections.csv").read_bytes()
    checks = load_report(tmp_path / "bad", "figure")["checks"]
    detail = "d = {} overflows double precision: d*d is not finite"
    assert [(c["name"], c["params"], c["status"], c["reason"], c["data"]) for c in checks] == [
        ("figure.sections_csv", {}, "pass", None, {"file": "figure_sections.csv", "rows": 2 * 7}),
        ("figure.sections_row", {"d": 1e155}, "skip", "invalid_param", {"detail": detail.format(1e155)}),
        ("figure.sections_row", {"d": 1e300}, "skip", "invalid_param", {"detail": detail.format(1e300)}),
        ("figure.surface_csv", {}, "pass", None, {"file": "figure_surface.csv", "rows": 7}),
        ("figure.surface_row", {"d": 5e299}, "skip", "invalid_param", {"detail": detail.format(5e299)}),
        ("figure.surface_row", {"d": 1e300}, "skip", "invalid_param", {"detail": detail.format(1e300)}),
    ]


def test_figure_byte_deterministic(tmp_path, capsys):
    args = ["figure", "--theta-points", "51", "--d-mesh", "1:6:7"]
    run([*args, "--out", str(tmp_path / "a")], capsys)
    run([*args, "--out", str(tmp_path / "b")], capsys)
    for name in ("figure_sections.csv", "figure_surface.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    rep_a = strip_meta(load_report(tmp_path / "a", "figure"))
    rep_b = strip_meta(load_report(tmp_path / "b", "figure"))
    assert rep_a == rep_b


def test_figure_csv_bytes_match_scalar_closed_form(tmp_path, capsys):
    argv = ["figure", "--out", str(tmp_path), "--theta-points", "37", "--d-mesh", "1:3:5"]
    code, _, _ = run([*argv, "--grid-spec", f"figure_d=5,1,{SQRT2},1"], capsys)
    assert code == 0
    thetas = np.linspace(0.0, 2.0 * math.pi, 37)
    grids = {"figure_sections.csv": (5.0, 1.0, math.sqrt(2.0), 1.0), "figure_surface.csv": np.linspace(1, 3, 5)}
    for name, ds in grids.items():
        rows = [(t, d, berry_closed(t, d, "cos_form").gamma_plus) for d in sorted(ds) for t in thetas]
        text = "theta,d,gamma_plus\n" + "".join(",".join(format(float(x), ".17g") for x in r) + "\n" for r in rows)
        assert (tmp_path / name).read_bytes() == text.encode("utf-8")


_CSV_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e300]))


@st.composite
def _csv_tables(draw):
    thetas = draw(st.lists(_CSV_FLOATS, min_size=2, max_size=50))
    ds = draw(st.lists(_CSV_FLOATS, min_size=1, max_size=6))
    rows = draw(st.lists(st.lists(_CSV_FLOATS, min_size=len(thetas), max_size=len(thetas)), min_size=len(ds), max_size=len(ds)))
    return thetas, ds, np.array(rows, dtype=float)


def per_value_csv(thetas, ds, gamma) -> str:
    """The CSV text with each value formatted on its own by ``format(x, ".17g")``."""
    cells = [format(th, ".17g") for th in thetas]
    return "theta,d,gamma_plus\n" + "".join(
        f"{th},{format(dv, '.17g')},{format(g, '.17g')}\n" for dv, row in zip(ds, gamma.tolist()) for th, g in zip(cells, row)
    )


@settings(max_examples=200, deadline=None)
@given(_csv_tables())
@example(([0.0, -0.0], [math.nan], np.array([[-math.nan, 5e-324]])))
@example(([math.inf, -math.inf, 1e300], [1.0, -0.0], np.array([[math.nan, -math.nan, -0.0], [math.inf, 1e300, 5e-324]])))
def test_property_csv_writer_matches_per_value_format(table):
    thetas, ds, gamma = table
    # The row template relies on this: theta texts sit in a % format, and d texts replace its NULs.
    texts = [format(x, ".17g") for x in [*thetas, *ds, *gamma.ravel().tolist()]]
    assert not any("%" in text or "\0" in text for text in texts)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        rows, size = cli._write_csv(path, thetas, ds, gamma)
        data = path.read_bytes()
    assert data == per_value_csv(thetas, ds, gamma).encode("utf-8")
    assert (rows, size) == (len(thetas) * len(ds), len(data))


def test_csv_writer_converts_one_row_at_a_time(tmp_path):
    # The figure_surface table of 601 x 201 values: converted whole, it peaks near 4 MB.
    table = cli.figure_table(np.linspace(0.0, 2.0 * math.pi, 601), np.linspace(1.0, 6.0, 201))
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "surface.csv", *table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


# ---------------------------------------------------------------------------
# report writing: indent=2 with sorted keys, each check record on one line
# ---------------------------------------------------------------------------

_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1.5e308]))
_TEXT = st.one_of(st.text(max_size=12), st.sampled_from(['"', "\\", "%", "%s", "\x00\x1f\n\t", "é ψ 😀", " "]))
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT)
_NESTED = st.recursive(
    _SCALAR, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3), max_leaves=6
)
_PARAMS = st.one_of(
    st.dictionaries(_TEXT, st.one_of(st.integers(), _FLOATS, st.booleans()), max_size=4),
    st.dictionaries(st.integers(), _FLOATS, max_size=3),
)
# Any text but the names of record_dict's other arguments can key its data.
_DATA = st.dictionaries(
    _TEXT.filter(lambda key: key not in ("name", "params", "residual", "tolerance")),
    st.one_of(_SCALAR, st.lists(_SCALAR, max_size=4), _NESTED),
    min_size=1,
    max_size=4,
)
_NONZERO = _FLOATS.filter(lambda t: t != 0.0)
_CLI_NAMES = st.sampled_from(["bwm.skein_a", "ybe.exchange", "ybe.suite", "spectrum.casimir"])


def _executed(name, params, residual, tolerance, **data):
    """An executed check as ``_record`` builds it from the texts of ``params`` and ``data``, and its reference dict."""
    record = writer._record(name, writer._text(params), residual, tolerance, writer._text(data))
    return record, record_dict(name, params, residual, tolerance, **data)


def _skipped(name, params, tolerance, exc, reason=None):
    """A skip as ``_skip`` builds it, and its reference dict."""
    return writer._skip(name, writer._text(params), tolerance, exc, reason), skip_dict(name, params, tolerance, exc, reason)


def _csv(name, file, rows):
    """A CSV record as ``_csv_record`` builds it, and its reference dict."""
    return writer._csv_record(name, file, rows), csv_dict(name, file, rows)


@st.composite
def _checks(draw):
    """(record, reference dict) pairs as ``_record``, ``_skip`` and ``_csv_record`` build them.

    A few params dicts serve many records; ``data`` is often empty; residuals
    and tolerances include NaN, +-inf and +-0.0, except that the writer counts
    each record into the summary, which divides a residual by its tolerance:
    an executed check's tolerance is never 0, as none of the program's is.
    """
    pool = draw(st.lists(_PARAMS, min_size=1, max_size=3))
    checks = []
    for _ in range(draw(st.integers(0, 16))):
        params = pool[draw(st.integers(0, len(pool) - 1))]
        name, kind = draw(st.one_of(_CLI_NAMES, _CLI_NAMES, _TEXT)), draw(st.integers(0, 5))
        if kind < 3:
            data = draw(_DATA) if kind == 0 else {}
            checks.append(_executed(name, params, draw(_FLOATS), draw(_NONZERO), **data))
        elif kind < 5:
            tolerance, detail = draw(st.one_of(st.none(), _FLOATS)), InvalidParam(draw(_TEXT))
            reason = draw(st.one_of(st.none(), st.just("closed_form_only"), _TEXT))
            checks.append(_skipped(name, params, tolerance, detail, reason))
        else:
            checks.append(_csv(name, draw(_TEXT), draw(st.integers(0, 10**6))))
    return checks


def write_report(report, timings, cuts=()):
    """The writer's text of ``report``, its ``checks`` handed over as rows split before the indices ``cuts``.

    The members the writer fills in after the checks, ``summary`` and
    ``warnings``, are copied back into ``report``, so that ``one_line_checks``
    of ``report`` with the reference dicts as ``checks`` is the text expected.
    """
    written = dict(report)
    if "checks" in report:
        bounds = [0, *sorted(cuts), len(report["checks"])]
        written["checks"] = (report["checks"][a:b] for a, b in zip(bounds, bounds[1:]))
    buffer = io.StringIO()
    cli._write_report(buffer, written, timings)
    report.update({key: value for key, value in written.items() if key != "checks"})
    return buffer.getvalue()


def one_line_checks(report) -> str:
    """json.dumps(report, indent=2, sort_keys=True) + "\n", each checks item on one line as json.dumps gives it.

    Built from the indent=2 text of the report with a one-entry placeholder
    list as ``checks``; "checks" sorts before every other top-level key here.
    """
    checks = report.get("checks")
    text = json.dumps({**report, "checks": [0]} if checks else report, indent=2, sort_keys=True) + "\n"
    if not checks:
        return text
    placeholder = '{\n  "checks": [\n    0\n  ]'
    assert text.startswith(placeholder)
    lines = ",\n    ".join(json.dumps(item, sort_keys=True) for item in checks)
    return '{\n  "checks": [\n    ' + lines + "\n  ]" + text[len(placeholder) :]


def assert_written(pairs):
    """The writer's text of (record, reference dict) pairs is the reference text."""
    assert write_report({"checks": [r for r, _ in pairs]}, {}) == one_line_checks({"checks": [d for _, d in pairs]})


# Keys and strings the encoder must escape, as params, data, reason and detail.
_AWKWARD = {"%": 1.5, "%s": -0.0, '"q"': math.nan, "a\\b": math.inf, "\x00\n\t": -math.inf, "é ψ 😀": True, "": 7}
_AWKWARD_REASON = "50% \"quoted\" \\ \u2028"


def _shapes() -> list:
    """Records of awkward shapes, with their reference dicts, built by the current encoder."""
    return [
        _skipped("bwm.%s", _AWKWARD, math.inf, InvalidParam("d = 1.2\n%d \x1f ψ"), _AWKWARD_REASON),
        _skipped("bwm.%s", {"d": 1.7, "theta": 0.3}, math.inf, InvalidParam("d = 1.2\n%d"), _AWKWARD_REASON),
        _executed("bwm.%s", {}, -0.0, math.inf, nested={"b": [1, [2]], "a": {}}),
        _executed("bwm.%s", _AWKWARD, math.nan, -5e-324, **_AWKWARD, list=[None, math.nan, "%", True, 2**70]),
        _executed("ybe.exchange", {2: 1.0, 10: 2.0}, -math.inf, 1e-10),  # int keys sort as numbers
        _csv("figure.\u2028_csv", "é ψ.csv", 0),
    ]


_SHAPES = _shapes()


@settings(max_examples=200, deadline=None)
@given(
    shapes=st.lists(st.sampled_from(_SHAPES), max_size=12),
    checks=_checks(),
    config=st.dictionaries(
        _TEXT, st.one_of(_NESTED, st.tuples(_FLOATS, _FLOATS), st.lists(st.tuples(_FLOATS))), max_size=3
    ),
    rest=st.fixed_dictionaries(
        {},
        optional={"command": _TEXT, "schema": st.integers(), "summary": st.none(), "warnings": st.lists(_TEXT)},
    ),
    meta=st.booleans(),
    cuts=st.lists(st.integers(0, 30), max_size=4),
)
@example(shapes=_SHAPES[:1] * 2, checks=[], config={"grids": {"q": (0.5, 2.0)}}, rest={}, meta=True, cuts=[])
@example(shapes=_SHAPES * 2 + _SHAPES[:3], checks=[], config={}, rest={"command": "verify"}, meta=True, cuts=[3, 3])
@example(shapes=[], checks=[], config={}, rest={"summary": None, "warnings": ["w"]}, meta=True, cuts=[0])
def test_property_report_writer_gives_one_line_per_check(shapes, checks, config, rest, meta, cuts):
    pairs = shapes + checks
    records = [record for record, _ in pairs]
    for (name, status, residual, tolerance, _), expected in pairs:
        fields = (expected["name"], expected["status"], expected["residual"], expected["tolerance"])
        assert repr((name, status, residual, tolerance)) == repr(fields)
    timings = {"build_config": {"seconds": 0.5}}
    report = {"checks": records, "config": config, **rest}
    if meta:
        report["meta"] = {"timestamp": "now", "timings": timings}
    text = write_report(report, timings, [min(cut, len(records)) for cut in cuts])
    assert text == one_line_checks({**report, "checks": [expected for _, expected in pairs]})
    if "summary" in rest:
        tally = writer._Tally()
        tally.add(records)
        assert repr(report["summary"]) == repr(tally.summary()[0])
    if "warnings" in rest:
        assert report["warnings"] == rest["warnings"] + ([] if records else [writer.NO_CHECKS])
    if meta:
        assert set(timings) == {"build_config", "evaluate", "report_write"}
        assert timings["evaluate"]["records"] == len(records)
        assert timings["report_write"]["bytes"] == text.index(',\n  "meta": ')


def test_report_writer_exact_bytes():
    report = {"checks": [r for r, _ in _SHAPES[1:3]], "command": "verify", "meta": {}, "summary": None, "warnings": []}
    assert write_report(report, {}, [1]) == (
        '{\n  "checks": [\n'
        '    {"data": {"detail": "d = 1.2\\n%d"}, "name": "bwm.%s", "params": {"d": 1.7, "theta": 0.3}, '
        '"reason": "50% \\"quoted\\" \\\\ \\u2028", "residual": null, "status": "skip", "tolerance": Infinity},\n'
        '    {"data": {"nested": {"a": {}, "b": [1, [2]]}}, "name": "bwm.%s", "params": {}, '
        '"reason": null, "residual": -0.0, "status": "pass", "tolerance": Infinity}\n'
        '  ],\n  "command": "verify",\n  "meta": {},\n  "summary": {\n    "checks": 2,\n    "failed": 0,\n'
        '    "overall_pass": true,\n    "passed": 1,\n    "skipped": 1,\n    "worst_residual": -0.0\n  },\n'
        '  "warnings": []\n}\n'
    )
    assert write_report({"checks": [], "meta": {}}, {}) == '{\n  "checks": [],\n  "meta": {}\n}\n'
    assert write_report({"checks": [], "warnings": []}, {}) == (
        '{\n  "checks": [],\n  "warnings": [\n    "no checks were executed (empty grids?)"\n  ]\n}\n'
    )
    assert write_report({}, {}) == "{}\n"


def _check(name="bwm.skein_a", params=None, residual=0.0, tolerance=1e-10, **changes):
    """A record with the line of its dict, whose fields need not follow ``_record``'s rules (any status)."""
    record = {"name": name, "params": params or {"q": 0.5}, "residual": residual, "tolerance": tolerance,
              "status": "pass", "reason": None, "data": {}, **changes}
    return record["name"], record["status"], record["residual"], record["tolerance"], line(record)


def test_report_writer_keeps_signed_zeros_and_typed_params():
    # 0.0 and -0.0 compare equal and have two texts; a NaN is not equal to itself.
    params = {"q": 0.5}
    zeros = [_executed("bwm.skein_a", params, r, 1e-10) for r in (0.0, -0.0, 0.0)]
    nans = [_executed("bwm.skein_a", params, math.nan, math.nan) for _ in range(3)]
    skips = [_skipped("bwm.suite", params, t, InvalidParam("x")) for t in (-0.0, 0.0, -0.0, -math.inf, math.inf)]
    assert_written(zeros + nans + skips)
    # Equal values of other types are other texts.
    assert_written([_executed("bwm.skein_a", {"q": value}, 0.0, 1e-10) for value in (1, 1.0, True, 1, 1.0, -0.0)])


def test_a_failed_record_encode_leaves_the_writer_usable():
    # The kept encoder marks no container as open, so data that fails to encode once
    # encodes once it is mended, and data that holds itself fails without a mark left.
    data = {"kept": [1.5], "bad": object()}
    with pytest.raises(TypeError, match="not JSON serializable"):
        writer._text(data)
    del data["bad"]
    assert writer._text(data) == json.dumps(data, sort_keys=True)
    circular = [1.0]
    circular.append(circular)
    with pytest.raises((RecursionError, ValueError)):
        writer._text({"loop": circular})
    assert writer._text(data) == json.dumps(data, sort_keys=True)


def test_report_writer_bytes_are_the_same_without_the_c_encoder(tmp_path, capsys, monkeypatch):
    argvs = {"verify": SMALL_VERIFY, "spectrum": SPECTRUM_DOMAIN_GRIDS, "figure": ["--theta-points", "3", "--d-mesh", "1:2:2"]}
    for command, args in argvs.items():
        assert run([command, "--out", str(tmp_path / "c"), *args], capsys)[0] == 0
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    python_text = writer._encoder()
    assert python_text.__func__ is json.JSONEncoder.encode
    monkeypatch.setattr(writer, "_text", python_text)
    monkeypatch.setattr(cli, "_text", python_text)
    for command, args in argvs.items():
        assert run([command, "--out", str(tmp_path / "python"), *args], capsys)[0] == 0
        c_text, python_text = (
            text[: text.index(',\n  "meta": ')]
            for text in ((tmp_path / side / f"{command}_report.json").read_text(encoding="utf-8") for side in ("c", "python"))
        )
        assert c_text == python_text
    params = {"q": 0.5}
    assert_written(_shapes() * 2 + [_executed("bwm.skein_a", params, r, 1e-10) for r in (0.0, math.nan)])


def capture_checks(monkeypatch) -> list:
    """The list that receives each report's records, as ``cli`` hands their rows to the writer."""
    written = []

    def write(fh, report, timings):
        rows = list(report["checks"])
        written.append([r for row in rows for r in row])
        return writer._write_report(fh, {**report, "checks": rows}, timings)

    monkeypatch.setattr(cli, "_write_report", write)
    return written


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["spectrum"],
        ["berry"],
        ["figure"],
        ["verify", "--grid-spec", "q=0.01,1e-3,1,100,1e4", "--grid-spec", "tla_d=1e100,1.5,1e-3"],
        ["figure", "--grid-spec", "figure_d=1e300,1,2.5", "--d-mesh", "1:1e300:4"],
        ["spectrum", "--grid-spec", "d=1.2,1e100,1e200,2", "--grid-spec", "omega=1e308,1"],
        ["berry", "--grid-spec", "berry_theta=0,1e4,0.3", "--grid-spec", "berry_d=1,1.7,1e100", "--jobs", "3"],
    ],
    ids=["verify", "spectrum", "berry", "figure", "verify_edge", "figure_edge", "spectrum_edge", "berry_edge_jobs3"],
)
def test_every_record_of_the_program_keeps_the_record_contract(argv, tmp_path, capsys, monkeypatch):
    # The writer counts each record from its four fields and writes its line without reading
    # it: the line must be canonical JSON of the seven members, and agree with the fields.
    written = capture_checks(monkeypatch)
    code, _, _ = run([*argv, "--out", str(tmp_path)], capsys)
    assert code == 0
    (records,) = written
    assert records
    for r in records:
        assert type(r) is tuple and len(r) == 5, r
        name, status, residual, tolerance, text = r
        parsed = json.loads(text)
        assert line(parsed) == text, r
        assert parsed.keys() == {"name", "params", "residual", "tolerance", "status", "reason", "data"}, r
        assert type(name) is str and status in ("pass", "fail", "skip"), r
        assert type(residual) in (float, type(None)) and type(tolerance) in (float, type(None)), r
        assert repr((name, status, residual, tolerance)) == repr(
            (parsed["name"], parsed["status"], parsed["residual"], parsed["tolerance"])
        ), r
        assert (type(parsed["reason"]) is str if status == "skip" else parsed["reason"] is None), r
        assert type(parsed["params"]) is dict and type(parsed["data"]) is dict, r


def test_each_point_encodes_its_params_once(tmp_path, capsys, monkeypatch):
    # A verify point's params are encoded once for all its records, by one template per chunk
    # (``_row_params``), and a spectrum row encodes each of its grid values and each distinct
    # predicted triple once.  At --jobs 2 the forked worker encodes the records of its rows, so
    # this process encodes fewer.
    encoded = []

    def counting(encode):
        def counted(value):
            encoded.append(value)
            return encode(value)

        return counted

    def counting_rows(*args, **kwargs):
        texts = row_params(*args, **kwargs)
        encoded.extend(texts)
        return texts

    row_params = cli._row_params
    monkeypatch.setattr(cli, "_row_params", counting_rows)
    monkeypatch.setattr(cli, "_text", counting(cli._text))
    monkeypatch.setattr(writer, "_text", counting(writer._text))
    verify_sweep_sizes = ["verify", "--phase-pairs", "60", "--ybe-samples", "2500"]
    counts = {}
    for jobs in ("1", "2"):
        for argv in (verify_sweep_sizes, ["spectrum"]):
            code, _, _ = run([*argv, "--jobs", jobs, "--out", str(tmp_path / jobs)], capsys)
            assert code == 0
            counts[argv[0], jobs] = len(encoded)
            encoded.clear()
    # 60 phase pairs at 4 q and at 5 tla_d, and 3 corner and 2,500 drawn exchange samples.
    assert counts["verify", "1"] == (4 + 5) * 60 + 3 + 2500
    # At each of 4 d: 5 theta and one d value and one predicted triple for the Casimir row; 5 theta,
    # one d, 2 omega and 2 phi values and 5 x 2 predicted triples for the H row.
    assert counts["spectrum", "1"] == 4 * ((5 + 1 + 1) + (5 + 1 + 2 + 2 + 5 * 2))
    assert 0 < counts["verify", "2"] < counts["verify", "1"] and 0 < counts["spectrum", "2"] < counts["spectrum", "1"]


def reference_summary(records):
    """The summary and closing-line ratio as four sums, a graded list and two ``max`` calls give them."""
    graded = [(name, residual, tolerance) for name, _, residual, tolerance, _ in records if residual is not None]
    statuses = [status for _, status, _, _, _ in records]
    summary = {
        "checks": len(records),
        "passed": statuses.count("pass"),
        "failed": statuses.count("fail"),
        "skipped": statuses.count("skip"),
        "worst_residual": max([residual for _, residual, _ in graded], default=None),
    }
    summary["overall_pass"] = summary["failed"] == 0
    ratio, closest = max(((r / t, name) for name, r, t in graded), key=lambda p: p[0], default=(0, None))
    return summary, ratio, closest


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), _FLOATS),
            _NONZERO,
            st.sampled_from(["pass", "fail", "skip", "other"]),
            st.sampled_from(["a", "b", "c"]),
        ),
        max_size=8,
    )
)
def test_property_summary_is_the_reference_in_one_pass(rows):
    records = [_check(name=n, residual=r, tolerance=t, status=s) for r, t, s, n in rows]
    tally = writer._Tally()
    tally.add(records)
    assert repr(tally.summary()) == repr(reference_summary(records))


@pytest.mark.parametrize("nan_first", [True, False], ids=["nan_first", "nan_later"])
def test_a_nan_residual_is_kept_only_as_the_first_graded_record(nan_first, tmp_path, capsys, monkeypatch):
    # max() keeps its first item unless a later one is larger, and nothing compares larger
    # than NaN or larger with it: a NaN first stays the largest, a NaN later is passed over.
    records = [
        _check(name="bwm.suite", residual=None, status="skip", reason="singular_matrix"),
        _check(name="bwm.skein_a", residual=2e-11, tolerance=1e-10),
        _check(name="ybe.exchange", residual=5e-11, tolerance=1e-10),
    ]
    nan = _check(name="ybe.unimodularity", residual=math.nan, tolerance=1e-12, status="fail")
    records.insert(1 if nan_first else 3, nan)
    monkeypatch.setitem(cli._COMMANDS, "verify", lambda cfg: iter([records[:2], records[2:]]))
    code, out, _ = run(["verify", "--out", str(tmp_path)], capsys)
    assert code == 1
    summary = load_report(tmp_path, "verify")["summary"]
    expected, ratio, closest = reference_summary(records)
    assert json.dumps(summary, sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert (summary["checks"], summary["skipped"]) == (4, 1)
    if nan_first:
        assert math.isnan(summary["worst_residual"]) and (closest, math.isnan(ratio)) == ("ybe.unimodularity", True)
    else:
        assert summary["worst_residual"] == 5e-11 and closest == "ybe.exchange"
    assert f"2/4 checks passed, 1 failed, 1 skipped; largest residual/tolerance {ratio:.3g} ({closest}); wrote " in out


# ---------------------------------------------------------------------------
# record lines of the row builders against json.dumps of reference dicts
# ---------------------------------------------------------------------------

# Values a params member, a level or a residual can hold: signed zeros, subnormals and the largest doubles;
# params also hold ints and bools (verify's epsilon is an int).
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_PARAM_VALUES = st.one_of(_EDGE_FLOATS, st.integers(-(2**70), 2**70), st.booleans())
_LEVEL = st.one_of(_EDGE_FLOATS, _FLOATS)
_LEVELS = st.lists(_LEVEL, min_size=3, max_size=3)


@settings(max_examples=150, deadline=None)
@given(
    axes=st.dictionaries(
        st.sampled_from(["theta", "d", "omega_drive", "phi", "epsilon"]),
        st.lists(_PARAM_VALUES, min_size=1, max_size=3),
        min_size=1,
        max_size=4,
    ),
    data=st.data(),
)
def test_property_levels_row_lines_are_json_dumps_of_the_reference(axes, data):
    params = [dict(zip(axes, point)) for point in itertools.product(*axes.values())]
    n = len(params)
    groups = data.draw(st.sampled_from([g for g in range(1, n + 1) if n % g == 0]))
    predicted = data.draw(st.lists(_LEVELS, min_size=groups, max_size=groups))
    observed = data.draw(st.lists(_LEVELS, min_size=n, max_size=n))
    residuals = data.draw(st.lists(_LEVEL, min_size=n, max_size=n))
    errors = {i: InvalidParam(f"point {i}") for i in data.draw(st.sets(st.integers(0, n - 1)))}
    name, tolerance, per = "spectrum.h_eigenvalues", 1e-10, n // groups
    records = writer._levels_records(name, writer._grid_params(axes), tolerance, residuals, observed, predicted, errors)
    expected = [
        skip_dict(name, p, tolerance, errors[i])
        if i in errors
        else record_dict(name, p, residuals[i], tolerance, observed=observed[i], predicted=predicted[i // per])
        for i, p in enumerate(params)
    ]
    assert lines(records) == [line(r) for r in expected]


@settings(max_examples=150, deadline=None)
@given(
    points=st.lists(
        st.dictionaries(st.sampled_from(["q", "d", "phi1", "phi2", "epsilon"]), _PARAM_VALUES, max_size=5), max_size=4
    ),
    whole_row=st.booleans(),
    data=st.data(),
)
def test_property_relation_row_lines_are_json_dumps_of_the_reference(points, whole_row, data):
    # A line that evaluate gives a tolerance, here transport_b, is graded at it, the others at the family's.
    tolerances = {"skein_a": cli.RELATION_TOL, "transport_b": cli.EXACT_TOL}
    results = [
        InvalidParam(f"point {i}") if data.draw(st.integers(0, 3)) == 0 else data.draw(st.lists(_LEVEL, min_size=2, max_size=2))
        for i in range(len(points))
    ]
    row_error = SingularMatrix("the whole row")

    def evaluate():
        if whole_row:
            raise row_error
        return tuple(tolerances), results, {"transport_b": cli.EXACT_TOL}

    records = cli._relation_records("bwm", [writer._text(p) for p in points], cli.RELATION_TOL, evaluate)
    expected = []
    for p, result in zip(points, results):
        if whole_row or isinstance(result, BwmBerryError):
            expected.append(skip_dict("bwm.suite", p, cli.RELATION_TOL, row_error if whole_row else result))
        else:
            expected += [record_dict(f"bwm.{n}", p, r, t) for (n, t), r in zip(tolerances.items(), result)]
    assert lines(records) == [line(r) for r in expected]


# Line names that a template must carry as they are: % signs, quotes and non-ASCII.
_LINE_NAMES = st.one_of(_CLI_NAMES, _TEXT, st.sampled_from(["bwm.100%", "ybe.%s%%d%r", 'tla."quoted"', "spectrum.é ψ 😀"]))
# Residuals at the edges of the pass test and of the float texts.
_RESIDUALS = st.one_of(_LEVEL, st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, math.nan, math.inf, -math.inf, 1e-10, 2e-10]))


@settings(max_examples=200, deadline=None)
@given(
    checks=st.lists(st.tuples(_LINE_NAMES, st.one_of(st.just(1e-10), st.just(1e-12), _NONZERO)), min_size=1, max_size=5),
    points=st.lists(_PARAMS, min_size=1, max_size=3),
    data=st.data(),
)
def test_property_templated_records_are_json_dumps_of_the_reference(checks, points, data):
    # Each line's templates are made once (``_graded``) and filled per point (``_checks``); a finite
    # residual below its tolerance fills the pass template directly, any other goes through ``_fill``.
    graded = [writer._graded(name, tolerance, data="{}") for name, tolerance in checks]
    for params in points:
        residuals = data.draw(st.lists(_RESIDUALS, min_size=len(checks), max_size=len(checks)))
        records = writer._checks(graded, writer._text(params), residuals)
        expected = [record_dict(name, params, r, t) for (name, t), r in zip(checks, residuals)]
        assert lines(records) == [line(r) for r in expected]
        assert [record[:4] for record in records] == [(r["name"], r["status"], r["residual"], r["tolerance"]) for r in expected]


def _former_exchange_params(samples):
    """The params texts of exchange samples as each sample's dict encoded whole gave them."""
    return [writer._text(dict(zip(cli._YBE_KEYS, row), epsilon=int(row[3]))) for row in samples.tolist()]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    rows=st.lists(st.lists(_EDGE_FLOATS, min_size=7, max_size=7), max_size=5),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=5, max_size=5),
)
def test_property_exchange_params_texts_are_the_text_of_the_former_dicts(seed, n, rows, signs):
    # The corners and the seeded draws, as their records' lines hold them, and rows of edge values
    # with the sign epsilon.
    cfg = cli.RunConfig(command="verify", out_dir=Path(), seed=seed, ybe_samples=n)
    samples = cli._ybe_samples(cfg)
    assert samples.shape == (3 + n, 7)
    texts = [r[4][r[4].index('"params": ') + 10 : r[4].index(', "reason": ')] for r in cli._ybe_point(cfg, samples)]
    assert list(dict.fromkeys(texts)) == _former_exchange_params(samples)
    edges = np.array([[*row[:3], sign, *row[4:]] for row, sign in zip(rows, signs)]).reshape(-1, 7)
    assert cli._row_params(cli._YBE_KEYS, edges.tolist(), ints=("epsilon",)) == _former_exchange_params(edges)


@settings(max_examples=100, deadline=None)
@given(value=_EDGE_FLOATS, pairs=st.lists(st.tuples(_EDGE_FLOATS, _EDGE_FLOATS), max_size=4))
def test_property_phase_pair_params_texts_are_the_text_of_the_former_dicts(value, pairs):
    array = np.array(pairs, dtype=float).reshape(-1, 2)
    for key in ("q", "d"):
        former = [writer._text({key: value, "phi1": p1, "phi2": p2}) for p1, p2 in array.tolist()]
        assert cli._pair_params(key, value, array) == former


def berry_point_dicts(theta, d, steps):
    """The record dicts of one Berry point, from the library's closed forms and loops."""
    params, match_tol = {"theta": float(theta), "d": float(d)}, 2.0 * berry.LOOP_BIAS_K / steps**2
    try:
        closed_sin, closed_cos = berry_closed(theta, d, "sin_form"), berry_closed(theta, d, "cos_form")
    except BwmBerryError as exc:
        return [skip_dict("berry.closed", params, None, exc)]
    swapped = berry_closed(math.pi / 2.0 - theta, d, "sin_form")
    tolerance = max(cli.EXACT_TOL, cli.FORM_ARGUMENT_C * 2.0**-53 * abs(math.pi / 2.0 - theta))
    residual = abs(closed_cos.gamma_plus - swapped.gamma_plus)
    gammas = {"gamma_plus_sin": closed_sin.gamma_plus, "gamma_plus_cos": closed_cos.gamma_plus}
    out = [record_dict("berry.form_consistency", params, residual, tolerance, **gammas)]
    if d < GOLDEN_RATIO - DOMAIN_SLACK:
        exc = InvalidParam("the Hamiltonian route needs d at or above the golden ratio")
        return out + [skip_dict("berry.match_plus", params, match_tol, exc, "closed_form_only")]
    try:
        loop, discrete = berry.berry_wilson_loop(theta, d, steps=steps), berry.berry_discrete(theta, d, steps=steps)
    except BwmBerryError as exc:
        return out + [skip_dict("berry.match_plus", params, match_tol, exc)]
    for branch, closed in (("plus", closed_sin.gamma_plus), ("minus", closed_sin.gamma_minus)):
        wilson, lifted = getattr(loop, f"gamma_{branch}"), getattr(loop, f"gamma_{branch}_lifted")
        residual = abs(berry._wrap_phase(wilson - closed))
        data = {"wilson": wilson, "wilson_lifted": lifted, "closed": closed, "pairing": loop.pairing}
        out.append(record_dict(f"berry.match_{branch}", params, residual, match_tol, **data))
    out.append(record_dict("berry.zero_branch", params, abs(loop.gamma_zero), cli.EXACT_TOL, wilson=loop.gamma_zero))
    gap = max(abs(berry._wrap_phase(loop.gamma_plus - discrete)), abs(berry._wrap_phase(loop.gamma_minus + discrete)))
    return out + [record_dict("berry.exact_discrete", params, gap, cli.EXACT_TOL, steps=steps, gamma_discrete=discrete)]


@settings(max_examples=60, deadline=None)
@given(
    theta=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 0.3, 2.2, 3e4, 1e308]), st.floats(-10.0, 10.0)),
    d=st.sampled_from([5e-324, 1.0, 1.5, GOLDEN_RATIO, 2.0, 3.0, 1e154, 1e308]),
)
def test_property_berry_point_lines_are_json_dumps_of_the_reference(theta, d):
    cfg = cli.RunConfig(command="berry", out_dir=Path("."), steps=16)
    assert lines(cli._berry_point(cfg, theta, d)) == [line(r) for r in berry_point_dicts(theta, d, 16)]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "command, args, all_skip",
    [
        ("verify", SMALL_VERIFY, False),
        ("spectrum", SPECTRUM_DOMAIN_GRIDS, False),
        ("spectrum", ["--grid-spec", "d=1.2", "--grid-spec", "theta=0.3,2.2"], True),  # d below the golden ratio
        ("berry", SMALL_BERRY, False),
        ("figure", ["--theta-points", "5", "--d-mesh", "1:2:3"], False),
    ],
    ids=["verify", "spectrum", "spectrum_all_skip", "berry", "figure"],
)
def test_report_text_has_one_line_per_check(command, args, all_skip, jobs, tmp_path, capsys):
    code, _, _ = run([command, "--out", str(tmp_path), *args, "--jobs", jobs], capsys)
    assert code in (0, 1)
    text = (tmp_path / f"{command}_report.json").read_text(encoding="utf-8")
    report = json.loads(text)
    assert text == one_line_checks(report)
    assert report["meta"]["timings"]["report_write"]["bytes"] == text.index(',\n  "meta": ')
    assert ({c["status"] for c in report["checks"]} == {"skip"}) == all_skip


# ---------------------------------------------------------------------------
# streamed reports: written row by row, in place only once complete
# ---------------------------------------------------------------------------

def rows_then(error):
    """A command that yields two rows of 1,500 records, enough to reach the file, and then raises ``error``."""

    def command(cfg):
        for q in (0.5, 0.9):
            params = {"q": q}
            yield [writer._record(f"bwm.line_{i}", writer._text(params), 1e-16, 1e-10) for i in range(1500)]
        raise error

    return command


@pytest.mark.parametrize("existing", [False, True], ids=["no_report", "earlier_report"])
@pytest.mark.parametrize(
    "error, message",
    [
        (DegenerateSpectrum("injected after two rows"), "error: injected after two rows\n"),
        (MemoryError("injected after two rows"), "error: the run does not fit in memory: injected after two rows\n"),
        (OSError(errno.ENOSPC, "No space left on device"), "error: cannot write outputs: [Errno 28] No space left on device\n"),
        (ValueError("injected after two rows"), None),
    ],
    ids=["package_error", "memory", "outputs", "escaping"],
)
def test_a_command_that_raises_after_some_rows_leaves_no_report(error, message, existing, tmp_path, capsys, monkeypatch):
    # The report goes to a temporary file that replaces the report only once complete;
    # every exit-2 path, and an exception that escapes main(), removes it.
    kept = place_old_report(tmp_path, "verify", existing)
    monkeypatch.setitem(cli._COMMANDS, "verify", rows_then(error))
    if message is None:
        with pytest.raises(ValueError, match="injected after two rows"):
            main(["verify", "--out", str(tmp_path)])
        assert capsys.readouterr().out == ""
    else:
        assert run(["verify", "--out", str(tmp_path)], capsys) == (2, "", message)
    assert_left_as_it_was(tmp_path, "verify", kept)


@pytest.mark.parametrize(
    "command, args",
    [("verify", VERIFY_ROWS), ("spectrum", SPECTRUM_DOMAIN_GRIDS), ("berry", FIVE_BERRY_ROWS)],
    ids=["verify", "spectrum", "berry"],
)
def test_forked_workers_add_no_bytes_to_the_open_report(command, args, tmp_path, capsys):
    # Each family forks with the temporary report open and text in its buffer; a child
    # leaves by os._exit, so it never flushes its copy, and the bytes are those of one job.
    texts = {}
    for jobs in ("1", "2", "3"):
        code, _, err = run([command, *args, "--jobs", jobs, "--out", str(tmp_path / jobs)], capsys)
        assert (code, err) == (0, "")
        assert sorted(os.listdir(tmp_path / jobs)) == [f"{command}_report.json"]
        text = (tmp_path / jobs / f"{command}_report.json").read_text(encoding="utf-8")
        start, end = text.index(',\n  "meta": {'), text.index('\n  },\n  "schema": ')
        texts[jobs] = text[:start] + text[end + 4 :]
    assert texts["1"] == texts["2"] == texts["3"]
    assert_no_child_process_left()


class FailingFile:
    """A file whose ``write`` fails as a full disk does once ``writes`` calls have gone through."""

    def __init__(self, fh, writes: int):
        self.fh, self.writes = fh, writes

    def write(self, text: str) -> int:
        if self.writes == 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.writes -= 1
        return self.fh.write(text)

    def close(self) -> None:
        self.fh.close()


@pytest.mark.parametrize("existing", [False, True], ids=["no_csv", "earlier_csv"])
def test_a_csv_write_that_fails_after_a_few_rows_leaves_no_partial_csv(existing, tmp_path, capsys, monkeypatch):
    # The surface CSV fails after its header and three d rows: the sections CSV before it is
    # complete, and no partial surface CSV, temporary file or report is left behind.
    real_open = open

    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return FailingFile(fh, 4) if "figure_surface.csv" in str(path) else fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    if existing:
        (tmp_path / "figure_surface.csv").write_bytes(b"theta,d,gamma_plus\nearlier\n")
    argv = ["figure", "--theta-points", "11", "--d-mesh", "1:3:6"]
    code, out, err = run([*argv, "--out", str(tmp_path)], capsys)
    assert (code, out, err) == (2, "", "error: cannot write outputs: [Errno 28] No space left on device\n")
    assert sorted(os.listdir(tmp_path)) == ["figure_sections.csv", *(["figure_surface.csv"] if existing else [])]
    if existing:
        assert (tmp_path / "figure_surface.csv").read_bytes() == b"theta,d,gamma_plus\nearlier\n"
    monkeypatch.undo()
    assert run([*argv, "--out", str(tmp_path / "whole")], capsys)[0] == 0
    assert (tmp_path / "figure_sections.csv").read_bytes() == (tmp_path / "whole" / "figure_sections.csv").read_bytes()


@pytest.mark.parametrize("jobs", ["2", "3"])
def test_a_report_write_that_fails_partway_reaps_the_workers_there(jobs, tmp_path, capsys, monkeypatch):
    # The disk fills after the first two Berry rows are taken, with children still
    # holding later rows: they are reaped as the write fails, before main() reports it.
    real_open, real_error = open, cli._error

    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return FailingFile(fh, 4) if "berry_report.json" in str(path) else fh

    def error(message):
        assert_no_child_process_left()
        return real_error(message)

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    monkeypatch.setattr(cli, "_error", error)
    code, out, err = run(["berry", *FIVE_BERRY_ROWS, "--jobs", jobs, "--out", str(tmp_path)], capsys)
    assert (code, out, err) == (2, "", "error: cannot write report: [Errno 28] No space left on device\n")
    assert os.listdir(tmp_path) == []


def test_forked_workers_hold_no_more_than_one_job(tmp_path, capsys):
    # Rows stream back one at a time, so the running process's traced peak at
    # --jobs 2 stays near that of --jobs 1; holding a child's whole share would
    # nearly treble it.
    def peak(jobs: str) -> int:
        argv = ["verify", "--phase-pairs", "600", "--ybe-samples", "0", "--jobs", jobs, "--out", str(tmp_path / jobs)]
        tracemalloc.start()
        try:
            assert run(argv, capsys)[0] == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("1")  # one-time allocations of a first run out of the way
    one, two = peak("1"), peak("2")
    assert two <= 1.25 * one, (one, two)


def test_peak_memory_does_not_grow_with_the_phase_pairs(tmp_path, capsys):
    # At --jobs 1 the report is written row by row, CHUNK phase pairs at a time, so the
    # traced peak of 2,500 pairs stays near that of 250; holding every record would double it.
    def peak(pairs: int) -> int:
        argv = ["verify", "--phase-pairs", str(pairs), "--ybe-samples", "0", "--grid-spec", "q=", "--grid-spec", "tla_d=2"]
        tracemalloc.start()
        try:
            assert run([*argv, "--out", str(tmp_path)], capsys)[0] == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(250)  # one-time allocations of a first run out of the way
    small, large = peak(250), peak(2500)
    assert large < 1.5 * small, (small, large)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def test_config_file_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps": 64, "seed": 3, "grids": {"q": [0.9], "tla_d": []}}))
    run(
        [
            "verify",
            "--out",
            str(tmp_path),
            "--config",
            str(cfg),
            "--steps",
            "128",
            "--ybe-samples",
            "0",
            "--phase-pairs",
            "1",
        ],
        capsys,
    )
    report = load_report(tmp_path, "verify")
    assert report["config"]["steps"] == 128  # flag wins
    assert report["config"]["seed"] == 3  # file value survives
    assert report["config"]["grids"]["q"] == [0.9]


def test_config_file_grid_range_syntax(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grids": {"q": "0.5:2.0:4", "tla_d": []}}))
    run(
        [
            "verify",
            "--out",
            str(tmp_path),
            "--config",
            str(cfg),
            "--ybe-samples",
            "0",
            "--phase-pairs",
            "1",
        ],
        capsys,
    )
    report = load_report(tmp_path, "verify")
    assert report["config"]["grids"]["q"] == [0.5, 1.0, 1.5, 2.0]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--grid-spec", "nope=1,2"],
        ["verify", "--grid-spec", "q=0.5:2.0"],  # malformed range
        ["verify", "--grid-spec", "q=abc"],
        ["verify", "--steps", "8"],
        ["verify", "--jobs", "0"],
        ["figure", "--d-mesh", "6:1:10"],
        ["figure", "--d-mesh", "0.5:6:10"],
        ["figure", "--theta-points", "1"],
        ["verify", "--seed", "-1"],
        ["figure", "--d-mesh", "1:nan:3"],
        ["figure", "--grid-spec", "figure_d=0.5"],
        ["figure", "--grid-spec", "figure_d=nan"],
        ["verify", "--grid-spec", "ybe_d=2.5"],  # before the BWM and TLA families run
        ["spectrum", "--grid-spec", "theta=nan"],  # one finiteness rule for every grid
        ["verify", "--steps", "abc"],
        ["figure", "--d-mesh", "1:6"],
        ["verify", "--grid-spec", "q"],  # no NAME=VALUES
        ["verify", "--grid-spec", "theta=0:1:0"],  # empty range
        ["verify", "--grid-spec", "q=-1e308:1e308:3"],  # the range's arithmetic overflows
        # Each count is refused above its maximum, before any array or thread is made.
        ["verify", "--phase-pairs", "1000000000000", "--grid-spec", "q=", "--grid-spec", "tla_d=", "--ybe-samples", "0"],
        ["berry", "--steps", "1000000000000", "--grid-spec", "berry_theta=0.5", "--grid-spec", "berry_d=2"],
        ["spectrum", "--grid-spec", "theta=0:1:1000000000000"],
        ["verify", "--phase-pairs", "99999999999999999999"],
        ["berry", "--steps", str(cli.MAX_STEPS + 1)],
        ["verify", "--phase-pairs", str(cli.MAX_PHASE_PAIRS + 1)],
        ["verify", "--ybe-samples", str(cli.MAX_YBE_SAMPLES + 1)],
        ["figure", "--theta-points", str(cli.MAX_AXIS_POINTS + 1)],
        ["figure", "--d-mesh", f"1:6:{cli.MAX_AXIS_POINTS + 1}"],
        ["figure", "--grid-spec", f"figure_d=1:6:{cli.MAX_AXIS_POINTS + 1}"],
        ["verify", "--jobs", str(cli.MAX_JOBS + 1)],
    ],
)
def test_config_errors_exit_two(argv, tmp_path, capsys):
    code, out, err = run([*argv, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert not out and not list(tmp_path.iterdir())


def test_count_maxima_are_accepted():
    argv = ["figure", "--steps", str(cli.MAX_STEPS), "--phase-pairs", str(cli.MAX_PHASE_PAIRS)]
    argv += ["--ybe-samples", str(cli.MAX_YBE_SAMPLES), "--jobs", str(cli.MAX_JOBS)]
    argv += ["--theta-points", str(cli.MAX_AXIS_POINTS), "--d-mesh", f"1:6:{cli.MAX_AXIS_POINTS}"]
    cfg = build_config(build_parser().parse_args([*argv, "--grid-spec", f"figure_d=1:6:{cli.MAX_AXIS_POINTS}"]))
    assert (cfg.steps, cfg.phase_pairs, cfg.ybe_samples, cfg.jobs, cfg.figure_theta_points) == (
        cli.MAX_STEPS,
        cli.MAX_PHASE_PAIRS,
        cli.MAX_YBE_SAMPLES,
        cli.MAX_JOBS,
        cli.MAX_AXIS_POINTS,
    )
    assert cfg.figure_d_mesh[2] == len(cfg.grid("figure_d")) == cli.MAX_AXIS_POINTS


def test_run_that_does_not_fit_in_memory_exits_two(tmp_path, capsys, monkeypatch):
    # Counts inside their maxima can still multiply past the memory at hand;
    # the allocation failure is simulated, so nothing large is allocated.
    message = "Unable to allocate 763. MiB for an array with shape (10000, 10000)"

    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "figure_table", refuse)
    code, out, err = run(["figure", "--out", str(tmp_path), "--theta-points", "5"], capsys)
    assert code == 2 and not out
    assert err == f"error: the run does not fit in memory: {message}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "content",
    ["[1]", '{"grids": [1]}', None, "directory", b"\xff\xfe{"],
    ids=["list", "grids_list", "missing", "directory", "not_utf8"],
)
def test_unusable_config_file_exits_two(content, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    if content == "directory":
        cfg.mkdir()
    elif isinstance(content, bytes):
        cfg.write_bytes(content)
    elif content is not None:
        cfg.write_text(content)
    code, _, err = run(["verify", "--out", str(tmp_path / "out"), "--config", str(cfg)], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_unwritable_report_exits_two(tmp_path, capsys):
    # The report path is a directory: the temporary report cannot replace it, and is removed;
    # the records were written to it as three families forked their workers.
    (tmp_path / "verify_report.json").mkdir()
    (tmp_path / "verify_report.json" / "inside").write_bytes(OLD_REPORT)
    code, out, err = run(["verify", "--out", str(tmp_path), *VERIFY_ROWS, "--jobs", "2"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write report: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["verify_report.json"]
    assert os.listdir(tmp_path / "verify_report.json") == ["inside"]
    assert_no_child_process_left()


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tollerance": 1e-9}))
    code, _, err = run(["verify", "--out", str(tmp_path), "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown config keys" in err


@pytest.mark.parametrize(
    "command, contents",
    [
        ("verify", {"seed": "abc"}),
        ("verify", {"seed": 1.7}),
        ("verify", {"phase_pairs": True}),
        ("verify", {"grids": {"q": [True]}}),
        ("figure", {"figure_d_mesh": [1, 6, 2.9]}),
        ("figure", {"out": 123}),
        ("verify", {"ybe_samples": 10**12}),
        ("spectrum", {"grids": {"theta": "0:1:1000000000000"}}),
    ],
)
@pytest.mark.parametrize("flags", [[], ["--steps", "64", "--seed", "3", "--out", "."]], ids=["file", "flags"])
def test_invalid_config_values_exit_two(command, contents, flags, tmp_path, capsys, monkeypatch):
    # A bad file value is an error even where a flag overrides it.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BWMBERRY_OUT", str(tmp_path))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(contents))
    code, _, err = run([command, "--config", str(cfg), *flags], capsys)
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# the knob table: one declaration drives flags, file keys, validation and echo
# ---------------------------------------------------------------------------


def _alternative_values(knob):
    """(file value, value read from it, flag text, value read from it): valid, non-default."""
    if isinstance(knob.default, tuple):
        return [1.0, 5.0, 11], (1.0, 5.0, 11), "1:4:7", (1.0, 4.0, 7)
    return 2 * knob.default, 2 * knob.default, repr(3 * knob.default), 3 * knob.default


@pytest.mark.parametrize("knob", KNOBS, ids=lambda k: k.name)
def test_knob_rejects_json_true(knob, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({knob.name: True}))
    code, _, err = run(["figure", "--out", str(tmp_path), "--config", str(cfg)], capsys)
    assert code == 2
    assert f"error: {knob.name}" in err


@pytest.mark.parametrize("knob", KNOBS, ids=lambda k: k.name)
def test_knob_file_value_read_and_flag_wins(knob, tmp_path):
    file_value, from_file, flag_text, from_flag = _alternative_values(knob)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({knob.name: file_value}))
    argv = ["figure" if knob.metadata["figure"] else "verify", "--config", str(cfg)]
    assert getattr(build_config(build_parser().parse_args(argv)), knob.name) == from_file
    argv += [knob.metadata["flag"], flag_text]
    assert getattr(build_config(build_parser().parse_args(argv)), knob.name) == from_flag


def test_config_keys_and_echo_follow_the_knob_table(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"nope": 1}))
    _, _, err = run(["verify", "--out", str(tmp_path), "--config", str(cfg)], capsys)
    allowed = ast.literal_eval(err.split("allowed: ", 1)[1].strip())
    assert set(allowed) == {k.name for k in KNOBS} | {"out", "grids"}

    run(["verify", "--out", str(tmp_path), "--grid-spec", "q=", "--grid-spec", "tla_d=", "--ybe-samples", "0"], capsys)
    echoed = set(load_report(tmp_path, "verify")["config"])
    assert echoed == {k.name for k in KNOBS if k.metadata["echo"]} | {"grids"}


def test_unreadable_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("{not json")
    code, _, err = run(["verify", "--out", str(tmp_path), "--config", str(cfg)], capsys)
    assert code == 2


def test_unwritable_out_dir_exits_two(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code, _, err = run(["figure", "--out", str(blocker / "sub"), "--theta-points", "5"], capsys)
    assert code == 2
    assert "error:" in err


def test_out_dir_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BWMBERRY_OUT", str(tmp_path / "env_dir"))
    code, _, _ = run(["figure", "--theta-points", "5", "--d-mesh", "1:2:2"], capsys)
    assert code == 0
    assert (tmp_path / "env_dir" / "figure_sections.csv").is_file()


# Inputs for the property test over main(): grid specs, knob flags (each count capped
# at the fixed small run below) and config files, valid and not.
_NUMBER_TEXT = st.sampled_from(["0", "1.5", "2", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "abc", ""])
_GRID_SPEC = st.one_of(
    st.builds(
        "{}={}".format,
        st.sampled_from([*cli.GRID_NAMES, "nope", ""]),
        st.one_of(
            st.lists(_NUMBER_TEXT, max_size=3).map(",".join),
            st.builds("{}:{}:{}".format, _NUMBER_TEXT, _NUMBER_TEXT, st.integers(-1, 3)),
        ),
    ),
    st.text(max_size=10),
)
_SMALL_RUN = ["--phase-pairs", "2", "--ybe-samples", "3", "--steps", "32"]
_SMALL_FIGURE = ["--theta-points", "5", "--d-mesh", "1:2:3"]
_FLAG_VALUES = {
    "--steps": st.integers(cli.MIN_STEPS - 1, 32),
    "--seed": st.integers(-1, 3),
    "--jobs": st.integers(0, 2),
    "--phase-pairs": st.integers(-1, 2),
    "--ybe-samples": st.integers(-1, 3),
    "--theta-points": st.integers(1, 5),
    "--d-mesh": st.builds("{}:{}:{}".format, _NUMBER_TEXT, _NUMBER_TEXT, st.integers(-1, 3)),
    "--tolerance": _NUMBER_TEXT,
    "--phase-tolerance": _NUMBER_TEXT,
}
assert set(_FLAG_VALUES) == {k.metadata["flag"] for k in KNOBS} | {"--tolerance", "--phase-tolerance"}
_FLAG = st.sampled_from(sorted(_FLAG_VALUES)).flatmap(
    lambda flag: st.tuples(st.just(flag), st.one_of(_FLAG_VALUES[flag].map(str), _NUMBER_TEXT))
)
_CONFIG_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), _FLOATS, st.text(max_size=5), st.lists(st.integers(0, 3), max_size=3)
)
_CONFIG = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from([*sorted(cli._CONFIG_KEYS), "tolerance", "phase_tolerance"]), _CONFIG_VALUE, max_size=3),
    st.lists(st.integers(), max_size=2),
    st.integers(),
    st.text(max_size=5),
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(sorted(cli._COMMANDS)),
    specs=st.lists(_GRID_SPEC, max_size=3),
    flags=st.lists(_FLAG, max_size=3),
    config=_CONFIG,
)
@example(command="verify", specs=["q=-1e308:1e308:3"], flags=[], config=None)
@example(command="berry", specs=[], flags=[("--tolerance", "1e-9")], config={"tolerance": 1e-10})
def test_property_main_exits_0_1_or_2_without_a_traceback(command, specs, flags, config):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp, "out")
        argv = [command, "--out", str(out_dir), *_SMALL_RUN, *(_SMALL_FIGURE if command == "figure" else [])]
        argv += [arg for spec in specs for arg in ("--grid-spec", spec)] + [arg for flag in flags for arg in flag]
        if config is not None:
            Path(tmp, "run.json").write_text(json.dumps(config))
            argv += ["--config", str(Path(tmp, "run.json"))]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
                assert code == 2
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        if code != 2:
            assert (out_dir / f"{command}_report.json").is_file()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bwmberry.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "verify" in proc.stdout and "figure" in proc.stdout
