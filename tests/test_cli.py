"""End-to-end tests of the command-line front end."""

import ast
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from bwmberry import (
    GOLDEN_RATIO,
    AlgebraParams,
    DegenerateSpectrum,
    DriveParams,
    InvalidParam,
    NoConvergence,
    NotHermitian,
    berry,
    berry_closed,
    cli,
    ladder_ops,
)
from bwmberry.cli import KNOBS, build_config, build_parser, main

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


def test_verify_tight_tolerance_reports_failures(tmp_path, capsys):
    code, out, _ = run(
        ["verify", "--out", str(tmp_path), "--tolerance", "1e-16", *SMALL_VERIFY], capsys
    )
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

    monkeypatch.setattr(cli, "hermitian_eigs", fail)
    grids = ["--grid-spec", "theta=0.4", "--grid-spec", "d=2", "--grid-spec", "omega=1", "--grid-spec", "phi=0"]
    code, _, err = run(["spectrum", "--out", str(tmp_path), *grids], capsys)
    assert code == 0
    assert "Traceback" not in err
    checks = load_report(tmp_path, "spectrum")["checks"]
    assert [(c["name"], c["status"], c["reason"]) for c in checks] == [
        ("spectrum.casimir", "skip", reason),
        ("spectrum.h_eigenvalues", "skip", reason),
    ]


def test_spectrum_solver_error_skips_only_its_own_point(tmp_path, capsys, monkeypatch):
    # The row's batched solve fails because one matrix of it is refused; the
    # row is then solved matrix by matrix, so only that point becomes a skip.
    chosen = cli.hamiltonian_stack([1.3], cli.DriveParams(theta=2.2, d=2.0, omega_drive=0.5))[0]
    solve = cli.hermitian_eigs

    def refuse_chosen(m):
        if any(np.array_equal(h, chosen) for h in np.reshape(m, (-1, 3, 3))):
            raise NotHermitian("injected for one matrix")
        return solve(m)

    code, _, _ = run(["spectrum", "--out", str(tmp_path / "plain"), *SPECTRUM_DOMAIN_GRIDS], capsys)
    assert code == 0
    monkeypatch.setattr(cli, "hermitian_eigs", refuse_chosen)
    code, _, err = run(["spectrum", "--out", str(tmp_path / "patched"), *SPECTRUM_DOMAIN_GRIDS], capsys)
    assert code == 0
    assert "Traceback" not in err
    plain = load_report(tmp_path / "plain", "spectrum")["checks"]
    patched = load_report(tmp_path / "patched", "spectrum")["checks"]
    assert len(plain) == len(patched)
    changed = [(a, b) for a, b in zip(plain, patched) if a != b]
    assert len(changed) == 1
    before, after = changed[0]
    assert after["params"] == before["params"] == {"theta": 2.2, "d": 2.0, "omega_drive": 0.5, "phi": 1.3}
    assert (after["name"], after["status"], after["reason"]) == ("spectrum.h_eigenvalues", "skip", "not_hermitian")
    assert after["data"] == {"detail": "injected for one matrix"}


def test_report_meta_holds_stage_timings(tmp_path, capsys):
    run(["spectrum", "--out", str(tmp_path), *SPECTRUM_DOMAIN_GRIDS], capsys)
    report = load_report(tmp_path, "spectrum")
    assert set(report["meta"]) == {"timestamp", "out_dir", "jobs", "timings"}
    timings = report["meta"]["timings"]
    assert set(timings) == {"build_config", "evaluate"}
    assert timings["evaluate"]["records"] == report["summary"]["checks"] == 75
    run(["figure", "--out", str(tmp_path), "--theta-points", "11", "--d-mesh", "1:3:4"], capsys)
    report = load_report(tmp_path, "figure")
    timings = report["meta"]["timings"]
    assert set(timings) == {"build_config", "evaluate", "write_csv"}
    assert timings["evaluate"]["records"] == 2
    assert timings["write_csv"]["rows"] == sum(c["data"]["rows"] for c in report["checks"]) == 11 * (5 + 4)
    assert all(entry["seconds"] >= 0.0 for entry in timings.values())
    run(["verify", "--out", str(tmp_path), "--phase-pairs", "2", "--ybe-samples", "7", "--grid-spec", "q=0.5,2"], capsys)
    report = load_report(tmp_path, "verify")
    timings = report["meta"]["timings"]
    assert set(timings) == {"build_config", "evaluate", "verify.bwm", "verify.tla", "verify.ybe"}
    assert [timings[f"verify.{family}"]["points"] for family in ("bwm", "tla", "ybe")] == [2 * 2, 5 * 2, 3 + 7]
    families = sum(timings[f"verify.{family}"]["seconds"] for family in ("bwm", "tla", "ybe"))
    assert 0.0 < families <= timings["evaluate"]["seconds"]


def test_error_escaping_the_point_guards_exits_two(tmp_path, capsys, monkeypatch):
    def fail(cfg):
        raise DegenerateSpectrum("injected outside any point")

    monkeypatch.setitem(cli._COMMANDS, "berry", fail)
    code, _, err = run(["berry", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err == "error: injected outside any point\n"
    assert not (tmp_path / "berry_report.json").exists()


@pytest.mark.parametrize(
    "argv, skipped",
    [
        (["spectrum", "--grid-spec", "d=1e100"], {"spectrum.casimir"}),
        (["spectrum", "--grid-spec", "d=1e200"], {"spectrum.casimir", "spectrum.h_eigenvalues"}),  # d * d is inf
        (["berry", "--grid-spec", "berry_d=1e200"], {"berry.closed"}),
        (["figure", "--grid-spec", "figure_d=1e200"], None),
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
def test_overflowing_parameters_skip_or_exit_two(argv, skipped, tmp_path, capsys):
    # Per-point commands evaluate the point or skip it as invalid_param; figure has no points.
    # pytest turns a numpy RuntimeWarning into an error, so none escapes either.
    code, _, err = run([*argv, "--out", str(tmp_path)], capsys)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if skipped is None:
        assert code == 2
        assert err.startswith("error: figure_table overflows double precision")
    else:
        assert code == 0
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


# Loose --tolerance and --phase-tolerance show that these checks ignore both.
@pytest.mark.parametrize(
    "command, args, prefix, tolerance, removed_key",
    [
        ("verify", SMALL_VERIFY, "tla.", 1e-12, "tla_tolerance"),
        ("verify", SMALL_VERIFY, "ybe.unimodularity", 1e-13, "unimodularity_tolerance"),
        (
            "berry",
            ["--grid-spec", "berry_theta=0.7,4.0", "--steps", "256"],
            "berry.zero_branch",
            1e-12,
            "zero_branch_tolerance",
        ),
    ],
    ids=["tla", "unimodularity", "zero_branch"],
)
def test_exact_checks_have_fixed_tolerances(command, args, prefix, tolerance, removed_key, tmp_path, capsys):
    loose = ["--tolerance", "0.1", "--phase-tolerance", "0.1"]
    code, _, _ = run([command, "--out", str(tmp_path), *args, *loose], capsys)
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


# At 33 steps the O(steps^-2) discretisation bias is ~4e-3, hence the loose
# phase tolerance of the odd case; the exact discrete check stays at 1e-12.
@pytest.mark.parametrize(
    "steps, flags", [(1024, []), (33, ["--phase-tolerance", "0.05"])], ids=["1024", "33"]
)
def test_berry_exact_discrete_record_catches_a_misspaced_loop(tmp_path, capsys, monkeypatch, steps, flags):
    grids = ["--grid-spec", "berry_theta=0.7,4.0", "--grid-spec", "berry_d=1.7,3", "--steps", str(steps), *flags]
    code, _, _ = run(["berry", "--out", str(tmp_path / "exact"), *grids], capsys)
    assert code == 0
    exact = [c for c in load_report(tmp_path / "exact", "berry")["checks"] if c["name"] == "berry.exact_discrete"]
    assert len(exact) == 4
    for c in exact:
        assert c["status"] == "pass" and c["residual"] <= 1e-12 and c["tolerance"] == 1e-12
        gamma = berry.berry_discrete(c["params"]["theta"], c["params"]["d"], steps=steps)
        assert c["data"] == {"steps": steps, "gamma_discrete": gamma}

    # Loop phases spaced 2 pi / (N + 1) instead of 2 pi / N: the loop misses
    # the closed form by far less than the phase tolerance, so only the
    # exact discrete check sees it.
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
    for jobs in ("1", "2"):
        run([command, "--out", str(tmp_path / jobs), *args, "--jobs", jobs], capsys)
        texts.append(json.dumps(strip_meta(load_report(tmp_path / jobs, command)), indent=2, sort_keys=True))
    assert texts[0] == texts[1]


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


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def test_config_file_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tolerance": 1e-2, "seed": 3, "grids": {"q": [0.9], "tla_d": []}}))
    run(
        [
            "verify",
            "--out",
            str(tmp_path),
            "--config",
            str(cfg),
            "--tolerance",
            "1e-9",
            "--ybe-samples",
            "0",
            "--phase-pairs",
            "1",
        ],
        capsys,
    )
    report = load_report(tmp_path, "verify")
    assert report["config"]["tolerance"] == 1e-9  # flag wins
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
        ["verify", "--tolerance", "-1"],
        ["verify", "--seed", "-1"],
        ["figure", "--d-mesh", "1:nan:3"],
        ["figure", "--grid-spec", "figure_d=0.5"],
        ["figure", "--grid-spec", "figure_d=nan"],
        ["spectrum", "--grid-spec", "theta=nan"],  # one finiteness rule for every grid
        ["verify", "--steps", "abc"],
        ["figure", "--d-mesh", "1:6"],
        ["verify", "--grid-spec", "q"],  # no NAME=VALUES
        ["verify", "--grid-spec", "theta=0:1:0"],  # empty range
    ],
)
def test_config_errors_exit_two(argv, tmp_path, capsys):
    code, _, err = run([*argv, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "content", ["[1]", '{"grids": [1]}', None, "directory"], ids=["list", "grids_list", "missing", "directory"]
)
def test_unusable_config_file_exits_two(content, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    if content == "directory":
        cfg.mkdir()
    elif content is not None:
        cfg.write_text(content)
    code, _, err = run(["verify", "--out", str(tmp_path / "out"), "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_unwritable_report_exits_two(tmp_path, capsys):
    (tmp_path / "verify_report.json").mkdir()
    code, _, err = run(["verify", "--out", str(tmp_path), *SMALL_VERIFY], capsys)
    assert code == 2
    assert err.startswith("error: cannot write report")


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
        ("verify", {"tolerance": True}),
        ("verify", {"grids": {"q": [True]}}),
        ("figure", {"figure_d_mesh": [1, 6, 2.9]}),
        ("figure", {"out": 123}),
    ],
)
@pytest.mark.parametrize("flags", [[], ["--tolerance", "1e-9", "--seed", "3", "--out", "."]], ids=["file", "flags"])
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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bwmberry.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "verify" in proc.stdout and "figure" in proc.stdout
