"""Command-line interface: verification suites, spectra, loop phases, figure data.

Four subcommands, all batch-style (run, write artifacts, exit):

* ``verify``   - algebra relation suites and exchange-identity sweeps;
* ``spectrum`` - driven-Hamiltonian eigenvalues against the closed form,
  plus the Casimir spectrum of the ladder triple;
* ``berry``    - Wilson-loop phases against the closed forms;
* ``figure``   - CSV tables of the closed-form phase surface and sections.

Every command writes a schema-versioned JSON report whose check records
carry (name, params, residual, tolerance, status, reason).  Exit codes:
0 all executed checks passed, 1 at least one check failed, 2 the
configuration or an output path was unusable, or a package error escaped
every per-point guard.  Grid points that violate
a domain guard become per-point ``skip`` records with a machine-readable
reason token instead of aborting the run.  With a fixed seed the reports
and CSVs are byte-identical across runs (timestamps live in a separate
``meta`` object).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .algebra import (
    DOMAIN_SLACK,
    GOLDEN_RATIO,
    AlgebraParams,
    check_bwm_suite,
    check_tla,
    make_a,
    make_b,
    make_ea,
    make_eb,
    make_u,
)
from .berry import MIN_STEPS, SECTION_D_VALUES, _wrap_phase, berry_closed, berry_discrete, berry_wilson_loop, figure_table
from .errors import BwmBerryError, ConfigError, InvalidParam
from .matrices import dagger, hermitian_eigs, inverse, rel_residual
from .spin import DriveParams, cos_alpha, hamiltonian_stack, ladder_ops
from .yangbaxter import SpectralParams, exchange_residuals

#: Tolerance of every check whose identity holds exactly up to rounding:
#: transport, unitarity, the Temperley-Lieb relations, form consistency, the
#: zero branch and the Wilson loop against its exact discrete phase.
EXACT_TOL = 1e-12

#: Tolerance of ``ybe.unimodularity``, the distance of |z(u)| from 1.
UNIT_CIRCLE_TOL = 1e-13

#: Grids accepted by --grid-spec and the config file, with their defaults.
DEFAULT_GRIDS: dict[str, tuple[float, ...]] = {
    "q": (0.5, 0.9, 1.3, 2.0),
    "tla_d": (GOLDEN_RATIO, 1.8, 2.0, 3.0, 5.0),
    "theta": (0.0, 0.4, math.pi / 6.0, 1.0, 2.2),
    "d": (1.7, 2.0, 3.0, 5.0),
    "omega": (0.5, 1.0),
    "phi": (0.0, 1.3),
    "ybe_beta": (0.3, 1.0),
    "ybe_d": (1.7, 1.9),
    "berry_theta": (0.3, 0.7, 1.2, 2.0),
    "berry_d": (1.0, math.sqrt(2.0), 1.7, 2.0, 3.0, 5.0),
    "figure_d": SECTION_D_VALUES,
}

GRID_NAMES = tuple(DEFAULT_GRIDS)


# --------------------------------------------------------------------------
# knob validators: each takes (name, value) and returns the normalised value
# --------------------------------------------------------------------------

def _real(value) -> bool:
    """A finite number; JSON booleans are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _positive(name: str, value) -> float:
    if not (_real(value) and value > 0):
        raise ConfigError(f"{name} must be a positive number, got {value!r}")
    return float(value)


def _count(minimum: int):
    def check(name: str, value) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
        return value

    return check


def _d_mesh(name: str, value) -> tuple[float, float, int]:
    if not (isinstance(value, (list, tuple)) and len(value) == 3 and _real(value[0]) and _real(value[1])):
        raise ConfigError(f"{name} must be [min, max, count] with finite min and max, got {value!r}")
    if not 1 <= value[0] <= value[1]:
        raise ConfigError(f"{name} needs 1 <= min <= max, got {value!r}")
    return (float(value[0]), float(value[1]), _count(2)(f"{name} count", value[2]))


def _parse_range(text: str) -> tuple[float, float, int]:
    """Parse 'start:stop:count', the syntax of --grid-spec ranges and --d-mesh."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"a range needs start:stop:count, got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _knob(default, check, flag, help, *, parse=None, metavar=None, echo=True, figure=False):
    """A RunConfig field that is both a config-file key and a flag.

    ``check`` validates flag and file values alike; ``parse`` turns flag text
    into a value (default: the type of ``default``); ``echo`` puts the value
    in the report's ``config``; ``figure`` offers the flag on ``figure`` only.
    """
    metavar = metavar or flag[2:].replace("-", "_").upper()
    metadata = dict(
        check=check, flag=flag, help=help, parse=parse or type(default), metavar=metavar, echo=echo, figure=figure
    )
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """Fully resolved run parameters (defaults < config file < flags).

    Every field declared with ``_knob`` is a configuration knob: its
    default, validator, flag, help text and echo are declared here only.
    """

    command: str
    out_dir: Path
    tolerance: float = _knob(1e-10, _positive, "--tolerance", "base relation tolerance")
    phase_tolerance: float = _knob(1e-4, _positive, "--phase-tolerance", "loop-phase match tolerance")
    steps: int = _knob(4096, _count(MIN_STEPS), "--steps", "loop discretisation points")
    seed: int = _knob(20260815, _count(0), "--seed", "seed for sampled phases and velocities")
    jobs: int = _knob(1, _count(1), "--jobs", "worker threads for grid evaluation", echo=False)
    phase_pairs: int = _knob(5, _count(0), "--phase-pairs", "number of sampled (phi1, phi2) pairs")
    ybe_samples: int = _knob(200, _count(0), "--ybe-samples", "number of sampled exchange tuples")
    figure_theta_points: int = _knob(401, _count(2), "--theta-points", "theta samples over [0, 2pi]", figure=True)
    figure_d_mesh: tuple[float, float, int] = _knob(
        (1.0, 6.0, 51), _d_mesh, "--d-mesh", "surface d mesh", parse=_parse_range, metavar="MIN:MAX:COUNT", figure=True
    )
    grids: dict[str, tuple[float, ...]] = field(default_factory=dict)
    #: Stage timings of the run (see ``timed``), written to the report's ``meta``.
    timings: dict[str, dict] = field(default_factory=dict)

    def grid(self, name: str) -> tuple[float, ...]:
        return self.grids.get(name, DEFAULT_GRIDS[name])

    def echo(self) -> dict:
        """Deterministic echo of the mathematically relevant configuration."""
        out = {f.name: getattr(self, f.name) for f in KNOBS if f.metadata["echo"]}
        out["grids"] = {name: self.grid(name) for name in GRID_NAMES}
        return out


#: The configuration knobs, in declaration order.
KNOBS = tuple(f for f in fields(RunConfig) if "check" in f.metadata)

_CONFIG_KEYS = {f.name for f in KNOBS} | {"out", "grids"}


@dataclass
class CheckRecord:
    """One executed (or skipped) check inside a report."""

    name: str
    params: dict
    residual: float | None
    tolerance: float | None
    status: str
    reason: str | None = None
    data: dict = field(default_factory=dict)


def _reason_token(exc: BaseException) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).lower()


def _record(name: str, params: dict, residual: float, tolerance: float, **data) -> CheckRecord:
    return CheckRecord(
        name=name,
        params=params,
        residual=float(residual),
        tolerance=float(tolerance),
        status="pass" if residual < tolerance else "fail",
        data=data,
    )


def _skip(name: str, params: dict, tolerance: float | None, exc: BaseException, reason: str | None = None) -> CheckRecord:
    return CheckRecord(
        name=name,
        params=params,
        residual=None,
        tolerance=tolerance,
        status="skip",
        reason=reason or _reason_token(exc),
        data={"detail": str(exc)},
    )


def _relation_records(prefix: str, params: dict, report, tolerance: float) -> list[CheckRecord]:
    """One record per identity of an algebra ``RelationReport``."""
    return [_record(f"{prefix}.{c.name}", params, c.residual, tolerance) for c in report.checks]


class timed:
    """Context manager that adds the seconds spent in its block to ``timings[stage]``.

    ``with timed(timings, stage) as entry`` gives the block the stage's
    entry, so that it can add its counts to it.
    """

    def __init__(self, timings: dict, stage: str):
        self.entry = timings.setdefault(stage, {"seconds": 0.0})

    def __enter__(self) -> dict:
        self.start = time.perf_counter()
        return self.entry

    def __exit__(self, *exc_info) -> None:
        self.entry["seconds"] += time.perf_counter() - self.start


def _map_points(cfg: RunConfig, fn, points) -> list[CheckRecord]:
    """Concatenate ``fn(cfg, *point)`` over the points in order; threads when jobs > 1."""
    if cfg.jobs <= 1:
        return [rec for pt in points for rec in fn(cfg, *pt)]
    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        return [rec for chunk in pool.map(lambda pt: fn(cfg, *pt), points) for rec in chunk]


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _phase_pairs(cfg: RunConfig) -> list[tuple[float, float]]:
    rng = np.random.default_rng([cfg.seed, 0])
    return [tuple(float(x) for x in row) for row in rng.uniform(-math.pi, math.pi, size=(cfg.phase_pairs, 2))]


def _bwm_point(cfg: RunConfig, q: float, p1: float, p2: float) -> list[CheckRecord]:
    base = {"q": float(q), "phi1": float(p1), "phi2": float(p2)}
    try:
        p = AlgebraParams.coupled(q, p1, p2)
        rep = check_bwm_suite(p)
    except BwmBerryError as exc:
        return [_skip("bwm.suite", base, cfg.tolerance, exc)]
    u = make_u(p)
    ui = inverse(u)
    transports = rel_residual(
        np.stack([make_b(p), make_eb(p), dagger(u) @ u]),
        np.stack([u @ make_a(p) @ ui, u @ make_ea(p) @ ui, np.eye(3, dtype=complex)]),
    )
    names = ("bwm.transport_b", "bwm.transport_eb", "bwm.unitary_u")
    return _relation_records("bwm", base, rep, cfg.tolerance) + [
        _record(name, base, resid, EXACT_TOL) for name, resid in zip(names, transports.tolist())
    ]


def _tla_point(cfg: RunConfig, d: float, p1: float, p2: float) -> list[CheckRecord]:
    base = {"d": float(d), "phi1": float(p1), "phi2": float(p2)}
    try:
        p = AlgebraParams.tla(d, p1, p2)
        rep = check_tla(make_ea(p), make_eb(p), d)
    except BwmBerryError as exc:
        return [_skip("tla.suite", base, EXACT_TOL, exc)]
    return _relation_records("tla", base, rep, EXACT_TOL)


def _ybe_corner_samples() -> list[SpectralParams]:
    return [
        SpectralParams(u=0.0, v=0.37, beta=0.3, epsilon=1, d=1.7, phi1=0.4, phi2=-1.1),
        SpectralParams(u=0.41, v=-0.41, beta=1.0, epsilon=-1, d=1.9, phi1=-2.0, phi2=0.7),
        SpectralParams(u=0.25, v=0.6, beta=0.0, epsilon=1, d=1.7, phi1=1.2, phi2=2.5),
    ]


def _ybe_seeded_samples(cfg: RunConfig) -> list[SpectralParams]:
    rng = np.random.default_rng([cfg.seed, 1])
    betas = cfg.grid("ybe_beta")
    ds = cfg.grid("ybe_d")
    samples = []
    if not betas or not ds:
        return samples
    for _ in range(cfg.ybe_samples):
        u, v = rng.uniform(-0.9, 0.9, size=2)
        beta = float(betas[rng.integers(len(betas))])
        eps = int(rng.integers(2)) * 2 - 1
        d = float(ds[rng.integers(len(ds))])
        p1, p2 = rng.uniform(-math.pi, math.pi, size=2)
        samples.append(
            SpectralParams(u=float(u), v=float(v), beta=beta, epsilon=eps, d=d, phi1=float(p1), phi2=float(p2))
        )
    return samples


#: Exchange samples per ``_ybe_point`` call.  One stacked evaluation per
#: chunk removes the per-sample call overhead, and a bounded chunk keeps the
#: stacks small, so peak memory does not grow with ``--ybe-samples``.
YBE_CHUNK = 256


def _ybe_point(cfg: RunConfig, *samples: SpectralParams) -> list[CheckRecord]:
    """The records of a chunk of exchange samples, from one stacked evaluation.

    ``bench/spans.py`` traces the ``_<family>_point`` functions by name, so
    this one keeps its name although it takes a chunk.
    """
    out = []
    for s, result in zip(samples, exchange_residuals(samples)):
        base = dict(vars(s))
        if isinstance(result, BwmBerryError):
            out.append(_skip("ybe.exchange", base, cfg.tolerance, result))
            continue
        resid, zs = result
        out.append(_record("ybe.exchange", base, resid, cfg.tolerance))
        out.append(_record("ybe.unimodularity", base, max(abs(abs(z) - 1.0) for z in zs), UNIT_CIRCLE_TOL))
    return out


def cmd_verify(cfg: RunConfig) -> list[CheckRecord]:
    """BWM records, then TLA records, then exchange records; ``meta.timings`` gets each family's time."""
    pairs = _phase_pairs(cfg)
    records = []
    with timed(cfg.timings, "verify.bwm") as entry:
        points = [(q, p1, p2) for q in cfg.grid("q") for (p1, p2) in pairs]
        records += _map_points(cfg, _bwm_point, points)
        entry["points"] = len(points)
    with timed(cfg.timings, "verify.tla") as entry:
        points = [(d, p1, p2) for d in cfg.grid("tla_d") for (p1, p2) in pairs]
        records += _map_points(cfg, _tla_point, points)
        entry["points"] = len(points)
    with timed(cfg.timings, "verify.ybe") as entry:
        samples = _ybe_corner_samples() + _ybe_seeded_samples(cfg) if cfg.ybe_samples > 0 else []
        chunks = [samples[i : i + YBE_CHUNK] for i in range(0, len(samples), YBE_CHUNK)]
        records += _map_points(cfg, _ybe_point, chunks)
        entry["points"] = len(samples)
    return records


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

def _levels_record(name: str, params: dict, observed, predicted, tolerance: float) -> CheckRecord:
    """Compare observed eigenvalues with the predicted levels.

    The residual is the largest deviation over max(1, largest |level|), like ``rel_residual``.
    """
    observed, predicted = observed.tolist(), [float(x) for x in predicted]
    dev = max(abs(o - p) for o, p in zip(observed, predicted)) / max(1.0, max(abs(p) for p in predicted))
    return _record(name, params, dev, tolerance, observed=observed, predicted=predicted)


#: Spectrum of the quadratic Casimir of the ladder triple.
CASIMIR_LEVELS = (0.0, 0.75, 0.75)


def _spectrum_params(theta, d, *drive) -> dict:
    """Report params of a spectrum point: theta and d, plus omega and phi for an H point."""
    return {k: float(v) for k, v in zip(("theta", "d", "omega_drive", "phi"), (theta, d, *drive))}


def _casimir(theta: float, d: float) -> np.ndarray:
    trip = ladder_ops(theta, d)
    return 0.5 * (trip.s_plus @ trip.s_minus + trip.s_minus @ trip.s_plus) + trip.s3 @ trip.s3


def _h_levels(dp: DriveParams) -> np.ndarray:
    """The predicted spectrum {0, +-hbar omega cos(alpha)} of H, ascending."""
    level = dp.hbar * dp.omega_drive * cos_alpha(dp.theta, dp.d)
    return np.sort([0.0, level, -level])


def _eigvals_or_error(m: np.ndarray):
    """The eigenvalues of one matrix, or the error its solve raised."""
    try:
        return hermitian_eigs(m).values
    except BwmBerryError as exc:
        return exc


def _levels_row(cfg: RunConfig, name: str, points: list) -> list[CheckRecord]:
    """The records of one row of points, from one batched eigensolve.

    ``points`` holds ``(args, matrix, predicted)`` in report order, with the
    error in place of the matrix where building it failed.  If the batched
    solve raises, each matrix is solved on its own, so a failing matrix
    skips only its own point.
    """
    matrices = [m for _, m, _ in points if not isinstance(m, BwmBerryError)]
    try:
        solved = iter(hermitian_eigs(np.stack(matrices)).values if matrices else ())
    except BwmBerryError:
        solved = iter([_eigvals_or_error(m) for m in matrices])
    records = []
    for args, m, predicted in points:
        observed = m if isinstance(m, BwmBerryError) else next(solved)
        if isinstance(observed, BwmBerryError):
            records.append(_skip(name, _spectrum_params(*args), cfg.tolerance, observed))
        else:
            records.append(_levels_record(name, _spectrum_params(*args), observed, predicted, cfg.tolerance))
    return records


def _casimir_row(cfg: RunConfig, d: float) -> list[CheckRecord]:
    points = []
    for theta in cfg.grid("theta"):
        try:
            points.append(((theta, d), _casimir(theta, d), CASIMIR_LEVELS))
        except BwmBerryError as exc:
            points.append(((theta, d), exc, None))
    return _levels_row(cfg, "spectrum.casimir", points)


def _spectrum_row(cfg: RunConfig, d: float) -> list[CheckRecord]:
    """All H points of one d row: one ``hamiltonian_stack`` over phi per (theta, omega)."""
    phis = cfg.grid("phi")
    points = []
    for theta in cfg.grid("theta"):
        for omega in cfg.grid("omega"):
            args = [(theta, d, omega, phi) for phi in phis]
            try:
                dp = DriveParams(theta=theta, d=d, omega_drive=omega)
                hs, predicted = hamiltonian_stack(phis, dp), _h_levels(dp)
            except BwmBerryError as exc:
                points += [(a, exc, None) for a in args]
                continue
            points += [(a, h, predicted) for a, h in zip(args, hs)]
    return _levels_row(cfg, "spectrum.h_eigenvalues", points)


def cmd_spectrum(cfg: RunConfig) -> list[CheckRecord]:
    """Casimir records, then H records, both ordered by (d, theta, ...), solved one d row at a time."""
    rows = [(d,) for d in cfg.grid("d")]
    return _map_points(cfg, _casimir_row, rows) + _map_points(cfg, _spectrum_row, rows)


# --------------------------------------------------------------------------
# berry
# --------------------------------------------------------------------------

def _berry_point(cfg: RunConfig, theta: float, d: float) -> list[CheckRecord]:
    base = {"theta": float(theta), "d": float(d)}
    try:
        closed_sin = berry_closed(theta, d, "sin_form")
        closed_cos = berry_closed(theta, d, "cos_form")
    except BwmBerryError as exc:
        return [_skip("berry.closed", base, None, exc)]
    swapped = berry_closed(math.pi / 2.0 - theta, d, "sin_form")
    out = [
        _record(
            "berry.form_consistency",
            base,
            abs(closed_cos.gamma_plus - swapped.gamma_plus),
            EXACT_TOL,
            gamma_plus_sin=closed_sin.gamma_plus,
            gamma_plus_cos=closed_cos.gamma_plus,
        )
    ]
    if d < GOLDEN_RATIO - DOMAIN_SLACK:
        reason_exc = InvalidParam("the Hamiltonian route needs d at or above the golden ratio")
        out.append(_skip("berry.match_plus", base, cfg.phase_tolerance, reason_exc, reason="closed_form_only"))
        return out
    try:
        loop = berry_wilson_loop(theta, d, steps=cfg.steps)
        gamma_discrete = berry_discrete(theta, d, steps=cfg.steps)
    except BwmBerryError as exc:
        out.append(_skip("berry.match_plus", base, cfg.phase_tolerance, exc))
        return out
    for branch in ("plus", "minus"):
        wilson = getattr(loop, f"gamma_{branch}")
        closed = getattr(closed_sin, f"gamma_{branch}")
        out.append(
            _record(
                f"berry.match_{branch}",
                base,
                abs(_wrap_phase(wilson - closed)),
                cfg.phase_tolerance,
                wilson=wilson,
                wilson_lifted=getattr(loop, f"gamma_{branch}_lifted"),
                closed=closed,
                pairing=loop.pairing,
            )
        )
    out.append(_record("berry.zero_branch", base, abs(loop.gamma_zero), EXACT_TOL, wilson=loop.gamma_zero))
    gap = max(abs(_wrap_phase(loop.gamma_plus - gamma_discrete)), abs(_wrap_phase(loop.gamma_minus + gamma_discrete)))
    out.append(
        _record("berry.exact_discrete", base, gap, EXACT_TOL, steps=cfg.steps, gamma_discrete=gamma_discrete)
    )
    return out


def cmd_berry(cfg: RunConfig) -> list[CheckRecord]:
    return _map_points(cfg, _berry_point, [(t, d) for d in cfg.grid("berry_d") for t in cfg.grid("berry_theta")])


# --------------------------------------------------------------------------
# figure
# --------------------------------------------------------------------------

def _write_csv(path: Path, thetas, ds, gamma) -> int:
    """Write rows (theta, d, gamma[j, i]) sorted by (d, theta), one d row per write.

    Each axis value is formatted once; only gamma is formatted per row.
    """
    theta_cells = [format(th, ".17g") for th in thetas]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("theta,d,gamma_plus\n")
        for dv, row in zip(ds, gamma):
            d_cell = format(dv, ".17g")
            fh.write("".join([f"{t},{d_cell},{g:.17g}\n" for t, g in zip(theta_cells, row.tolist())]))
    return len(thetas) * len(ds)


def cmd_figure(cfg: RunConfig) -> list[CheckRecord]:
    thetas = np.linspace(0.0, 2.0 * math.pi, cfg.figure_theta_points)
    records = []
    for kind, d_values in (("sections", cfg.grid("figure_d")), ("surface", np.linspace(*cfg.figure_d_mesh))):
        fname = f"figure_{kind}.csv"
        table = figure_table(thetas, d_values)
        with timed(cfg.timings, "write_csv") as entry:
            n = _write_csv(cfg.out_dir / fname, *table)
            entry["rows"] = entry.get("rows", 0) + n
        records.append(CheckRecord(f"figure.{kind}_csv", {}, None, None, "pass", data={"file": fname, "rows": n}))
    return records


# --------------------------------------------------------------------------
# configuration and entry point
# --------------------------------------------------------------------------

def _grid_values(name: str, values) -> tuple[float, ...]:
    """Validate one grid given as a number list, a comma list or a 'start:stop:count' range."""
    if name not in DEFAULT_GRIDS:
        raise ConfigError(f"unknown grid {name!r}; allowed: {list(GRID_NAMES)}")
    if isinstance(values, str):
        text = values.strip()
        try:
            if ":" in text:
                start, stop, count = _parse_range(text)
                if count < 1:
                    raise ValueError(f"range count must be >= 1, got {count}")
                values = [float(x) for x in np.linspace(start, stop, count)]
            else:
                values = [float(tok) for tok in text.split(",")] if text else []
        except ValueError as exc:
            raise ConfigError(f"could not parse grid {name!r} from {text!r}: {exc}") from exc
    lowest = 1.0 if name == "figure_d" else -math.inf
    if not isinstance(values, list) or not all(_real(x) and x >= lowest for x in values):
        rule = "finite numbers >= 1" if name == "figure_d" else "finite numbers"
        raise ConfigError(f"grid {name!r} must be a list of {rule}, got {values!r}")
    return tuple(float(x) for x in values)


def _load_config_file(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}; allowed: {sorted(_CONFIG_KEYS)}")
    return raw


def build_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(args.config) if args.config else {}

    knobs = {}
    for f in KNOBS:
        check, text = f.metadata["check"], getattr(args, f.name, None)
        if f.name in file_cfg:
            knobs[f.name] = check(f.name, file_cfg[f.name])
        if text is not None:
            try:
                value = f.metadata["parse"](text)
            except ValueError as exc:
                raise ConfigError(f"cannot parse {f.metadata['flag']} {text!r}: {exc}") from exc
            knobs[f.name] = check(f.name, value)

    file_grids = file_cfg.get("grids", {})
    if not isinstance(file_grids, dict):
        raise ConfigError("'grids' must be an object mapping grid names to value lists")
    grids = {name: _grid_values(name, values) for name, values in file_grids.items()}
    for spec in args.grid_spec:
        name, sep, values = spec.partition("=")
        if not sep:
            raise ConfigError(f"--grid-spec needs NAME=VALUES, got {spec!r}")
        grids[name.strip()] = _grid_values(name.strip(), values)

    out = file_cfg.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")
    if args.out is not None:
        out = args.out
    elif out is None:
        out = os.environ.get("BWMBERRY_OUT", ".")
    return RunConfig(command=args.command, out_dir=Path(out), grids=grids, **knobs)


_COMMANDS = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "berry": cmd_berry,
    "figure": cmd_figure,
}


def _show(default) -> str:
    if isinstance(default, tuple):
        return ":".join(_show(x) for x in default)
    return f"{default:g}" if isinstance(default, float) else str(default)


def _add_knob_flags(parser: argparse.ArgumentParser, figure: bool) -> None:
    for f in KNOBS:
        m = f.metadata
        if m["figure"] == figure:
            parser.add_argument(
                m["flag"], dest=f.name, metavar=m["metavar"], help=f"{m['help']} (default {_show(f.default)})"
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwmberry",
        description="Verification suites and loop-phase computations for the rank-3 braid representation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON config file; flags take precedence over it")
    _add_knob_flags(common, figure=False)
    common.add_argument("--out", type=Path, help="output directory (default $BWMBERRY_OUT or '.')")
    common.add_argument(
        "--grid-spec",
        action="append",
        default=[],
        metavar="NAME=VALUES",
        help="override a grid: comma list '0.5,0.9' or range 'start:stop:count'; "
        f"names: {', '.join(GRID_NAMES)}",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[common], help="algebra relation suites and exchange sweeps")
    sub.add_parser("spectrum", parents=[common], help="driven-Hamiltonian and Casimir spectra")
    sub.add_parser("berry", parents=[common], help="Wilson-loop phases against closed forms")
    fig = sub.add_parser("figure", parents=[common], help="CSV tables of the closed-form phase")
    _add_knob_flags(fig, figure=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    timings = {}
    try:
        with timed(timings, "build_config"):
            cfg = build_config(args)
        cfg.timings = timings
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        with timed(timings, "evaluate") as entry:
            records = _COMMANDS[cfg.command](cfg)
            entry["records"] = len(records)
    except BwmBerryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2

    warnings = [] if records else ["no checks were executed (empty grids?)"]
    residuals = [c.residual for c in records if c.residual is not None]
    summary = {
        "checks": len(records),
        "passed": sum(c.status == "pass" for c in records),
        "failed": sum(c.status == "fail" for c in records),
        "skipped": sum(c.status == "skip" for c in records),
        "worst_residual": max(residuals) if residuals else None,
    }
    summary["overall_pass"] = summary["failed"] == 0
    report = {
        "schema": 1,
        "command": cfg.command,
        "config": cfg.echo(),
        "summary": summary,
        "warnings": warnings,
        "checks": [vars(c) for c in records],
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "out_dir": str(cfg.out_dir),
            "jobs": cfg.jobs,
            "timings": timings,
        },
    }
    report_path = cfg.out_dir / f"{cfg.command}_report.json"
    try:
        with open(report_path, "w", encoding="utf-8", newline="") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2

    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    worst = "n/a" if summary["worst_residual"] is None else f"{summary['worst_residual']:.3e}"
    print(
        f"[bwmberry {cfg.command}] {summary['passed']}/{summary['checks']} checks passed, "
        f"{summary['failed']} failed, {summary['skipped']} skipped; worst residual {worst}; wrote {report_path}"
    )
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
