"""Command-line interface: verification suites, spectra, loop phases, figure data.

Four subcommands, all batch-style (run, write artifacts, exit):

* ``verify``   - algebra relation suites and exchange-identity sweeps;
* ``spectrum`` - driven-Hamiltonian eigenvalues against the closed form,
  plus the Casimir spectrum of the ladder triple;
* ``berry``    - Wilson-loop phases against the closed forms;
* ``figure``   - CSV tables of the closed-form phase surface and sections.

Every command writes a schema-versioned JSON report whose check records carry
(name, params, residual, tolerance, status, reason), one record per line of
the otherwise ``indent=2`` text (see ``_write_report``). Exit codes: 0 all
executed checks passed, 1 at least one check failed, 2 the configuration or an
output path was unusable, the run did not fit in memory, or a package error
escaped every per-point guard. Grid points that violate a domain guard become
per-point ``skip`` records with a machine-readable reason token instead of
aborting the run. With a fixed seed the reports and CSVs are byte-identical
across runs (timestamps live in a separate ``meta`` object).
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

from .algebra import DOMAIN_SLACK, GOLDEN_RATIO, TRANSPORT_LINES, AlgebraParams, _bwm_row, _tla_row
from .berry import MIN_STEPS, SECTION_D_VALUES, _wrap_phase, berry_closed, berry_discrete, berry_wilson_loop, figure_table
from .errors import BwmBerryError, ConfigError, InvalidParam
from .matrices import hermitian_eigs
from .spin import _hamiltonian_row, _ladder_stack, cos_alpha
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

#: Largest accepted counts; ``MAX_AXIS_POINTS`` bounds ``--theta-points``, the
#: ``--d-mesh`` count and a grid range's count.  Each keeps one run's memory
#: bounded: a Berry loop holds about 1 kB per step, and every pair, sample or
#: axis point becomes records or CSV rows held at once.
MAX_STEPS = 2**17
MAX_PHASE_PAIRS = 10_000
MAX_YBE_SAMPLES = 100_000
MAX_AXIS_POINTS = 10_000
MAX_JOBS = 64

#: Phase pairs or exchange samples per stacked evaluation.  One evaluation
#: per chunk removes the per-point call overhead, and a bounded chunk keeps
#: the (n, 3, 3) stacks small, so peak memory does not grow with
#: ``--phase-pairs`` or ``--ybe-samples``.
CHUNK = 256


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


def _count(minimum: int, maximum: float = math.inf):
    def check(name: str, value) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or not minimum <= value <= maximum:
            raise ConfigError(f"{name} must be an integer from {minimum} to {maximum}, got {value!r}")
        return value

    return check


def _d_mesh(name: str, value) -> tuple[float, float, int]:
    if not (isinstance(value, (list, tuple)) and len(value) == 3 and _real(value[0]) and _real(value[1])):
        raise ConfigError(f"{name} must be [min, max, count] with finite min and max, got {value!r}")
    if not 1 <= value[0] <= value[1]:
        raise ConfigError(f"{name} needs 1 <= min <= max, got {value!r}")
    return (float(value[0]), float(value[1]), _count(2, MAX_AXIS_POINTS)(f"{name} count", value[2]))


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
    steps: int = _knob(4096, _count(MIN_STEPS, MAX_STEPS), "--steps", "loop discretisation points")
    seed: int = _knob(20260815, _count(0), "--seed", "seed for sampled phases and velocities")
    jobs: int = _knob(1, _count(1, MAX_JOBS), "--jobs", "worker threads for grid evaluation", echo=False)
    phase_pairs: int = _knob(5, _count(0, MAX_PHASE_PAIRS), "--phase-pairs", "number of sampled (phi1, phi2) pairs")
    ybe_samples: int = _knob(200, _count(0, MAX_YBE_SAMPLES), "--ybe-samples", "number of sampled exchange tuples")
    figure_theta_points: int = _knob(
        401, _count(2, MAX_AXIS_POINTS), "--theta-points", "theta samples over [0, 2pi]", figure=True
    )
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
# report writing: indent=2 with sorted keys, one check record per line
# --------------------------------------------------------------------------

#: The C encoder with sorted keys and no indent: the text of one check record.
_RECORD_LINE = json.JSONEncoder(sort_keys=True)


def _dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` as laid out for a top-level member."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


def _write_report(fh, report: dict, timings: dict) -> None:
    """Write ``report`` in the layout of ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``,
    except that each element of ``checks`` is one line, ``_RECORD_LINE.encode(record)``.
    The seconds and characters written before ``meta`` go to ``timings["report_write"]``
    first, so a ``meta`` that holds ``timings`` reports them.
    """
    start, size = time.perf_counter(), 0
    for i, key in enumerate(sorted(report)):
        if key == "meta":
            timings["report_write"] = {"seconds": time.perf_counter() - start, "bytes": size}
        value = report[key]
        size += fh.write(("{\n  " if i == 0 else ",\n  ") + json.dumps(key) + ": ")
        if key == "checks" and value:
            for n, rec in enumerate(value):
                size += fh.write(("[\n    " if n == 0 else ",\n    ") + _RECORD_LINE.encode(rec))
            size += fh.write("\n  ]")
        else:
            size += fh.write(_dumps(value))
    fh.write("\n}\n" if report else "{}\n")


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _phase_pairs(cfg: RunConfig) -> list[tuple[float, float]]:
    rng = np.random.default_rng([cfg.seed, 0])
    return [tuple(float(x) for x in row) for row in rng.uniform(-math.pi, math.pi, size=(cfg.phase_pairs, 2))]


def _relation_records(family: str, params: list, tolerance: float, evaluate, exact=()) -> list[CheckRecord]:
    """The records of one chunk of a relation family, from one stacked evaluation.

    ``evaluate()`` returns the line names and, per point of ``params``, the
    residuals of the lines or the error of that point alone, which makes the
    point one ``<family>.suite`` skip; if it raises, every point skips with
    that error.  Lines named in ``exact`` are graded at EXACT_TOL, the
    others at ``tolerance``.
    """
    try:
        names, results = evaluate()
    except BwmBerryError as exc:
        names, results = (), [exc] * len(params)
    tolerances = [EXACT_TOL if name in exact else tolerance for name in names]
    out = []
    for p, result in zip(params, results):
        if isinstance(result, BwmBerryError):
            out.append(_skip(f"{family}.suite", p, tolerance, result))
        else:
            out += [_record(f"{family}.{n}", p, r, t) for n, r, t in zip(names, result, tolerances)]
    return out


def _bwm_point(cfg: RunConfig, q: float, *pairs: tuple[float, float]) -> list[CheckRecord]:
    """The records of a chunk of phase pairs at one q: the suite, then the transport lines, pair by pair.

    ``bench/spans.py`` traces the ``_<family>_point`` functions by name, so
    this one, ``_tla_point`` and ``_ybe_point`` keep their names although
    they take a chunk.
    """
    params = [{"q": float(q), "phi1": p1, "phi2": p2} for p1, p2 in pairs]
    evaluate = lambda: _bwm_row(AlgebraParams.coupled(q), *zip(*pairs))
    return _relation_records("bwm", params, cfg.tolerance, evaluate, TRANSPORT_LINES)


def _tla_point(cfg: RunConfig, d: float, *pairs: tuple[float, float]) -> list[CheckRecord]:
    """The records of a chunk of phase pairs at one loop value d."""
    params = [{"d": float(d), "phi1": p1, "phi2": p2} for p1, p2 in pairs]
    return _relation_records("tla", params, EXACT_TOL, lambda: _tla_row(AlgebraParams.tla(d), *zip(*pairs)))


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


def _ybe_point(cfg: RunConfig, *samples: SpectralParams) -> list[CheckRecord]:
    """The records of a chunk of exchange samples, from one stacked evaluation."""
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


def _family(cfg: RunConfig, stage: str, fn, chunks: list, points: int) -> list[CheckRecord]:
    """``_map_points(cfg, fn, chunks)``; ``meta.timings[stage]`` gets its seconds, the ``points`` it
    evaluated, its ``rows`` (stacked evaluations, one per chunk) and its ``skipped`` points."""
    with timed(cfg.timings, stage) as entry:
        records = _map_points(cfg, fn, chunks)
        entry.update(points=points, rows=len(chunks), skipped=sum(r.status == "skip" for r in records))
    return records


def cmd_verify(cfg: RunConfig) -> list[CheckRecord]:
    """BWM records, then TLA records, then exchange records; ``meta.timings`` gets each family's time.

    Each row (one q or one tla_d) is evaluated CHUNK phase pairs at a time.
    """
    pairs = _phase_pairs(cfg)
    chunks = [pairs[i : i + CHUNK] for i in range(0, len(pairs), CHUNK)]
    qs, ds = cfg.grid("q"), cfg.grid("tla_d")
    records = _family(cfg, "verify.bwm", _bwm_point, [(q, *c) for q in qs for c in chunks], len(qs) * len(pairs))
    records += _family(cfg, "verify.tla", _tla_point, [(d, *c) for d in ds for c in chunks], len(ds) * len(pairs))
    with timed(cfg.timings, "verify.ybe"):
        samples = _ybe_corner_samples() + _ybe_seeded_samples(cfg) if cfg.ybe_samples > 0 else []
    chunks = [samples[i : i + CHUNK] for i in range(0, len(samples), CHUNK)]
    return records + _family(cfg, "verify.ybe", _ybe_point, chunks, len(samples))


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

#: Spectrum of the quadratic Casimir of the ladder triple.
CASIMIR_LEVELS = (0.0, 0.75, 0.75)


def _eigvals_or_error(m: np.ndarray):
    """The eigenvalues of one matrix, or the error its solve raised."""
    try:
        return hermitian_eigs(m).values
    except BwmBerryError as exc:
        return exc


def _levels_row(cfg: RunConfig, name: str, params: list, build) -> list[CheckRecord]:
    """The records of one row of points, from one stacked build and one batched eigensolve.

    ``build()`` returns the row's matrices as an (n, 3, 3) stack and their
    predicted levels as an (n, 3) array, in the order of ``params``; if it
    raises, every point of the row skips with its error.  If the batched
    solve raises, each matrix is solved on its own, so a failing matrix
    skips only its own point.  The residual is the largest deviation over
    max(1, largest |level|), like ``rel_residual``.
    """
    try:
        matrices, predicted = build()
    except BwmBerryError as exc:
        return [_skip(name, p, cfg.tolerance, exc) for p in params]
    errors = {}
    try:
        observed = hermitian_eigs(matrices).values
    except BwmBerryError:
        solved = [_eigvals_or_error(m) for m in matrices]
        errors = {i: v for i, v in enumerate(solved) if isinstance(v, BwmBerryError)}
        observed = np.array([np.zeros(3) if i in errors else v for i, v in enumerate(solved)])
    with np.errstate(over="ignore"):  # as the float arithmetic of one point at a time: inf, no warning
        dev = np.max(np.abs(observed - predicted), axis=-1) / np.maximum(1.0, np.max(np.abs(predicted), axis=-1))
    rows = zip(params, dev.tolist(), observed.tolist(), predicted.tolist())
    return [
        _skip(name, p, cfg.tolerance, errors[i])
        if i in errors
        else _record(name, p, res, cfg.tolerance, observed=obs, predicted=pred)
        for i, (p, res, obs, pred) in enumerate(rows)
    ]


def _casimir_row(cfg: RunConfig, d: float) -> list[CheckRecord]:
    """All Casimir points of one d row, from one ``_ladder_stack`` over theta."""
    thetas = cfg.grid("theta")

    def build():
        casimir = _ladder_stack(thetas, d).casimir()
        return casimir, np.broadcast_to(CASIMIR_LEVELS, (len(thetas), 3))

    return _levels_row(cfg, "spectrum.casimir", [{"theta": t, "d": d} for t in thetas], build)


def _spectrum_row(cfg: RunConfig, d: float) -> list[CheckRecord]:
    """All H points of one d row, ordered by (theta, omega, phi), from one ``_hamiltonian_row``."""
    thetas, omegas, phis = cfg.grid("theta"), cfg.grid("omega"), cfg.grid("phi")
    params = [
        {"theta": t, "d": d, "omega_drive": w, "phi": f} for t in thetas for w in omegas for f in phis
    ]

    def build():
        hs = _hamiltonian_row(thetas, omegas, phis, d)
        # Per (theta, omega): the level hbar omega cos(alpha) with hbar = 1, and {0, +-level} ascending.
        level = np.multiply.outer([cos_alpha(t, d) for t in thetas], omegas)
        levels = np.sort(np.stack([np.zeros_like(level), level, -level], axis=-1), axis=-1)
        predicted = np.broadcast_to(levels[:, :, None, :], hs.shape[:3] + (3,))
        return hs.reshape(-1, 3, 3), predicted.reshape(-1, 3)

    return _levels_row(cfg, "spectrum.h_eigenvalues", params, build)


def cmd_spectrum(cfg: RunConfig) -> list[CheckRecord]:
    """Casimir records, then H records, both ordered by (d, theta, ...), built and solved one d row at a time.

    ``meta.timings`` gets the time and point count of each family.
    """
    rows = [(d,) for d in cfg.grid("d")]
    casimir_points = len(rows) * len(cfg.grid("theta"))
    with timed(cfg.timings, "spectrum.casimir") as entry:
        records = _map_points(cfg, _casimir_row, rows)
        entry["points"] = casimir_points
    with timed(cfg.timings, "spectrum.h") as entry:
        records += _map_points(cfg, _spectrum_row, rows)
        entry["points"] = casimir_points * len(cfg.grid("omega")) * len(cfg.grid("phi"))
    return records


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
                if not 1 <= count <= MAX_AXIS_POINTS:
                    raise ValueError(f"range count must be from 1 to {MAX_AXIS_POINTS}, got {count}")
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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
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
    except MemoryError as exc:
        print(f"error: the run does not fit in memory: {exc}", file=sys.stderr)
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
            _write_report(fh, report, timings)
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
