"""Command-line interface: verification suites, spectra, loop phases, figure data.

Four subcommands, all batch-style (run, write artifacts, exit):

* ``verify``   - algebra relation suites and exchange-identity sweeps;
* ``spectrum`` - driven-Hamiltonian eigenvalues against the closed form,
  plus the Casimir spectrum of the ladder triple;
* ``berry``    - Wilson-loop phases against the closed forms;
* ``figure``   - CSV tables of the closed-form phase surface and sections.

Every command writes a schema-versioned JSON report whose check records carry
(name, params, residual, tolerance, status, reason, data), one record per line of
the otherwise ``indent=2`` text; the ``report`` module builds every record and
writes that text, row by row as the command yields its records, so no command holds all
of them. Exit codes: 0 all executed checks passed, 1 at least one check
failed, 2 the configuration or an output path was unusable, the run did not fit
in memory, or a package error escaped every per-point guard. Grid points that
violate a domain guard become per-point ``skip`` records with a machine-readable
reason token instead of aborting the run. With a fixed seed the reports and CSVs
are byte-identical across runs and job counts (timestamps live in a separate
``meta`` object); ``--jobs N`` evaluates grid rows on N forked processes where
``os.fork`` exists.  The report and the CSVs are written under temporary names and
moved onto their own names once complete, so a failed run leaves no partial file.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .algebra import DOMAIN_SLACK, EXACT_TOL, GOLDEN_RATIO, RELATION_TOL, TRANSPORT_LINES, AlgebraParams, _bwm_row, _square_tolerance, _tla_row
from .berry import LOOP_BIAS_K, MIN_STEPS, SECTION_D_VALUES, _wrap_phase, berry_closed, berry_discrete, berry_wilson_loop, figure_table
from .errors import BwmBerryError, ConfigError, InvalidParam
from .matrices import _eigh
from .report import _checks, _csv_record, _graded, _grid_params, _levels_records, _record, _row_params, _skip, _text, _write_report
from .spin import _drive_factors, _hamiltonian_row, _ladder_stack, cos_alpha
from .yangbaxter import UNIT_CIRCLE_TOL, SpectralParams, _exchange_columns

#: c in the tolerance max(EXACT_TOL, c u |pi/2 - theta|) of ``berry.form_consistency``, u = 2^-53.
#: The line compares the cos form at theta with the sin form at x = fl(pi/2 - theta), and
#: forming x rounds it by up to u |pi/2 - theta|.  The sin form's gamma_+ = pi (1 - 2 sin(x)
#: sqrt(d^2 - 1) / d^2) has |d gamma_+ / dx| <= pi 2 sqrt(d^2 - 1) / d^2 <= pi for d >= 1, so
#: that rounding moves gamma_+ by up to pi u |pi/2 - theta|.  c is twice pi: the other half
#: covers the closed forms' own rounding (about 1e-15) wherever the term exceeds EXACT_TOL,
#: which it does from |theta| ~ 1.4e3 on.  Below that the line keeps EXACT_TOL.
FORM_ARGUMENT_C = 2.0 * math.pi

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

#: (rule, test) of the grids narrower than the finite numbers: closed forms need d >= 1, and
#: an exchange sample's real angles 0 < d < 2 (``SpectralParams``), so no value fails mid-run.
_GRID_RULES = {
    "figure_d": ("finite numbers >= 1", lambda x: x >= 1.0),
    "ybe_d": ("finite numbers in (0, 2)", lambda x: 0.0 < x < 2.0),
}

#: Largest accepted counts; ``MAX_AXIS_POINTS`` bounds ``--theta-points``, the
#: ``--d-mesh`` count and a grid range's count.  Each keeps one run's memory
#: bounded: a Berry loop holds about 1 kB per step, and a figure table holds
#: every value at once.
MAX_STEPS = 2**17
MAX_PHASE_PAIRS = 10_000
MAX_YBE_SAMPLES = 100_000
MAX_AXIS_POINTS = 10_000
MAX_JOBS = 64

#: Phase pairs or exchange samples per stacked evaluation.  One evaluation
#: per chunk removes the per-point call overhead, and a bounded chunk keeps
#: the (n, 3, 3) stacks and one chunk's records small, so at ``--jobs 1`` peak
#: memory does not grow with ``--phase-pairs`` or ``--ybe-samples``.
CHUNK = 256


# --------------------------------------------------------------------------
# knob validators: each takes (name, value) and returns the normalised value
# --------------------------------------------------------------------------

def _real(value) -> bool:
    """A finite number; JSON booleans are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


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
    steps: int = _knob(4096, _count(MIN_STEPS, MAX_STEPS), "--steps", "loop discretisation points")
    seed: int = _knob(20260815, _count(0), "--seed", "seed for sampled phases and velocities")
    jobs: int = _knob(1, _count(1, MAX_JOBS), "--jobs", "worker processes for grid evaluation", echo=False)
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
    #: What the run left out of its input, for the report's ``warnings``.
    warnings: list[str] = field(default_factory=list)

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


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _phase_pairs(cfg: RunConfig) -> np.ndarray:
    """The seeded phase pairs as the rows (phi1, phi2) of a float (n, 2) array."""
    return np.random.default_rng([cfg.seed, 0]).uniform(-math.pi, math.pi, size=(cfg.phase_pairs, 2))


def _chunks(rows: np.ndarray) -> list[np.ndarray]:
    """The rows of an array, CHUNK at a time."""
    return [rows[i : i + CHUNK] for i in range(0, len(rows), CHUNK)]


#: The tolerances of the BWM transport lines, which are not graded at the family's tolerance.
_TRANSPORT_TOLERANCES = dict.fromkeys(TRANSPORT_LINES, EXACT_TOL)


def _relation_records(family: str, params: list[str], tolerance: float, evaluate, skip: str = "suite") -> list[tuple]:
    """The records of one chunk of a relation family, from one stacked evaluation, point i with the
    params text ``params[i]``.

    ``evaluate()`` returns the line names, per point the residuals of the
    lines or the error of that point alone, which makes the point one
    ``<family>.<skip>`` skip, and the tolerances of the lines not graded at
    ``tolerance``, by line name; if it raises, every point skips with that
    error.  Each line's templates are made once for the chunk (``_graded``).
    """
    try:
        names, results, tolerances = evaluate()
    except BwmBerryError as exc:
        names, results, tolerances = (), [exc] * len(params), {}
    lines = [_graded(f"{family}.{name}", tolerances.get(name, tolerance), data="{}") for name in names]
    out = []
    for p, result in zip(params, results):
        if isinstance(result, BwmBerryError):
            out.append(_skip(f"{family}.{skip}", p, tolerance, result))
        else:
            out += _checks(lines, p, result)
    return out


def _pair_params(key: str, value: float, pairs: np.ndarray) -> list[str]:
    """The params texts of the phase pairs, the rows of ``pairs``, at ``key`` = ``value``."""
    return _row_params((key, "phi1", "phi2"), [(value, p1, p2) for p1, p2 in pairs.tolist()])


def _bwm_point(cfg: RunConfig, q: float, pairs: np.ndarray) -> list[tuple]:
    """The records of a chunk of phase pairs, the rows of ``pairs``, at one q: the suite, then the
    transport lines, pair by pair.  The projector squares are graded at ``_square_tolerance``.

    ``bench/spans.py`` traces the ``_<family>_point`` functions by name, so
    this one, ``_tla_point``, ``_ybe_point``, ``_casimir_point``,
    ``_spectrum_point`` and ``_berry_point`` keep their names, although all
    but the last take a chunk or a row.
    """

    def evaluate():
        p = AlgebraParams.coupled(q)
        square = _square_tolerance(p, RELATION_TOL)
        return *_bwm_row(p, *pairs.T), {**_TRANSPORT_TOLERANCES, "square_a": square, "square_b": square}

    return _relation_records("bwm", _pair_params("q", float(q), pairs), RELATION_TOL, evaluate)


def _tla_point(cfg: RunConfig, d: float, pairs: np.ndarray) -> list[tuple]:
    """The records of a chunk of phase pairs, the rows of ``pairs``, at one loop value d."""
    params = _pair_params("d", float(d), pairs)
    return _relation_records("tla", params, EXACT_TOL, lambda: (*_tla_row(AlgebraParams.tla(d), *pairs.T), {}))


#: The three corner samples that lead the exchange samples, as rows (u, v, beta, epsilon, d, phi1, phi2).
_YBE_CORNERS = ((0.0, 0.37, 0.3, 1, 1.7, 0.4, -1.1), (0.41, -0.41, 1.0, -1, 1.9, -2.0, 0.7), (0.25, 0.6, 0.0, 1, 1.7, 1.2, 2.5))

#: The keys of an exchange record's ``params``, in the order of a sample row.
_YBE_KEYS = tuple(f.name for f in fields(SpectralParams))


def _ybe_samples(cfg: RunConfig) -> np.ndarray:
    """The exchange samples as the rows of a float (n, 7) array, corners first; none where
    ``ybe_samples`` is 0, and the corners only, with a warning, where ``ybe_beta`` or ``ybe_d`` is empty.

    The seeded samples come from five calls on ``default_rng([seed, 1])``, in this order: u and v,
    the ``ybe_beta`` picks, the signs epsilon, the ``ybe_d`` picks, then phi1 and phi2.
    """
    if cfg.ybe_samples == 0:
        return np.empty((0, 7))
    betas, ds = cfg.grid("ybe_beta"), cfg.grid("ybe_d")
    empty = [name for name, grid in (("ybe_beta", betas), ("ybe_d", ds)) if not grid]
    if empty:
        cfg.warnings.append(
            f"grid {' and '.join(empty)} is empty: the {cfg.ybe_samples} seeded exchange samples were not drawn"
        )
        return np.array(_YBE_CORNERS, dtype=float)
    n, rng = cfg.ybe_samples, np.random.default_rng([cfg.seed, 1])
    u, v = rng.uniform(-0.9, 0.9, size=(2, n))
    beta = np.take(betas, rng.integers(len(betas), size=n))
    eps = rng.integers(2, size=n) * 2 - 1
    d = np.take(ds, rng.integers(len(ds), size=n))
    phi1, phi2 = rng.uniform(-math.pi, math.pi, size=(2, n))
    return np.concatenate([_YBE_CORNERS, np.stack([u, v, beta, eps, d, phi1, phi2], axis=1)])


def _ybe_point(cfg: RunConfig, samples: np.ndarray) -> list[tuple]:
    """The records of a chunk of exchange samples, the rows of ``samples``, from one stacked evaluation."""
    params = _row_params(_YBE_KEYS, samples.tolist(), ints=("epsilon",))
    tolerances = {"unimodularity": UNIT_CIRCLE_TOL}
    return _relation_records("ybe", params, RELATION_TOL, lambda: (*_exchange_columns(samples), tolerances), "exchange")


def _family(cfg: RunConfig, stage: str, fn, rows: list, points: int):
    """Yield the records of ``fn(cfg, *row)`` over the rows, in order, one list per row, on ``cfg.jobs`` processes.

    Each row is taken when its records are asked for.  With one job, or
    without ``os.fork``, it is evaluated then; with more, worker k evaluates
    ``rows[k::jobs]`` (see ``_workers``): this process is worker 0 and the
    others are forked children that stream their rows back, so ``fn`` must
    not mutate ``cfg``, as a child's writes are lost.  ``meta.timings[stage]``
    gets this process's wall seconds of taking the rows (not the caller's
    time between rows), the ``points`` the rows hold, the ``rows`` (one call
    of ``fn`` each) and the ``skipped`` points.
    """
    entry = cfg.timings[stage] = {"seconds": 0.0, "points": points, "rows": len(rows), "skipped": 0}

    def call(row):
        return fn(cfg, *row)

    results = map(call, rows)
    if min(cfg.jobs, len(rows)) > 1 and hasattr(os, "fork"):
        from ._workers import interleaved

        results = interleaved(call, rows, cfg.jobs)
    while True:
        with timed(cfg.timings, stage):
            records = next(results, None)
        if records is None:
            return
        entry["skipped"] += sum(status == "skip" for _, status, _, _, _ in records)
        yield records


def cmd_verify(cfg: RunConfig):
    """Yield BWM records, then TLA records, then exchange records, one list per row; ``meta.timings``
    gets each family's time and, as ``verify.ybe_draw``, the time of drawing the exchange samples
    and their ``points``.

    Each row (one q or one tla_d) is evaluated CHUNK phase pairs at a time, and the exchange
    samples CHUNK rows at a time.
    """
    pairs = _phase_pairs(cfg)
    chunks = _chunks(pairs)
    qs, ds = cfg.grid("q"), cfg.grid("tla_d")
    yield from _family(cfg, "verify.bwm", _bwm_point, [(q, c) for q in qs for c in chunks], len(qs) * len(pairs))
    yield from _family(cfg, "verify.tla", _tla_point, [(d, c) for d in ds for c in chunks], len(ds) * len(pairs))
    with timed(cfg.timings, "verify.ybe_draw") as entry:
        samples = _ybe_samples(cfg)
        entry["points"] = len(samples)
    yield from _family(cfg, "verify.ybe", _ybe_point, [(c,) for c in _chunks(samples)], len(samples))


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

#: Spectrum of the quadratic Casimir of the ladder triple.
CASIMIR_LEVELS = (0.0, 0.75, 0.75)


def _levels_row(name: str, axes: dict, build) -> list[tuple]:
    """The records of one row of points, the grid ``axes`` spans (``_grid_params``), from one stacked
    build and one batched eigensolve.

    ``build()`` returns the row's matrices as an (n, 3, 3) stack, in the order
    of the points, and their distinct predicted levels as an (m, 3) array, each
    row of which serves n / m consecutive points; if it raises, every point of
    the row skips with its error.  If the batched solve raises, each matrix is
    solved on its own, so a failing matrix skips only its own point.  The
    residual is the largest deviation over max(1, largest |level|), like
    ``rel_residual``.
    """
    params = _grid_params(axes)
    try:
        matrices, predicted = build()
    except BwmBerryError as exc:
        return [_skip(name, p, RELATION_TOL, exc) for p in params]
    errors = {}
    try:
        observed = _eigh(matrices)[0]
    except BwmBerryError:
        observed = np.zeros((len(matrices), 3))
        for i, m in enumerate(matrices):
            try:
                observed[i] = _eigh(m)[0]
            except BwmBerryError as exc:
                errors[i] = exc
    levels = np.repeat(predicted, len(matrices) // max(1, len(predicted)), axis=0)
    with np.errstate(over="ignore"):  # as the float arithmetic of one point at a time: inf, no warning
        dev = np.max(np.abs(observed - levels), axis=-1) / np.maximum(1.0, np.max(np.abs(levels), axis=-1))
    return _levels_records(name, params, RELATION_TOL, dev.tolist(), observed.tolist(), predicted.tolist(), errors)


def _casimir_point(cfg: RunConfig, d: float) -> list[tuple]:
    """All Casimir points of one d row, from one ``_ladder_stack`` over theta."""
    thetas = cfg.grid("theta")

    def build():
        return _ladder_stack(thetas, d).casimir(), np.array([CASIMIR_LEVELS])

    return _levels_row("spectrum.casimir", {"theta": thetas, "d": (d,)}, build)


def _spectrum_point(cfg: RunConfig, d: float) -> list[tuple]:
    """All H points of one d row, ordered by (theta, omega, phi), from one ``_hamiltonian_row``."""
    thetas, omegas, phis = cfg.grid("theta"), cfg.grid("omega"), cfg.grid("phi")

    def build():
        hs = _hamiltonian_row(thetas, omegas, _drive_factors(phis), d)
        # Per (theta, omega): the level hbar omega cos(alpha) with hbar = 1, and {0, +-level} ascending.
        level = np.multiply.outer([cos_alpha(t, d) for t in thetas], omegas)
        levels = np.sort(np.stack([np.zeros_like(level), level, -level], axis=-1), axis=-1)
        return hs.reshape(-1, 3, 3), levels.reshape(-1, 3)

    return _levels_row("spectrum.h_eigenvalues", {"theta": thetas, "d": (d,), "omega_drive": omegas, "phi": phis}, build)


def cmd_spectrum(cfg: RunConfig):
    """Yield Casimir records, then H records, both ordered by (d, theta, ...), built and solved one d
    row at a time, one list per row.

    ``meta.timings`` gets each family's seconds, points, rows and skipped points (see ``_family``).
    """
    rows = [(d,) for d in cfg.grid("d")]
    casimir_points = len(rows) * len(cfg.grid("theta"))
    h_points = casimir_points * len(cfg.grid("omega")) * len(cfg.grid("phi"))
    yield from _family(cfg, "spectrum.casimir", _casimir_point, rows, casimir_points)
    yield from _family(cfg, "spectrum.h", _spectrum_point, rows, h_points)


# --------------------------------------------------------------------------
# berry
# --------------------------------------------------------------------------

def _berry_point(cfg: RunConfig, theta: float, d: float) -> list[tuple]:
    base = _text({"theta": float(theta), "d": float(d)})
    match_tol = 2.0 * LOOP_BIAS_K / cfg.steps**2
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
            max(EXACT_TOL, FORM_ARGUMENT_C * 2.0**-53 * abs(math.pi / 2.0 - theta)),
            _text({"gamma_plus_sin": closed_sin.gamma_plus, "gamma_plus_cos": closed_cos.gamma_plus}),
        )
    ]
    if d < GOLDEN_RATIO - DOMAIN_SLACK:
        reason_exc = InvalidParam("the Hamiltonian route needs d at or above the golden ratio")
        out.append(_skip("berry.match_plus", base, match_tol, reason_exc, reason="closed_form_only"))
        return out
    try:
        loop = berry_wilson_loop(theta, d, steps=cfg.steps)
        gamma_discrete = berry_discrete(theta, d, steps=cfg.steps)
    except BwmBerryError as exc:
        out.append(_skip("berry.match_plus", base, match_tol, exc))
        return out
    for branch in ("plus", "minus"):
        wilson = getattr(loop, f"gamma_{branch}")
        closed = getattr(closed_sin, f"gamma_{branch}")
        data = {"wilson": wilson, "wilson_lifted": getattr(loop, f"gamma_{branch}_lifted"), "closed": closed, "pairing": loop.pairing}
        out.append(_record(f"berry.match_{branch}", base, abs(_wrap_phase(wilson - closed)), match_tol, _text(data)))
    out.append(_record("berry.zero_branch", base, abs(loop.gamma_zero), EXACT_TOL, _text({"wilson": loop.gamma_zero})))
    gap = max(abs(_wrap_phase(loop.gamma_plus - gamma_discrete)), abs(_wrap_phase(loop.gamma_minus + gamma_discrete)))
    data = _text({"steps": cfg.steps, "gamma_discrete": gamma_discrete})
    out.append(_record("berry.exact_discrete", base, gap, EXACT_TOL, data))
    return out


#: glibc ``mallopt`` settings (M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD) that keep a Berry
#: loop's freed arrays in the heap: every loop array stays below 32 MiB (H at ``MAX_STEPS``
#: is 18.9 MB), and a loop's peak below 128 MiB (about 92 MiB at ``MAX_STEPS``).
_KEPT_HEAP = ((-3, 32 << 20), (-1, 128 << 20))


def _keep_heap() -> None:
    """Tell glibc to keep freed memory in the heap, so each Berry loop reuses the last one's pages.

    Under glibc's dynamic trim threshold (about 1.2 MB after a loop) the freed top of a loop's
    ~3 MB peak goes back to the OS, and the next loop faults the same pages in again.  The
    setting holds for the whole process and the workers it forks; where the C library has no
    ``mallopt`` (not glibc, or Windows) nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    for param, value in _KEPT_HEAP:
        mallopt(param, value)


def cmd_berry(cfg: RunConfig):
    """Yield the records of each (theta, d) point, one list per point, ordered by (d, theta);
    ``meta.timings`` gets the family's time.  Keeps freed heap first (``_keep_heap``)."""
    _keep_heap()
    points = [(t, d) for d in cfg.grid("berry_d") for t in cfg.grid("berry_theta")]
    yield from _family(cfg, "berry", _berry_point, points, len(points))


# --------------------------------------------------------------------------
# figure
# --------------------------------------------------------------------------

@contextlib.contextmanager
def _replaced(path: Path):
    """A text file (UTF-8, LF) that becomes ``path`` once the block ends: it is written under a
    temporary name in ``path``'s directory and moved onto ``path`` by ``os.replace``.  If the
    block, the close or the move raises, the temporary file is removed and ``path`` is left as
    it was.
    """
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fh = open(temporary, "w", encoding="utf-8", newline="")
    try:
        yield fh
        fh.close()
        os.replace(temporary, path)
    except BaseException:
        for cleanup in (fh.close, temporary.unlink):
            with contextlib.suppress(OSError):
                cleanup()
        raise


def _write_csv(path: Path, thetas, ds, gamma) -> tuple[int, int]:
    """Write rows (theta, d, gamma[j, i]) sorted by (d, theta) to ``path`` (see ``_replaced``);
    return the rows and characters written.

    The row template ``"<theta>,\\0,%.17g\\n"`` over all thetas is joined once.  Each
    d row then fills in its d text for the NUL and is one ``%`` call over its gamma
    values, which gives the bytes of a per-value ``format(x, ".17g")``: no ``.17g``
    text holds ``%`` or NUL.  Rows are converted to floats one at a time, because a
    whole-table ``tolist()`` holds every value as a Python float at once, about
    4 MB more peak memory on a 601 x 201 table.
    """
    template = "".join([f"{th:.17g},\0,%.17g\n" for th in thetas])
    with _replaced(path) as fh:
        size = fh.write("theta,d,gamma_plus\n")
        for dv, row in zip(ds, gamma):
            size += fh.write(template.replace("\0", format(dv, ".17g")) % tuple(row.tolist()))
    return len(thetas) * len(ds), size


def cmd_figure(cfg: RunConfig):
    """Yield, per CSV as it is written, one list: its record and then one ``figure.<kind>_row`` skip
    for each d, ascending, whose d^2 overflows: the closed form needs it, so the table leaves that
    d's rows out."""
    thetas = np.linspace(0.0, 2.0 * math.pi, cfg.figure_theta_points)
    for kind, d_values in (("sections", cfg.grid("figure_d")), ("surface", np.linspace(*cfg.figure_d_mesh))):
        fname = f"figure_{kind}.csv"
        d_values = [float(d) for d in d_values]
        table = figure_table(thetas, [d for d in d_values if math.isfinite(d * d)])
        with timed(cfg.timings, "write_csv") as entry:
            n, size = _write_csv(cfg.out_dir / fname, *table)
            entry["rows"] = entry.get("rows", 0) + n
            entry["bytes"] = entry.get("bytes", 0) + size
        records = [_csv_record(f"figure.{kind}_csv", fname, n)]
        for d in sorted(d for d in d_values if not math.isfinite(d * d)):
            exc = InvalidParam(f"d = {d} overflows double precision: d*d is not finite")
            records.append(_skip(f"figure.{kind}_row", _text({"d": d}), None, exc))
        yield records


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
                with np.errstate(over="ignore", invalid="ignore"):  # the finiteness rule below refuses inf and nan
                    values = [float(x) for x in np.linspace(start, stop, count)]
            else:
                values = [float(tok) for tok in text.split(",")] if text else []
        except ValueError as exc:
            raise ConfigError(f"could not parse grid {name!r} from {text!r}: {exc}") from exc
    rule, admits = _GRID_RULES.get(name, ("finite numbers", lambda x: True))
    if not isinstance(values, list) or not all(_real(x) and admits(x) for x in values):
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


def _platform() -> dict:
    """What a report's bits depend on: the Python build, numpy's version and numpy's CPU baseline and dispatch.

    ``cpu_dispatch`` lists the targets numpy may dispatch to on this CPU, after
    ``NPY_DISABLE_CPU_FEATURES``.  The module holding these lists is already
    loaded with numpy: ``numpy._core`` since numpy 2, ``numpy.core`` before.
    """
    umath = sys.modules.get("numpy._core._multiarray_umath") or sys.modules["numpy.core._multiarray_umath"]
    features = umath.__cpu_features__
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "cpu_baseline": list(umath.__cpu_baseline__),
        "cpu_dispatch": [target for target in umath.__cpu_dispatch__ if features.get(target)],
    }


class _OutputError(Exception):
    """An ``OSError`` of the outputs other than the report: the output directory, or figure's CSVs."""


def _outputs(rows):
    """The command's rows, with an ``OSError`` raised as ``_OutputError``, so it is told from the report's."""
    try:
        yield from rows
    except OSError as exc:
        raise _OutputError(exc) from exc


def _error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    timings = {}
    try:
        with timed(timings, "build_config"):
            cfg = build_config(args)
        cfg.timings = timings
        try:
            cfg.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _OutputError(exc) from exc
        checks = _outputs(_COMMANDS[cfg.command](cfg))
        report = {
            "schema": 1,
            "command": cfg.command,
            "config": cfg.echo(),
            "summary": None,  # counted from the checks as they are written
            "warnings": cfg.warnings,
            "checks": checks,
            "meta": {
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "out_dir": str(cfg.out_dir),
                "jobs": cfg.jobs,
                "timings": timings,
                "platform": _platform(),
            },
        }
        report_path = cfg.out_dir / f"{cfg.command}_report.json"
        # Closing the rows as the block ends reaps the workers of a family cut short.
        with _replaced(report_path) as fh, contextlib.closing(checks):
            summary, ratio, closest = _write_report(fh, report, timings)
    except BwmBerryError as exc:
        return _error(exc)
    except _OutputError as exc:
        return _error(f"cannot write outputs: {exc}")
    except MemoryError as exc:
        return _error(f"the run does not fit in memory: {exc}")
    except OSError as exc:
        return _error(f"cannot write report: {exc}")

    for w in report["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    margin = "n/a" if closest is None else f"{ratio:.3g} ({closest})"
    print(
        f"[bwmberry {cfg.command}] {summary['passed']}/{summary['checks']} checks passed, {summary['failed']} failed, "
        f"{summary['skipped']} skipped; largest residual/tolerance {margin}; wrote {report_path}"
    )
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
