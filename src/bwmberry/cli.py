"""Command-line interface: verification suites, spectra, loop phases, figure data.

Four subcommands, all batch-style (run, write artifacts, exit):

* ``verify``   - algebra relation suites and exchange-identity sweeps;
* ``spectrum`` - driven-Hamiltonian eigenvalues against the closed form,
  plus the Casimir spectrum of the ladder triple;
* ``berry``    - Wilson-loop phases against the closed forms;
* ``figure``   - CSV tables of the closed-form phase surface and sections.

Every command writes a schema-versioned JSON report whose check records carry
(name, params, residual, tolerance, status, reason, data), one record per line of
the otherwise ``indent=2`` text (see the ``report`` module). Exit codes: 0 all
executed checks passed, 1 at least one check failed, 2 the configuration or an
output path was unusable, the run did not fit in memory, or a package error
escaped every per-point guard. Grid points that violate a domain guard become
per-point ``skip`` records with a machine-readable reason token instead of
aborting the run. With a fixed seed the reports and CSVs are byte-identical
across runs and job counts (timestamps live in a separate ``meta`` object);
``--jobs N`` evaluates grid rows on N forked processes where ``os.fork`` exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .algebra import DOMAIN_SLACK, EXACT_TOL, GOLDEN_RATIO, RELATION_TOL, TRANSPORT_LINES, AlgebraParams, _bwm_row, _tla_row
from .berry import LOOP_BIAS_K, MIN_STEPS, SECTION_D_VALUES, _wrap_phase, berry_closed, berry_discrete, berry_wilson_loop, figure_table
from .errors import BwmBerryError, ConfigError, InvalidParam
from .matrices import hermitian_eigs
from .report import _write_report
from .spin import _hamiltonian_row, _ladder_stack, cos_alpha
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


def _reason_token(exc: BaseException) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).lower()


#: The ``data`` of every record without data: one dict that nothing mutates, not one per record.
_NO_DATA: dict = {}


def _record(name: str, params: dict, residual: float, tolerance: float, **data) -> dict:
    """One executed check, as the report writes it (see ``_write_report``)."""
    return {
        "name": name,
        "params": params,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "status": "pass" if residual < tolerance else "fail",
        "reason": None,
        "data": data or _NO_DATA,
    }


def _skip(name: str, params: dict, tolerance: float | None, exc: BaseException, reason: str | None = None) -> dict:
    return {
        "name": name,
        "params": params,
        "residual": None,
        "tolerance": tolerance,
        "status": "skip",
        "reason": reason or _reason_token(exc),
        "data": {"detail": str(exc)},
    }


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


#: The tolerances of the relation lines not graded at their family's tolerance, by record name.
_LINE_TOLERANCES = {**{f"bwm.{name}": EXACT_TOL for name in TRANSPORT_LINES}, "ybe.unimodularity": UNIT_CIRCLE_TOL}


def _relation_records(family: str, params: list, tolerance: float, evaluate, skip: str = "suite") -> list[dict]:
    """The records of one chunk of a relation family, from one stacked evaluation.

    ``evaluate()`` returns the line names and, per point of ``params``, the
    residuals of the lines or the error of that point alone, which makes the
    point one ``<family>.<skip>`` skip; if it raises, every point skips with
    that error.  A line is graded at its ``_LINE_TOLERANCES`` entry, if it
    has one, else at ``tolerance``.
    """
    try:
        names, results = evaluate()
    except BwmBerryError as exc:
        names, results = (), [exc] * len(params)
    names = [f"{family}.{name}" for name in names]  # one name string per line, not one per record
    tolerances = [_LINE_TOLERANCES.get(name, tolerance) for name in names]
    out = []
    for p, result in zip(params, results):
        if isinstance(result, BwmBerryError):
            out.append(_skip(f"{family}.{skip}", p, tolerance, result))
        else:
            out += [_record(n, p, r, t) for n, r, t in zip(names, result, tolerances)]
    return out


def _bwm_point(cfg: RunConfig, q: float, pairs: np.ndarray) -> list[dict]:
    """The records of a chunk of phase pairs, the rows of ``pairs``, at one q: the suite, then the
    transport lines, pair by pair.

    ``bench/spans.py`` traces the ``_<family>_point`` functions by name, so
    this one, ``_tla_point``, ``_ybe_point``, ``_casimir_point``,
    ``_spectrum_point`` and ``_berry_point`` keep their names, although all
    but the last take a chunk or a row.
    """
    params = [{"q": float(q), "phi1": p1, "phi2": p2} for p1, p2 in pairs.tolist()]
    return _relation_records("bwm", params, RELATION_TOL, lambda: _bwm_row(AlgebraParams.coupled(q), *pairs.T))


def _tla_point(cfg: RunConfig, d: float, pairs: np.ndarray) -> list[dict]:
    """The records of a chunk of phase pairs, the rows of ``pairs``, at one loop value d."""
    params = [{"d": float(d), "phi1": p1, "phi2": p2} for p1, p2 in pairs.tolist()]
    return _relation_records("tla", params, EXACT_TOL, lambda: _tla_row(AlgebraParams.tla(d), *pairs.T))


#: The three corner samples that lead the exchange samples, as rows (u, v, beta, epsilon, d, phi1, phi2).
_YBE_CORNERS = ((0.0, 0.37, 0.3, 1, 1.7, 0.4, -1.1), (0.41, -0.41, 1.0, -1, 1.9, -2.0, 0.7), (0.25, 0.6, 0.0, 1, 1.7, 1.2, 2.5))

#: The keys of an exchange record's ``params``, in the order of a sample row.
_YBE_KEYS = tuple(f.name for f in fields(SpectralParams))


def _ybe_samples(cfg: RunConfig) -> tuple[np.ndarray, int]:
    """The exchange samples as the rows of a float (n, 7) array, corners first, and how many of
    them the per-sample loop drew (``_ybe_draw``); none where ``ybe_samples`` is 0, and the corners
    only, with a warning, where ``ybe_beta`` or ``ybe_d`` is empty."""
    if cfg.ybe_samples == 0:
        return np.empty((0, 7)), 0
    betas, ds = cfg.grid("ybe_beta"), cfg.grid("ybe_d")
    empty = [name for name, grid in (("ybe_beta", betas), ("ybe_d", ds)) if not grid]
    if empty:
        cfg.warnings.append(
            f"grid {' and '.join(empty)} is empty: the {cfg.ybe_samples} seeded exchange samples were not drawn"
        )
        return np.array(_YBE_CORNERS, dtype=float), 0
    seeded, per_sample = _ybe_draw(np.random.default_rng([cfg.seed, 1]), betas, ds, cfg.ybe_samples)
    return np.concatenate([_YBE_CORNERS, seeded]), per_sample


def _ybe_loop(rng: np.random.Generator, betas, ds, n: int) -> np.ndarray:
    """n seeded samples, drawn one ``Generator`` call at a time."""
    rows = []
    for _ in range(n):
        u, v = rng.uniform(-0.9, 0.9, size=2)
        beta = betas[rng.integers(len(betas))]
        eps = int(rng.integers(2)) * 2 - 1
        d = ds[rng.integers(len(ds))]
        p1, p2 = rng.uniform(-math.pi, math.pi, size=2)
        rows.append((u, v, beta, eps, d, p1, p2))
    return np.array(rows, dtype=float).reshape(-1, 7)


def _ybe_draw(rng: np.random.Generator, betas, ds, n: int) -> tuple[np.ndarray, int]:
    """``_ybe_loop(rng, betas, ds, n)`` bit for bit, with the same final state of ``rng``, and how
    many samples the loop drew: none, unless a draw of the replay below rejects.

    The replay reads ``rng``'s PCG64 stream with one ``random_raw`` call.  A sample reads one
    64-bit word each for u and v, one 32-bit half each for the ``integers(k)`` draws with k > 1
    (``integers(1)`` draws nothing), then one word each for phi1 and phi2.  A double is
    lo + (hi - lo) ((w >> 11) 2^-53).  A half is the low half of a fresh word, or the high half
    of the last one, which PCG64 buffers (``has_uint32``, ``uinteger``) across the doubles.
    ``integers(k)`` is Lemire's (x k) >> 32, which numpy redraws where (x k) mod 2^32 < 2^32 mod k,
    shifting the stream; so there the state is restored and the loop draws every sample.  That
    never happens for k a power of two.
    """
    state = rng.bit_generator.state
    grids = (betas, (-1, 1), ds)  # epsilon is 2 integers(2) - 1
    buffered, m = state["has_uint32"], sum(len(g) > 1 for g in grids)
    fresh = (np.arange(n * m) + buffered) % 2 == 0  # a half that reads a new word
    per = fresh.reshape(n, m)
    words = 4 + per.sum(axis=1)
    first = np.cumsum(words) - words
    raw = rng.bit_generator.random_raw(int(words.sum()))
    # ext[0] holds the buffered high half; a half reads the word that the last fresh half read.
    ext = np.concatenate([[np.uint64(state["uinteger"]) << np.uint64(32)], raw])
    word = 3 + first[:, None] + np.cumsum(per, axis=1) - per
    src = np.maximum.accumulate(np.concatenate([[0], np.where(fresh, word.ravel(), 0)]))
    halves = np.where(fresh, ext[src[1:]] & np.uint64(0xFFFFFFFF), ext[src[1:]] >> np.uint64(32)).reshape(n, m)
    columns, picks = iter(halves.T), []
    for grid in grids:
        scaled = next(columns) * np.uint64(len(grid)) if len(grid) > 1 else np.zeros(n, dtype=np.uint64)
        if np.any(scaled & np.uint64(0xFFFFFFFF) < 2**32 % len(grid)):
            rng.bit_generator.state = state
            return _ybe_loop(rng, betas, ds, n), n
        picks.append(np.asarray(grid, dtype=float)[(scaled >> np.uint64(32)).astype(np.intp)])
    after = rng.bit_generator.state
    after.update(has_uint32=(buffered + n * m) % 2, uinteger=int(ext[src[-1]] >> np.uint64(32)))
    rng.bit_generator.state = after
    unit = (raw >> np.uint64(11)) * 2.0**-53
    uniform = lambda lo, hi, at: lo + (hi - lo) * unit[at]
    u, v = uniform(-0.9, 0.9, first), uniform(-0.9, 0.9, first + 1)
    p1, p2 = uniform(-math.pi, math.pi, first + words - 2), uniform(-math.pi, math.pi, first + words - 1)
    return np.stack([u, v, *picks, p1, p2], axis=1), 0


def _ybe_point(cfg: RunConfig, samples: np.ndarray) -> list[dict]:
    """The records of a chunk of exchange samples, the rows of ``samples``, from one stacked evaluation."""
    params = [dict(zip(_YBE_KEYS, row), epsilon=int(row[3])) for row in samples.tolist()]
    return _relation_records("ybe", params, RELATION_TOL, lambda: _exchange_columns(samples), "exchange")


def _family(cfg: RunConfig, stage: str, fn, rows: list, points: int) -> list[dict]:
    """The records of ``fn(cfg, *row)`` over the rows, in order, on ``cfg.jobs`` processes.

    With more than one job and ``os.fork`` at hand, worker k evaluates
    ``rows[k::jobs]`` (see ``_workers``): this process is worker 0 and the
    others are forked children, so ``fn`` must not mutate ``cfg``, as a
    child's writes are lost. ``meta.timings[stage]`` gets this process's wall
    seconds, the ``points`` the rows hold, the ``rows`` (one call of ``fn``
    each) and the ``skipped`` points.
    """
    with timed(cfg.timings, stage) as entry:
        if min(cfg.jobs, len(rows)) <= 1 or not hasattr(os, "fork"):
            records = [rec for row in rows for rec in fn(cfg, *row)]
        else:
            from ._workers import interleaved

            records = [rec for chunk in interleaved(lambda row: fn(cfg, *row), rows, cfg.jobs) for rec in chunk]
        entry.update(points=points, rows=len(rows), skipped=sum(r["status"] == "skip" for r in records))
    return records


def cmd_verify(cfg: RunConfig) -> list[dict]:
    """BWM records, then TLA records, then exchange records; ``meta.timings`` gets each family's time
    and, as ``verify.ybe_draw``, the time of drawing the exchange samples, their ``points`` and
    how many of them the per-sample loop drew (``per_sample``).

    Each row (one q or one tla_d) is evaluated CHUNK phase pairs at a time, and the exchange
    samples CHUNK rows at a time.
    """
    pairs = _phase_pairs(cfg)
    chunks = _chunks(pairs)
    qs, ds = cfg.grid("q"), cfg.grid("tla_d")
    records = _family(cfg, "verify.bwm", _bwm_point, [(q, c) for q in qs for c in chunks], len(qs) * len(pairs))
    records += _family(cfg, "verify.tla", _tla_point, [(d, c) for d in ds for c in chunks], len(ds) * len(pairs))
    with timed(cfg.timings, "verify.ybe_draw") as entry:
        samples, entry["per_sample"] = _ybe_samples(cfg)
        entry["points"] = len(samples)
    return records + _family(cfg, "verify.ybe", _ybe_point, [(c,) for c in _chunks(samples)], len(samples))


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

#: Spectrum of the quadratic Casimir of the ladder triple.
CASIMIR_LEVELS = (0.0, 0.75, 0.75)


def _levels_row(name: str, params: list, build) -> list[dict]:
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
        return [_skip(name, p, RELATION_TOL, exc) for p in params]
    errors = {}
    try:
        observed = hermitian_eigs(matrices).values
    except BwmBerryError:
        observed = np.zeros((len(matrices), 3))
        for i, m in enumerate(matrices):
            try:
                observed[i] = hermitian_eigs(m).values
            except BwmBerryError as exc:
                errors[i] = exc
    with np.errstate(over="ignore"):  # as the float arithmetic of one point at a time: inf, no warning
        dev = np.max(np.abs(observed - predicted), axis=-1) / np.maximum(1.0, np.max(np.abs(predicted), axis=-1))
    rows = zip(params, dev.tolist(), observed.tolist(), predicted.tolist())
    return [
        _skip(name, p, RELATION_TOL, errors[i])
        if i in errors
        else _record(name, p, res, RELATION_TOL, observed=obs, predicted=pred)
        for i, (p, res, obs, pred) in enumerate(rows)
    ]


def _casimir_point(cfg: RunConfig, d: float) -> list[dict]:
    """All Casimir points of one d row, from one ``_ladder_stack`` over theta."""
    thetas = cfg.grid("theta")

    def build():
        casimir = _ladder_stack(thetas, d).casimir()
        return casimir, np.broadcast_to(CASIMIR_LEVELS, (len(thetas), 3))

    return _levels_row("spectrum.casimir", [{"theta": t, "d": d} for t in thetas], build)


def _spectrum_point(cfg: RunConfig, d: float) -> list[dict]:
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

    return _levels_row("spectrum.h_eigenvalues", params, build)


def cmd_spectrum(cfg: RunConfig) -> list[dict]:
    """Casimir records, then H records, both ordered by (d, theta, ...), built and solved one d row at a time.

    ``meta.timings`` gets each family's seconds, points, rows and skipped points (see ``_family``).
    """
    rows = [(d,) for d in cfg.grid("d")]
    casimir_points = len(rows) * len(cfg.grid("theta"))
    h_points = casimir_points * len(cfg.grid("omega")) * len(cfg.grid("phi"))
    records = _family(cfg, "spectrum.casimir", _casimir_point, rows, casimir_points)
    return records + _family(cfg, "spectrum.h", _spectrum_point, rows, h_points)


# --------------------------------------------------------------------------
# berry
# --------------------------------------------------------------------------

def _berry_point(cfg: RunConfig, theta: float, d: float) -> list[dict]:
    base = {"theta": float(theta), "d": float(d)}
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
            gamma_plus_sin=closed_sin.gamma_plus,
            gamma_plus_cos=closed_cos.gamma_plus,
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
        out.append(
            _record(
                f"berry.match_{branch}",
                base,
                abs(_wrap_phase(wilson - closed)),
                match_tol,
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


def cmd_berry(cfg: RunConfig) -> list[dict]:
    """The records of each (theta, d) point, ordered by (d, theta); ``meta.timings`` gets the family's time."""
    points = [(t, d) for d in cfg.grid("berry_d") for t in cfg.grid("berry_theta")]
    return _family(cfg, "berry", _berry_point, points, len(points))


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


def cmd_figure(cfg: RunConfig) -> list[dict]:
    """Per CSV, its record and then one ``figure.<kind>_row`` skip for each d, ascending, whose
    d^2 overflows: the closed form needs it, so the table leaves that d's rows out."""
    thetas = np.linspace(0.0, 2.0 * math.pi, cfg.figure_theta_points)
    records = []
    for kind, d_values in (("sections", cfg.grid("figure_d")), ("surface", np.linspace(*cfg.figure_d_mesh))):
        fname = f"figure_{kind}.csv"
        d_values = [float(d) for d in d_values]
        table = figure_table(thetas, [d for d in d_values if math.isfinite(d * d)])
        with timed(cfg.timings, "write_csv") as entry:
            n = _write_csv(cfg.out_dir / fname, *table)
            entry["rows"] = entry.get("rows", 0) + n
        records.append(
            {"name": f"figure.{kind}_csv", "params": {}, "residual": None, "tolerance": None, "status": "pass",
             "reason": None, "data": {"file": fname, "rows": n}}
        )
        for d in sorted(d for d in d_values if not math.isfinite(d * d)):
            exc = InvalidParam(f"d = {d} overflows double precision: d*d is not finite")
            records.append(_skip(f"figure.{kind}_row", {"d": d}, None, exc))
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


def _summary(records: list) -> tuple[dict, float, str | None]:
    """The report's ``summary``, and the closing line's largest residual/tolerance with its record's name.

    One pass over the records.  A record with a residual is graded.
    ``worst_residual`` and the ratio are each the ``max`` of their graded
    values in record order: a later value replaces the kept one only if it
    is larger, so a NaN on the first graded record is kept and a later NaN
    never is.  Without graded records they are None and (0, None).
    """
    passed = failed = skipped = 0
    worst, ratio, closest = None, 0, None
    for r in records:
        status, residual = r["status"], r["residual"]
        if status == "pass":
            passed += 1
        elif status == "fail":
            failed += 1
        elif status == "skip":
            skipped += 1
        if residual is not None:
            quotient = residual / r["tolerance"]
            if worst is None:
                worst, ratio, closest = residual, quotient, r["name"]
            else:
                if residual > worst:
                    worst = residual
                if quotient > ratio:
                    ratio, closest = quotient, r["name"]
    summary = {
        "checks": len(records),
        "passed": passed,
        "failed": failed,
        "skipped": skipped,
        "worst_residual": worst,
        "overall_pass": failed == 0,
    }
    return summary, ratio, closest


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

    warnings = cfg.warnings + ([] if records else ["no checks were executed (empty grids?)"])
    summary, ratio, closest = _summary(records)
    report = {
        "schema": 1,
        "command": cfg.command,
        "config": cfg.echo(),
        "summary": summary,
        "warnings": warnings,
        "checks": records,
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "out_dir": str(cfg.out_dir),
            "jobs": cfg.jobs,
            "timings": timings,
            "platform": _platform(),
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
    margin = "n/a" if closest is None else f"{ratio:.3g} ({closest})"
    print(
        f"[bwmberry {cfg.command}] {summary['passed']}/{summary['checks']} checks passed, {summary['failed']} failed, "
        f"{summary['skipped']} skipped; largest residual/tolerance {margin}; wrote {report_path}"
    )
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
