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
The knobs, the grids and the argument parser are declared in ``config``.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .algebra import DOMAIN_SLACK, EXACT_TOL, GOLDEN_RATIO, RELATION_TOL, TRANSPORT_LINES, AlgebraParams, _bwm_row, _square_tolerance, _tla_row
from .berry import LOOP_BIAS_K, _wrap_phase, berry_closed, berry_discrete, berry_wilson_loop, figure_table
from .config import RunConfig, build_config, build_parser
from .errors import BwmBerryError, InvalidParam
from .matrices import _eigh
from .report import _checks, _csv_record, _graded, _grid_params, _levels_records, _record, _row_params, _skip, _text, _write_report, timed
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

#: Phase pairs or exchange samples per stacked evaluation.  One evaluation
#: per chunk removes the per-point call overhead, and a bounded chunk keeps
#: the (n, 3, 3) stacks and one chunk's records small, so at ``--jobs 1`` peak
#: memory does not grow with ``--phase-pairs`` or ``--ybe-samples``.
CHUNK = 256


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


def _family(cfg: RunConfig, *families):
    """Yield the records of a command's families, family by family and each in row order, one list per
    row, on ``cfg.jobs`` processes.

    A family is ``(stage, fn, rows, points)``, and its row ``row`` has the
    records of ``fn(cfg, *row)``.  The families' rows make one stream, and each
    row is taken when its records are asked for.  With one job, or without
    ``os.fork``, it is evaluated then; with more, one worker set serves the
    whole stream: worker k evaluates ``stream[k::jobs]`` (see ``_workers``),
    this process is worker 0 and the others are children forked once, that
    stream their rows back, so ``fn`` must not mutate ``cfg``, as a child's
    writes are lost.  ``meta.timings[stage]`` gets this process's wall seconds
    of taking the family's rows (not the caller's time between rows), the
    ``points`` the rows hold and the ``rows`` (one call of ``fn`` each).  The
    records themselves are read by ``report`` alone.
    """
    stream = []
    for stage, fn, rows, points in families:
        cfg.timings[stage] = {"seconds": 0.0, "points": points, "rows": len(rows)}
        clock = timed(cfg.timings, stage)
        stream += [(clock, fn, row) for row in rows]

    def call(tagged):
        _, fn, row = tagged
        return fn(cfg, *row)

    results = map(call, stream)
    if min(cfg.jobs, len(stream)) > 1 and hasattr(os, "fork"):
        from ._workers import interleaved

        results = interleaved(call, stream, cfg.jobs)
    for clock, _, _ in stream:
        with clock:
            records = next(results)
        yield records
    next(results, None)  # runs the workers' generator to its end, which reaps every child


def cmd_verify(cfg: RunConfig):
    """Yield BWM records, then TLA records, then exchange records, one list per row, from one row
    stream (``_family``); ``meta.timings`` gets each family's time and, as ``verify.ybe_draw``, the
    time of drawing the exchange samples and their ``points``.

    The exchange samples are drawn before any row is evaluated, so forked workers inherit them.
    Each row (one q or one tla_d) is evaluated CHUNK phase pairs at a time, and the exchange
    samples CHUNK rows at a time.
    """
    pairs = _phase_pairs(cfg)
    chunks = _chunks(pairs)
    qs, ds = cfg.grid("q"), cfg.grid("tla_d")
    with timed(cfg.timings, "verify.ybe_draw") as entry:
        samples = _ybe_samples(cfg)
        entry["points"] = len(samples)
    bwm = ("verify.bwm", _bwm_point, [(q, c) for q in qs for c in chunks], len(qs) * len(pairs))
    tla = ("verify.tla", _tla_point, [(d, c) for d in ds for c in chunks], len(ds) * len(pairs))
    yield from _family(cfg, bwm, tla, ("verify.ybe", _ybe_point, [(c,) for c in _chunks(samples)], len(samples)))


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

    ``meta.timings`` gets each family's seconds, points and rows (see ``_family``).
    """
    rows = [(d,) for d in cfg.grid("d")]
    casimir_points = len(rows) * len(cfg.grid("theta"))
    h_points = casimir_points * len(cfg.grid("omega")) * len(cfg.grid("phi"))
    yield from _family(cfg, ("spectrum.casimir", _casimir_point, rows, casimir_points), ("spectrum.h", _spectrum_point, rows, h_points))


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
#: loop's freed arrays in the heap: every loop array stays below 32 MiB (H at ``config.MAX_STEPS``
#: is 18.9 MB), and a loop's peak below 128 MiB (about 92 MiB at ``config.MAX_STEPS``).
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
    yield from _family(cfg, ("berry", _berry_point, points, len(points)))


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
    """Write rows (theta, d, gamma[j][i]) sorted by (d, theta) to ``path`` (see ``_replaced``);
    return the rows and characters written.

    ``gamma`` yields one float array per d, in the order of ``ds``: a 2-d array,
    or the lazy rows of ``figure_table``, which makes each row as it is taken, so
    the table is never held whole.  The row template ``"<theta>,\\0,%.17g\\n"``
    over all thetas is joined once.  Each d row then fills in its d text for the
    NUL and is one ``%`` call over its gamma values, which gives the bytes of a
    per-value ``format(x, ".17g")``: no ``.17g`` text holds ``%`` or NUL.
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
    d's rows out.  Each d row is made as it is written, so ``meta.timings["write_csv"]`` covers
    both the gamma values and their text."""
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
# entry point
# --------------------------------------------------------------------------

_COMMANDS = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "berry": cmd_berry,
    "figure": cmd_figure,
}


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
        # Closing the rows as the block ends reaps the workers of a run cut short.
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
