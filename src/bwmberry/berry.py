"""Geometric phases of the driven three-level system.

Over one drive period the effective field axis sweeps a cone of polar
angle alpha, so the outer eigenvalue branches acquire the geometric
phases +/- pi (1 - cos(alpha)) (half the enclosed solid angle) while the
zero branch acquires none.  Two routes are provided:

* closed forms - gamma_+ = pi (1 - c) with c = 2 sin(theta) sqrt(d^2-1)/d^2
  ("sin form"), or the same expression with cos(theta) in place of
  sin(theta) ("cos form", the section convention used for the figure);
* a Wilson-loop (Pancharatnam) product of eigenvector overlaps around a
  discretised loop, which is manifestly gauge invariant and needs no
  phase smoothing.

Since only level 2 carries the drive phase, every step of that loop has
the same overlap, so its N-step value also has a closed form
(``berry_discrete``), against which the command line checks the loop.

The loop's eigenframes come from a closed-form 3x3 eigensolver
(``matrices._closed_form_eigh``): O. K. Smith's trigonometric eigenvalues
(Commun. ACM 4(4):168, 1961) and eigenvectors from cross products of the
rows of H - lambda I (J. Kopp, Int. J. Mod. Phys. C 19:523, 2008).  It
reads only the entries of each H, not the covariance under the drive
phase nor the predicted levels, so the loop stays independent of
``berry_discrete``.  A matrix whose relative level gap or best cross
product is too small is solved by LAPACK ``eigh`` instead; the loop's
spectrum {0, +/-omega cos(alpha)} keeps every relative gap at 1/sqrt(2), so
this never happens on it.  ``hermitian_eigs``, and with it the spectrum
command, keeps LAPACK.

The Wilson loop requires the full Hamiltonian construction and therefore
d at or above the golden ratio; the closed forms extend down to d = 1.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, InvalidParam
from .matrices import _closed_form_eigh, as_real, refuse_overflow
from .spin import DriveParams, _drive_factors, _hamiltonian_row, _polar_cosine, cos_alpha

#: Smallest admissible number of loop discretisation points.
MIN_STEPS = 16

#: A |cos(alpha)| at or below this leaves the outer branches unresolvable.
DEGENERACY_GUARD = 1e-6

#: Overlap magnitudes below this mean the discretisation lost a branch.
_OVERLAP_FLOOR = 1e-12

#: Loop-value sections tabulated by default in figure data.
SECTION_D_VALUES = (1.0, math.sqrt(2.0), 2.0, 3.0, 5.0)

_TAU = 2.0 * math.pi


def _wrap_phase(x: float) -> float:
    """Reduce a phase to the principal interval (-pi, pi]."""
    y = math.remainder(x, _TAU)
    if y <= -math.pi:
        y += _TAU
    return y


@dataclass(frozen=True)
class BerryResult:
    """Geometric phases of the three branches for one loop.

    Closed forms report the unwrapped geometric value gamma_plus =
    solid_angle / 2 in [0, 2 pi]; the Wilson loop reports principal values
    in (-pi, pi] in ``gamma_plus``/``gamma_minus`` and additionally lifts
    them into the closed forms' range in the ``*_lifted`` fields.
    ``pairing`` records which energy branch was identified with
    gamma_plus when the loop was actually followed (None for closed
    forms, where no branch tracking happens).
    """

    gamma_plus: float
    gamma_minus: float
    gamma_zero: float
    cos_alpha: float
    solid_angle: float
    method: str
    gamma_plus_lifted: float
    gamma_minus_lifted: float
    pairing: str | None = None


def solid_angle(cos_alpha_value) -> float:
    """Solid angle 2 pi (1 - cos(alpha)) of the cone swept by the field axis."""
    ca = as_real("cos_alpha_value", cos_alpha_value)
    if abs(ca) > 1.0 + 1e-12:
        raise InvalidParam(f"cos(alpha) must lie in [-1, 1], got {ca}")
    return _TAU * (1.0 - min(1.0, max(-1.0, ca)))


@refuse_overflow
def berry_closed(theta, d, form: str = "sin_form") -> BerryResult:
    """Closed-form branch phases gamma_(+,-) = +/- pi (1 - c), gamma_0 = 0.

    ``form`` selects the trigonometric factor in
    c = 2 trig(theta) sqrt(d^2-1) / d^2: "sin_form" uses sin(theta) (the
    polar cosine of the driven loop), "cos_form" uses cos(theta) (the
    section convention, equal to the sin form at theta -> pi/2 - theta).
    Valid for any d >= 1.
    """
    th = as_real("theta", theta)
    dv = as_real("d", d)
    if dv < 1.0:
        raise InvalidParam(f"closed forms need d >= 1, got d = {dv}")
    if form == "sin_form":
        trig = math.sin(th)
        method = "closed_sin_form"
    elif form == "cos_form":
        trig = math.cos(th)
        method = "closed_cos_form"
    else:
        raise InvalidParam(f"form must be 'sin_form' or 'cos_form', got {form!r}")
    c = _polar_cosine(trig, dv)
    gamma_plus = math.pi * (1.0 - c)
    return BerryResult(
        gamma_plus=gamma_plus,
        gamma_minus=-gamma_plus,
        gamma_zero=0.0,
        cos_alpha=c,
        solid_angle=_TAU * (1.0 - c),
        method=method,
        gamma_plus_lifted=gamma_plus,
        gamma_minus_lifted=-gamma_plus,
        pairing=None,
    )


def _loop_steps(steps) -> int:
    """The number of loop points as an int; fewer than MIN_STEPS is refused."""
    if int(steps) != steps or steps < MIN_STEPS:
        raise InvalidParam(f"steps must be an integer >= {MIN_STEPS}, got {steps!r}")
    return int(steps)


@functools.lru_cache(maxsize=1)
def _loop_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The loop phases 2 pi k / n and their drive factors e^{i phi}, as read-only arrays.

    Every loop of n steps shares them, so they are built once per step count; only the
    last count's grid is kept (3 MB at the command line's largest ``--steps``).
    """
    phis = _TAU * np.arange(n) / n
    up = _drive_factors(phis)
    phis.flags.writeable = up.flags.writeable = False
    return phis, up


def loop_eigenframes(theta, d, omega_drive=1.0, steps: int = 4096):
    """Eigenframes of H around one drive period.

    Returns (phis, values, vectors) where phis are the ``steps`` loop
    phases 2 pi k / steps (a copy of the shared grid, the caller's to
    write to), values[k] the ascending eigenvalues at phase
    phis[k] and vectors[k] the matching eigenvector columns.  The closing
    point phi = 2 pi is not duplicated; loop products wrap around.

    The frames come from ``matrices._closed_form_eigh``, not LAPACK: Smith's
    trigonometric eigenvalues (Commun. ACM 4(4):168, 1961) and, per
    eigenvalue, the largest cross product of two rows of H - lambda I,
    normalised (Kopp, Int. J. Mod. Phys. C 19:523, 2008).  A matrix whose
    computed gap is at most CLOSED_FORM_GAP_RTOL ||H||_F, or whose best cross
    product is at most CLOSED_FORM_CROSS_RTOL ||H||_F^2, falls back to
    ``np.linalg.eigh``.  Each vector is in its own gauge, which the
    Pancharatnam product does not see.
    """
    dp = DriveParams(theta=theta, d=d, omega_drive=omega_drive)
    phis, up = _loop_grid(_loop_steps(steps))
    values, vectors = _closed_form_eigh(_hamiltonian_row((dp.theta,), (dp.omega_drive,), up, dp.d, dp.hbar)[0, 0])
    return phis.copy(), values, vectors


def pancharatnam_phase(vectors: np.ndarray) -> float:
    """Gauge-invariant loop phase -arg of the cyclic product of overlaps.

    ``vectors`` holds one normalised state per loop point, shape (n, 3);
    the product multiplies <v_k | v_{k+1}> around the loop including the
    wrap-around factor <v_{n-1} | v_0>.  Per-point phase choices cancel
    between consecutive factors, so the result is independent of the
    eigensolver's gauge.  Where the product's magnitude underflows the
    smallest normal double or is not finite (as it can for thousands of
    states that are not close to each other), the phase is that of the
    product of the unit factors o / |o| instead.  Returns the phase in (-pi, pi].
    States that hold NaN or inf, or whose overlaps overflow, leave no phase:
    that raises ``InvalidParam``, naming the states that are not finite.
    """
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 3:
        raise InvalidParam(f"expected loop states of shape (n>=3, 3), got {v.shape}")
    with np.errstate(all="ignore"):
        # conj(v_k) v_{k+1} entrywise from two slices plus the wrap-around row, then the
        # three components added left to right: each overlap is a sum over one state.
        products = np.conjugate(v)
        products[:-1] *= v[1:]
        products[-1] *= v[0]
        overlaps = products[:, 0] + products[:, 1]
        overlaps += products[:, 2]
        magnitudes = np.abs(overlaps)
        if np.min(magnitudes) < _OVERLAP_FLOOR and np.isfinite(v).all():
            raise DegenerateSpectrum(
                "consecutive loop states became orthogonal; the discretisation lost a branch"
            )
        product = np.prod(overlaps)
        if not sys.float_info.min <= abs(product) < math.inf:
            product = np.prod(overlaps / magnitudes)
    phase = -float(np.angle(product))
    if math.isnan(phase):
        raise _nan_phase_error(v)
    return _wrap_phase(phase)


def _nan_phase_error(v: np.ndarray) -> InvalidParam:
    """Why the loop phase of the states ``v`` is NaN: the states that hold NaN or inf, or else overlaps that overflow."""
    bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
    if not bad.size:
        return InvalidParam("the overlaps of the loop states overflow; the states are far from unit length")
    shown = ", ".join(map(str, bad[:5].tolist())) + (", ..." if bad.size > 5 else "")
    return InvalidParam(f"{bad.size} of {len(v)} loop states hold NaN or inf: states {shown}")


def berry_wilson_loop(theta, d, omega_drive=1.0, steps: int = 4096) -> BerryResult:
    """Geometric phases from a discretised holonomy around one drive period.

    Diagonalises H at ``steps`` equally spaced phases and forms the
    Pancharatnam product per eigenvalue branch.  The outer branches are
    matched to the closed-form references set-wise (by circular distance),
    and the match actually observed is recorded in ``pairing``.  Raises
    DegenerateSpectrum where omega is 0 or subnormal (H vanishes) and
    where |cos(alpha)| <= 1e-6 (the outer levels meet).  The eigenvectors,
    and so the loop phases, do not depend on the scale of omega, so the
    guard tests omega and cos(alpha) apart, not their product.
    """
    ca = cos_alpha(theta, d)
    omega = as_real("omega_drive", omega_drive)
    if abs(omega) < sys.float_info.min:
        raise DegenerateSpectrum(f"omega_drive = {omega!r} makes H vanish; the branches are unresolvable")
    if abs(ca) <= DEGENERACY_GUARD:
        raise DegenerateSpectrum(f"|cos(alpha)| = {abs(ca):.3e} leaves the outer branches unresolvable")
    _, _, vectors = loop_eigenframes(theta, d, omega_drive=omega_drive, steps=steps)
    low, zero, high = (pancharatnam_phase(vectors[:, :, b]) for b in range(3))
    ref_plus = _wrap_phase(math.pi * (1.0 - ca))
    if abs(_wrap_phase(low - ref_plus)) <= abs(_wrap_phase(high - ref_plus)):
        gamma_plus, gamma_minus = low, high
        pairing = "gamma_plus=lowest_energy_branch"
    else:
        gamma_plus, gamma_minus = high, low
        pairing = "gamma_plus=highest_energy_branch"

    return BerryResult(
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        gamma_zero=zero,
        cos_alpha=ca,
        solid_angle=_TAU * (1.0 - ca),
        method="wilson_loop",
        gamma_plus_lifted=gamma_plus % _TAU,
        gamma_minus_lifted=-((-gamma_minus) % _TAU),
        pairing=pairing,
    )


#: K in the N-step loop's bias bound |berry_discrete - gamma_plus| <= K / N^2 + O(N^-4):
#: -N arg(1 - p + p exp(-i delta)) = 2 pi p - (2 pi)^3 p (1 - p) (1 - 2 p) / (6 N^2) + O(N^-4)
#: with p and delta as in ``berry_discrete``, and |p (1 - p) (1 - 2 p)| <= 1 / (6 sqrt(3)).  The
#: command line grades the loop at 2 K / N^2, which covers the O(N^-4) term and rounding.
LOOP_BIAS_K = _TAU**3 / (36.0 * math.sqrt(3.0))


def berry_discrete(theta, d, steps: int = 4096) -> float:
    """The exact gamma_plus of the ``steps``-point Wilson loop, in (-pi, pi].

    Only level 2 carries the drive phase, so H(phi) = D(phi) H(0) D(phi)^+
    and every step of the loop has the same overlap 1 - p + p exp(-i delta),
    with p = (1 - cos(alpha)) / 2 and delta = 2 pi / steps.  The loop phase
    is therefore -steps arg(1 - p + p exp(-i delta)); gamma_minus is its
    negative and gamma_zero is 0.
    """
    n = _loop_steps(steps)
    p = (1.0 - cos_alpha(theta, d)) / 2.0
    return _wrap_phase(-n * cmath.phase(1.0 - p + p * cmath.exp(-1j * _TAU / n)))


@refuse_overflow
def figure_table(theta_grid, d_values=SECTION_D_VALUES) -> tuple[list[float], list[float], Iterator[np.ndarray]]:
    """The cos-form gamma_plus over a (theta, d) grid, one d row at a time.

    Returns (thetas, ds, rows): both axes as sorted lists of floats, each
    value validated once, and an iterator whose j-th array is row j of the
    table, rows[j][i] = gamma_plus(thetas[i], ds[j]).  Each row is computed
    when it is taken, so the table is never held whole.  Every input is
    checked at the call: a non-finite value, a d below 1 or a d whose d^2
    overflows raises InvalidParam before any row is made.  The cosines are
    computed with ``math``, and each d row is ``spin._polar_cosine`` of their
    array, so every entry is bit-identical to the scalar closed form.
    """
    thetas = sorted(as_real("theta", t) for t in np.asarray(theta_grid, dtype=float).ravel())
    ds = sorted(as_real("d", dv) for dv in np.asarray(d_values, dtype=float).ravel())
    if ds and ds[0] < 1.0:
        raise InvalidParam(f"closed forms need d >= 1, got d = {ds[0]}")
    if ds and not math.isfinite(ds[-1] * ds[-1]):
        raise OverflowError(f"d = {ds[-1]}: d^2 is not finite")
    cosines = np.array([math.cos(th) for th in thetas])
    return thetas, ds, (math.pi * (1.0 - _polar_cosine(cosines, dv)) for dv in ds)


def figure_data(theta_grid, d_values=SECTION_D_VALUES) -> list[tuple[float, float, float]]:
    """Tabulate the cos-form gamma_plus over a (theta, d) grid.

    Returns rows (theta, d, gamma_plus) sorted by (d, theta) - the layout
    written to the figure CSV files.  Uses the closed form only, so any
    d >= 1 is admissible (including values below the golden ratio, where
    the Hamiltonian route does not exist).
    """
    thetas, ds, rows = figure_table(theta_grid, d_values)
    return [(th, dv, g) for dv, row in zip(ds, rows) for th, g in zip(thetas, row.tolist())]
