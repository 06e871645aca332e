"""Yang-Baxterization of the Temperley-Lieb pair.

A one-parameter family of unitaries is obtained by dressing each
projector with a velocity-dependent weight,

    R(u) = rho(u) * (I + F(u) E),        F(u) = (z(u) - 1) / d,

where z(u) is a rational unimodular phase in the velocity u and
rho(u) = e^{i*theta(u)} normalises the determinant phase.  Writing
z = e^{-2i*theta} the same family reads

    R(theta) = e^{i*theta} I - (2i sin(theta) / d) E,

which is the form used for checks against the angle parametrisation.
The braid-like exchange identity holds with velocities composing like
relativistic velocity addition with limiting speed 1/beta.

Real angles require 0 < d < 2 (the anisotropy root g blows up at d = 2),
while the projectors themselves need d at or above the golden ratio, so
the full pipeline lives on the window [golden ratio, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraParams, _ea_stack, _eb_stack, _phase_weights, make_ea, make_eb
from .errors import BwmBerryError, DomainError, InvalidParam, NonUnimodular, PoleEncountered
from .matrices import as_real, refuse_overflow, rel_residual

#: |1 + beta^2 u v| below this counts as the velocity-addition pole.
POLE_TOL = 1e-12

#: | |z| - 1 | beyond this trips the internal unimodularity guard.
UNIMODULARITY_TOL = 1e-12


@dataclass(frozen=True)
class SpectralParams:
    """Velocity-family parameters: a sample point and its environment.

    ``u`` and ``v`` are the two velocities entering the exchange identity,
    ``beta`` the inverse limiting velocity, ``epsilon`` a sign choosing the
    rotation sense, ``d`` the loop value and ``phi1``/``phi2`` the projector
    phases.  Real angles need 0 < d < 2; building the actual R matrices
    additionally needs d at or above the golden ratio.
    """

    u: float
    v: float
    beta: float
    epsilon: int
    d: float
    phi1: float = 0.0
    phi2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("u", "v", "beta", "d", "phi1", "phi2"):
            object.__setattr__(self, name, as_real(name, getattr(self, name)))
        if self.epsilon not in (-1, 1):
            raise InvalidParam(f"epsilon must be +1 or -1, got {self.epsilon!r}")
        if not 0.0 < self.d < 2.0:
            raise DomainError(
                f"real angles need 0 < d < 2, got d = {self.d}; "
                "the anisotropy g = sqrt(d^2/(4-d^2)) leaves the real line there"
            )


def velocity_add(u, v, beta) -> float:
    """Relativistic composition (u + v) / (1 + beta^2 u v).

    Raises PoleEncountered when the denominator vanishes (velocities that
    compose to the limiting speed).
    """
    uv = as_real("u", u)
    vv = as_real("v", v)
    bv = as_real("beta", beta)
    den = 1.0 + bv * bv * uv * vv
    if abs(den) < POLE_TOL:
        raise PoleEncountered(f"velocity addition pole: 1 + beta^2*u*v = {den:.3e}")
    return (uv + vv) / den


@refuse_overflow
def z_of_u(u, s: SpectralParams) -> complex:
    """Unimodular phase z(u) = e^{-2i*theta(u)} as a rational function of u.

    Returned raw (no re-normalisation), so callers can verify that the
    modulus really is 1.
    """
    uv = as_real("u", u)
    d = s.d
    g = math.sqrt(d * d / (4.0 - d * d))
    num = s.beta ** 2 * uv ** 2 + 2j * s.epsilon * s.beta * uv * g + 1.0
    den = s.beta ** 2 * uv ** 2 - 2j * s.epsilon * s.beta * uv * g + 1.0
    return complex(num / den)


def _checked_z(u, s: SpectralParams) -> complex:
    """z(u), after the internal unimodularity guard."""
    z = z_of_u(u, s)
    defect = abs(abs(z) - 1.0)
    if defect > UNIMODULARITY_TOL:
        raise NonUnimodular(f"|z| deviates from 1 by {defect:.3e}")
    return z


def theta_of_u(u, s: SpectralParams) -> float:
    """Angle of the velocity-u member of the family, in (-pi/2, pi/2].

    theta = -arg(z)/2 on the principal branch.  Trips NonUnimodular if the
    rational phase drifts off the unit circle (an internal-consistency
    guard, not a user-facing domain check).
    """
    return -float(np.angle(_checked_z(u, s))) / 2.0


@dataclass(frozen=True)
class UnitaryRPair:
    """The two dressed unitaries (one per projector) at a common angle."""

    a: np.ndarray
    b: np.ndarray
    theta: float


def make_r_theta(theta, p: AlgebraParams) -> UnitaryRPair:
    """Angle form of the family: e^{i*theta} I - (2i sin(theta)/d) E for both projectors."""
    th = as_real("theta", theta)
    ident = np.eye(3, dtype=complex)
    f = 2j * math.sin(th) / p.d
    phase = complex(math.cos(th), math.sin(th))
    return UnitaryRPair(
        a=phase * ident - f * make_ea(p),
        b=phase * ident - f * make_eb(p),
        theta=th,
    )


def _r_weights(z: complex, d: float) -> tuple[complex, complex]:
    """The weights rho = e^{-i*arg(z)/2} and F = (z - 1)/d of R = rho (I + F E)."""
    return np.exp(-0.5j * np.angle(z)), (z - 1.0) / d


def _dress(weights, projectors: np.ndarray) -> np.ndarray:
    """rho (I + F E) for each (rho, F) of ``weights`` and E of the (n, 3, 3) stack ``projectors``."""
    rho, f = (np.array(w)[:, None, None] for w in zip(*weights))
    return rho * (np.eye(3, dtype=complex) + f * projectors)


def make_r_u(u, s: SpectralParams) -> UnitaryRPair:
    """Velocity form of the family, built from the rational phase z(u).

    Independent arithmetic from make_r_theta (weights F = (z-1)/d and
    rho = e^{-i*arg(z)/2} instead of sines), so agreement between the two
    constructions is a meaningful cross-check rather than a tautology.
    """
    z = _checked_z(u, s)
    p = AlgebraParams.tla(s.d, s.phi1, s.phi2)
    weights = [_r_weights(z, s.d)]
    return UnitaryRPair(
        a=_dress(weights, make_ea(p)[None])[0],
        b=_dress(weights, make_eb(p)[None])[0],
        theta=-float(np.angle(z)) / 2.0,
    )


def exchange_residuals(samples) -> list:
    """Exchange-identity residuals of a sequence of samples, in one stacked evaluation.

    Each entry is ``(residual, (z(u), z(v), z(u*v)))``, or the
    ``BwmBerryError`` that the sample's scalar set-up raised (velocity
    pole, phase off the unit circle, parameter out of domain).  The
    residual compares A(u) B(u*v) A(v) with B(v) A(u*v) B(u); the
    projectors of all samples are built as (n, 3, 3) stacks
    (``algebra._ea_stack``, ``algebra._eb_stack``), and the R matrices are dressed,
    multiplied and compared with stacked operations, which give each sample
    the same bits as evaluating it alone.
    """
    out, weights, points = [], [], []
    for s in samples:
        # The errors come in the order of building R(u), R(v), R(u*v) one by
        # one: the velocity pole, z(u), the projector domain, z(v), z(u*v).
        try:
            w = velocity_add(s.u, s.v, s.beta)
            zu = _checked_z(s.u, s)
            p = AlgebraParams.tla(s.d, s.phi1, s.phi2)
            zs = (zu, _checked_z(s.v, s), _checked_z(w, s))
        except BwmBerryError as exc:
            out.append(exc)
            continue
        out.append(zs)
        weights.append([_r_weights(z, s.d) for z in zs])
        points.append((p.d, p.phi1, p.phi2))
    if not weights:
        return out
    entries = _phase_weights(*zip(*points))
    ea, eb = _ea_stack(entries), _eb_stack(entries)
    (ua, ub), (va, vb), (wa, wb) = ((_dress(w, ea), _dress(w, eb)) for w in zip(*weights))
    residuals = iter(rel_residual(ua @ wb @ va, vb @ wa @ ub).tolist())
    return [r if isinstance(r, BwmBerryError) else (next(residuals), r) for r in out]


def ybe_residual(s: SpectralParams) -> float:
    """Residual of the exchange identity at the sample point.

    Compares A(u) B(u*v) A(v) against B(v) A(u*v) B(u), where u*v is the
    relativistic composition of the two velocities.  Machine-zero residual
    is the signature that the family solves the braid-type exchange
    relation for every admissible parameter choice.  The one-sample case
    of ``exchange_residuals``.
    """
    (result,) = exchange_residuals([s])
    if isinstance(result, BwmBerryError):
        raise result
    return result[0]
