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

import cmath
import math
from dataclasses import astuple, dataclass

import numpy as np

from .algebra import DOMAIN_SLACK, GOLDEN_RATIO, AlgebraParams, _ea_stack, _eb_stack, _phase_weights, make_ea, make_eb
from .errors import BwmBerryError, DomainError, InvalidParam, NonUnimodular, PoleEncountered
from .matrices import as_real, rel_residual

#: |1 + beta^2 u v| below this counts as the velocity-addition pole.
POLE_TOL = 1e-12

#: | |z| - 1 | beyond this trips the internal unimodularity guard.
UNIMODULARITY_TOL = 1e-12

#: Tolerance of ``ybe.unimodularity``, the largest | |z| - 1 | of a sample's three phases.
UNIT_CIRCLE_TOL = 1e-13


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


def _compose(u, v, beta) -> tuple[np.ndarray, np.ndarray]:
    """The denominator 1 + beta^2 u v and the composition (u + v) / (1 + beta^2 u v), sample by sample.

    Float arithmetic in the order of the scalar formula; a sample whose
    arithmetic overflows, or whose denominator is 0, gets inf or nan.
    """
    with np.errstate(all="ignore"):
        den = 1.0 + beta * beta * u * v
        return den, (u + v) / den


def velocity_add(u, v, beta) -> float:
    """Relativistic composition (u + v) / (1 + beta^2 u v).

    Raises PoleEncountered when the denominator vanishes (velocities that
    compose to the limiting speed), and InvalidParam where the denominator
    or the composition leaves the double range.
    """
    den, w = _compose(np.array([as_real("u", u)]), as_real("v", v), as_real("beta", beta))
    den, w = float(den[0]), float(w[0])
    if abs(den) < POLE_TOL:
        raise PoleEncountered(f"velocity addition pole: 1 + beta^2*u*v = {den:.3e}")
    if not (math.isfinite(den) and math.isfinite(w)):
        raise InvalidParam("velocity_add overflows double precision at these parameters")
    return w


def _complex(re, im) -> np.ndarray:
    """The complex array with real parts ``re`` and imaginary parts ``im``."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _z_stack(x, beta, epsilon, d) -> np.ndarray:
    """z(x) of each sample, with the bits of the scalar formula in Python arithmetic.

    The scalar formula is (a + it) / (a - it) with a = b^2 x^2 + 1,
    t = 2 e b x g and g = sqrt(d^2/(4 - d^2)).  b ** 2 and x ** 2 are Python
    powers (libm ``pow``, which ``np.float_power`` calls and a product
    ``x * x`` does not always match), t is a real product (a zero t is +0, as
    the formula's complex sums leave it), and the quotient is CPython's
    complex division (Smith's algorithm) written out for the conjugate
    operands: it divides by the larger of |a| and |t|.  numpy's complex
    divide rounds differently and puts z further from the unit circle: on
    the benchmark's verify sweep at seed 101 its largest | |z| - 1 |, which
    the ``unimodularity`` lines report, is 3.3e-16 against Smith's 2.2e-16.
    A sample whose arithmetic overflows gets a non-finite z.
    """
    with np.errstate(all="ignore"):
        g = np.sqrt(d * d / (4.0 - d * d))
        a = np.float_power(beta, 2.0) * np.float_power(x, 2.0) + 1.0
        t = 2.0 * epsilon * beta * x * g + 0.0
        by_a = a >= np.abs(t)  # a >= 1
        r = np.where(by_a, t / a, a / t)
        den = np.where(by_a, a + t * r, a * r + t)
        return _complex(np.where(by_a, a - t * r, a * r - t) / den, np.where(by_a, t + a * r, t * r + a) / den)


def z_of_u(u, s: SpectralParams) -> complex:
    """Unimodular phase z(u) = e^{-2i*theta(u)} as a rational function of u.

    Returned raw (no re-normalisation), so callers can verify that the
    modulus really is 1.  The one-sample case of ``_z_stack``; raises
    InvalidParam where beta^2 u^2 leaves the double range, which makes z
    non-finite.
    """
    z = complex(_z_stack(np.array([as_real("u", u)]), s.beta, s.epsilon, s.d)[0])
    if not cmath.isfinite(z):
        raise InvalidParam("z_of_u overflows double precision at these parameters")
    return z


def _checked_z(u, s: SpectralParams) -> complex:
    """z(u), after the internal unimodularity guard."""
    z = z_of_u(u, s)
    defect = abs(abs(z) - 1.0)
    if not defect <= UNIMODULARITY_TOL:
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


def _angle_form(thetas, E: np.ndarray, d: float) -> np.ndarray:
    """e^{i*theta} I - (2i sin(theta)/d) E at every theta of a sequence of floats, as a
    (len(thetas), 3, 3) stack; e^{i*theta} and the weight are Python complex arithmetic."""
    weights = [(complex(math.cos(th), math.sin(th)), 2j * math.sin(th) / d) for th in thetas]
    phase, f = np.array(weights, dtype=complex).reshape(-1, 2).T[:, :, None, None]
    return phase * np.eye(3, dtype=complex) - f * E


def make_r_theta(theta, p: AlgebraParams) -> UnitaryRPair:
    """Angle form of the family: e^{i*theta} I - (2i sin(theta)/d) E for both projectors."""
    th = as_real("theta", theta)
    return UnitaryRPair(a=_angle_form((th,), make_ea(p), p.d)[0], b=_angle_form((th,), make_eb(p), p.d)[0], theta=th)


def _r_weights(z: np.ndarray, d) -> tuple[np.ndarray, np.ndarray]:
    """The weights rho = e^{-i*arg(z)/2} and F = (z - 1)/d of R = rho (I + F E), for each z of an array.

    Each has the bits of ``np.exp(-0.5j * np.angle(z))`` and ``(z - 1) / d``
    on one Python complex z from ``_z_stack``: F is taken by parts,
    ((Re z - 1)/d, Im z/d), which is CPython's division by a real d > 0
    wherever Im z is not -0, and ``_z_stack`` never gives -0 there.
    """
    return np.exp(-0.5j * np.angle(z)), _complex((z.real - 1.0) / d, z.imag / d)


def _dress(rho: np.ndarray, f: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """rho (I + F E) for each rho, F and E of the (n, 3, 3) stack ``projectors``."""
    return rho[:, None, None] * (np.eye(3, dtype=complex) + f[:, None, None] * projectors)


def make_r_u(u, s: SpectralParams) -> UnitaryRPair:
    """Velocity form of the family, built from the rational phase z(u).

    Independent arithmetic from make_r_theta (weights F = (z-1)/d and
    rho = e^{-i*arg(z)/2} instead of sines), so agreement between the two
    constructions is a meaningful cross-check rather than a tautology.
    """
    z = _checked_z(u, s)
    p = AlgebraParams.tla(s.d, s.phi1, s.phi2)
    rho, f = _r_weights(np.array([z]), s.d)
    return UnitaryRPair(
        a=_dress(rho, f, make_ea(p)[None])[0],
        b=_dress(rho, f, make_eb(p)[None])[0],
        theta=-float(np.angle(z)) / 2.0,
    )


def _exchange_setup(s: SpectralParams) -> tuple[complex, complex, complex]:
    """z(u), z(v) and z(u*v) of one sample, raising in the order of building R(u), R(v)
    and R(u*v) one by one: the velocity pole, z(u), the projector domain, z(v), z(u*v)."""
    w = velocity_add(s.u, s.v, s.beta)
    zu = _checked_z(s.u, s)
    AlgebraParams.tla(s.d, s.phi1, s.phi2)
    return zu, _checked_z(s.v, s), _checked_z(w, s)


def _exchange_columns(params: np.ndarray) -> tuple[tuple[str, ...], list]:
    """The exchange lines of the samples given as the rows (u, v, beta, epsilon, d, phi1, phi2)
    of a float (n, 7) array, each row a valid ``SpectralParams``, in one stacked evaluation.

    Returns the line names ``("exchange", "unimodularity")`` and, per sample,
    ``[residual, defect]`` or the ``BwmBerryError`` that the sample's set-up
    raised (velocity pole, phase off the unit circle or out of the double
    range, parameter out of domain).  The residual compares A(u) B(u*v) A(v)
    with B(v) A(u*v) B(u); the defect is the largest | |z| - 1 | of z(u),
    z(v) and z(u*v), the measure of the unimodularity guard.  The set-up is
    array arithmetic over the samples: u*v and its pole test (``_compose``),
    the three phases (``_z_stack``) with the guard, the projector domain and
    the weights (``_r_weights``).  A sample that fails one of those tests, or
    has a non-finite value, is set up on its own (``_exchange_setup``), which
    raises its error.  The projectors of all samples are built as (n, 3, 3)
    stacks (``algebra._ea_stack``, ``algebra._eb_stack``), and the R matrices
    are dressed, multiplied and compared with stacked operations, which give
    each sample the same bits as evaluating it alone.
    """
    u, v, beta, epsilon, d, phi1, phi2 = params.T
    den, w = _compose(u, v, beta)
    z = np.stack([_z_stack(x, beta, epsilon, d) for x in (u, v, w)], axis=1)
    with np.errstate(invalid="ignore"):
        defect = np.abs(np.hypot(z.real, z.imag) - 1.0)
        ok = (np.abs(den) >= POLE_TOL) & np.isfinite(den) & np.isfinite(w) & (d >= GOLDEN_RATIO - DOMAIN_SLACK)
        ok &= np.all(defect <= UNIMODULARITY_TOL, axis=1)
    errors = {}
    for i in np.flatnonzero(~ok).tolist():
        try:
            _exchange_setup(SpectralParams(*params[i].tolist()))
        except BwmBerryError as exc:
            errors[i] = exc
    keep = np.ones(len(params), dtype=bool)
    keep[list(errors)] = False
    zs, dk = z[keep], d[keep]
    entries = _phase_weights(dk, phi1[keep], phi2[keep])
    ea, eb = _ea_stack(entries), _eb_stack(entries)
    rho, f = _r_weights(zs, dk[:, None])
    (ua, ub), (va, vb), (wa, wb) = ((_dress(rho[:, k], f[:, k], ea), _dress(rho[:, k], f[:, k], eb)) for k in range(3))
    lines = np.stack([rel_residual(ua @ wb @ va, vb @ wa @ ub), np.max(defect[keep], axis=1)], axis=1)
    results = iter(lines.tolist())
    return ("exchange", "unimodularity"), [errors[i] if i in errors else next(results) for i in range(len(params))]


def ybe_residual(s: SpectralParams) -> float:
    """Residual of the exchange identity at the sample point.

    Compares A(u) B(u*v) A(v) against B(v) A(u*v) B(u), where u*v is the
    relativistic composition of the two velocities.  Machine-zero residual
    is the signature that the family solves the braid-type exchange
    relation for every admissible parameter choice.  The one-sample case
    of ``_exchange_columns``.
    """
    _, (result,) = _exchange_columns(np.array([astuple(s)], dtype=float))
    if isinstance(result, BwmBerryError):
        raise result
    return result[0]
