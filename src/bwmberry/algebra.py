"""Rank-3 representation of the two-generator Birman-Wenzl-Murakami algebra.

The representation carries a braid pair (A, B) and a Temperley-Lieb pair
(E_A, E_B) on C^3.  E_A is diagonal, E_B is its conjugate by a fixed
unitary U, and both are Hermitian rank-1 projectors up to the loop value
d.  Two parameter modes exist:

* coupled mode - everything is driven by a single positive braid
  parameter q, with loop value d = q + 1 + 1/q, skein weight
  omega = q - 1/q and braid eigenvalue sigma = 1/q^2;
* free-d mode - only the Temperley-Lieb pair is available, for any
  d at or above the golden ratio (below it the off-diagonal projector
  would pick up complex entries and stop being Hermitian).

``check_tla``, ``check_braid`` and ``check_bwm_suite`` turn the defining
identities into per-line residual reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam
from .matrices import _inverse_stack, as_matrix3, as_real, dagger, inverse, refuse_overflow, rel_residual

#: Smallest loop value d for which the off-diagonal projector stays real.
GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

#: Slack applied to domain comparisons so the golden-ratio boundary itself
#: is admissible despite floating-point representation error.
DOMAIN_SLACK = 1e-12

#: |omega| below this switches the suite to its degenerate (q = 1) form.
DEGENERATE_OMEGA = 1e-12

#: Tolerance of the identities that hold exactly up to rounding: transport, unitarity, Temperley-Lieb.
EXACT_TOL = 1e-12

#: Tolerance of the relation lines, the BWM suite's and the braid identity.  Not EXACT_TOL:
#: clean ``slide_ba`` residuals reach 5.56e-12 at q = 0.01.
RELATION_TOL = 1e-10


def d_of_q(q) -> float:
    """Loop value of the coupled mode, d = q + 1 + 1/q."""
    qv = as_real("q", q)
    if qv == 0.0:
        raise InvalidParam("q must be nonzero")
    return qv + 1.0 + 1.0 / qv


def d_topological(omega, sigma) -> float:
    """Loop value expressed through the skein weight and braid eigenvalue.

    d = 1 - (sigma - 1/sigma) / omega.  Undefined at omega = 0, where the
    skein relation degenerates.
    """
    w = as_real("omega", omega)
    s = as_real("sigma", sigma)
    if w == 0.0:
        raise InvalidParam("omega must be nonzero; the skein relation degenerates at omega = 0")
    if s == 0.0:
        raise InvalidParam("sigma must be nonzero")
    return 1.0 - (s - 1.0 / s) / w


@dataclass(frozen=True)
class AlgebraParams:
    """Validated parameter set for the representation.

    ``q is None`` selects free-d mode (Temperley-Lieb pair only); otherwise
    d must equal q + 1 + 1/q and the braid pair becomes available.  phi1
    and phi2 are the free phases of the off-diagonal blocks.
    """

    d: float
    phi1: float = 0.0
    phi2: float = 0.0
    q: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", as_real("d", self.d))
        object.__setattr__(self, "phi1", as_real("phi1", self.phi1))
        object.__setattr__(self, "phi2", as_real("phi2", self.phi2))
        if self.q is not None:
            qv = as_real("q", self.q)
            object.__setattr__(self, "q", qv)
            if abs(self.d - d_of_q(qv)) > DOMAIN_SLACK * max(1.0, abs(self.d)):
                raise InvalidParam(
                    f"coupled mode requires d = q + 1 + 1/q; got d = {self.d} with q = {qv}"
                )
        if self.d < GOLDEN_RATIO - DOMAIN_SLACK:
            raise InvalidParam(
                f"d = {self.d} is below the golden ratio (1+sqrt(5))/2; "
                "the projector root sqrt(d*d - d - 1) would be imaginary"
            )
        if not math.isfinite(self.d * self.d):
            raise InvalidParam(f"d = {self.d} overflows double precision: d*d is not finite")

    @classmethod
    def coupled(cls, q, phi1=0.0, phi2=0.0) -> "AlgebraParams":
        """Parameters driven by a positive braid parameter q."""
        qv = as_real("q", q)
        if qv <= 0.0:
            raise InvalidParam(f"coupled mode needs q > 0, got {qv}")
        return cls(d=d_of_q(qv), phi1=phi1, phi2=phi2, q=qv)

    @classmethod
    def tla(cls, d, phi1=0.0, phi2=0.0) -> "AlgebraParams":
        """Free-d parameters; only the Temperley-Lieb pair is defined."""
        return cls(d=d, phi1=phi1, phi2=phi2, q=None)

    @property
    def coupled_mode(self) -> bool:
        return self.q is not None

    @property
    def omega_skein(self) -> float:
        """Skein weight q - 1/q (coupled mode only)."""
        if self.q is None:
            raise InvalidParam("omega_skein needs coupled mode (q is None)")
        return self.q - 1.0 / self.q

    @property
    @refuse_overflow
    def sigma(self) -> float:
        """Braid eigenvalue on the projector, 1/q^2 (coupled mode only)."""
        if self.q is None:
            raise InvalidParam("sigma needs coupled mode (q is None)")
        return self.q ** -2


def _offdiag_root(d: float) -> float:
    # d*d - d - 1 can round to a tiny negative exactly at the golden ratio.
    return math.sqrt(max(0.0, d * d - d - 1.0))


@functools.partial(refuse_overflow, name="make_b")
def _braid_weights(q: float, d: float) -> tuple:
    """The real weights of B's entries, in Python float arithmetic, where q ** 4 overflowing or
    underflowing to 0 in a denominator raises InvalidParam naming make_b."""
    s, rd = _offdiag_root(d), math.sqrt(d)
    return (
        1.0 / (q ** 4 * (d - 1.0) * d),
        s / (d * q),
        -s / (q * q * (d - 1.0) * rd),
        q * q / d,
        q / rd,
        (d - 2.0) / (d - 1.0),
    )


def _phase_weights(d, phi1, phi2) -> tuple:
    """The entries shared by E_B, U and B at every phase pair (phi1[k], phi2[k]), as arrays.

    They are d, sqrt(d^2 - d - 1), sqrt(d), e^(i phi1), e^(i phi2) and
    e^(i(phi1 + phi2)), with ``d`` one loop value or one per pair.  The
    ``_*_stack`` builders turn them into (n, 3, 3) stacks, of which
    ``make_eb``, ``make_u`` and ``make_b`` are the one-pair case, and each
    matrix of a stack has the bits of building its pair alone: the real
    weights are IEEE float arithmetic, the phase factors numpy's complex
    exp, and each weight meets a phase factor in a multiply or divide that
    numpy's array loops round as its scalar arithmetic does (a real times a
    complex number has no cross term for a fused multiply-add to round
    otherwise).
    """
    d = np.asarray(d, dtype=float)
    phi1, phi2 = (np.atleast_1d(np.asarray(phi, dtype=float)) for phi in (phi1, phi2))
    s = np.sqrt(np.maximum(0.0, d * d - d - 1.0))
    return d, s, np.sqrt(d), np.exp(1j * phi1), np.exp(1j * phi2), np.exp(1j * (phi1 + phi2))


def _stack3(rows) -> np.ndarray:
    """The complex (..., 3, 3) stack whose entry (i, j) is rows[i][j], a number or an array."""
    out = np.empty(np.broadcast_shapes(*(np.shape(x) for row in rows for x in row)) + (3, 3), dtype=complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def _ea_stack(weights) -> np.ndarray:
    d = weights[0]
    return _stack3([[0.0, 0.0, 0.0], [0.0, d, 0.0], [0.0, 0.0, 0.0]])


def _eb_stack(weights) -> np.ndarray:
    d, s, rd, e1, e2, e12 = weights
    return _stack3(
        [
            [(d * d - d - 1.0) / d, s / d * e1, -s / rd * e12],
            [s / d / e1, 1.0 / d, -e2 / rd],
            [-s / rd / e12, -1.0 / e2 / rd, 1.0],
        ]
    )


def _u_stack(weights) -> np.ndarray:
    d, s, rd, e1, e2, e12 = weights
    return _stack3(
        [
            [1.0 / ((d - 1.0) * d), -s / d * e1, -s / (rd * (d - 1.0)) * e12],
            [s / d / e1, -1.0 / d, e2 / rd],
            [s / (rd * (d - 1.0)) / e12, 1.0 / e2 / rd, -(d - 2.0) / (d - 1.0)],
        ]
    )


def _b_stack(weights, q: float) -> np.ndarray:
    """B at every pair of weights of one loop value d, the coupled loop value of q."""
    d, _, _, e1, e2, e12 = weights
    w00, w01, w02, w11, w12, w22 = _braid_weights(q, float(d))
    return _stack3([[w00, w01 * e1, w02 * e12], [w01 / e1, w11, w12 * e2], [w02 / e12, w12 / e2, w22]])


def make_ea(p: AlgebraParams) -> np.ndarray:
    """Diagonal Temperley-Lieb projector, diag(0, d, 0): ``_ea_stack`` at the one loop value d."""
    return _ea_stack((p.d,))


def make_eb(p: AlgebraParams) -> np.ndarray:
    """Off-diagonal Temperley-Lieb projector (Hermitian, d times a rank-1 projector)."""
    return _eb_stack(_phase_weights(p.d, p.phi1, p.phi2))[0]


def make_u(p: AlgebraParams) -> np.ndarray:
    """Unitary that conjugates the diagonal pair into the off-diagonal pair."""
    return _u_stack(_phase_weights(p.d, p.phi1, p.phi2))[0]


@refuse_overflow
def make_a(p: AlgebraParams) -> np.ndarray:
    """Diagonal braid generator, diag(q, 1/q^2, -1/q).  Coupled mode only."""
    if p.q is None:
        raise InvalidParam("make_a needs coupled mode: the braid pair carries q")
    q = p.q
    return np.diag([q, q ** -2, -1.0 / q]).astype(complex)


def make_b(p: AlgebraParams) -> np.ndarray:
    """Off-diagonal braid generator, the conjugate of make_a by make_u."""
    if p.q is None:
        raise InvalidParam("make_b needs coupled mode: the braid pair carries q")
    return _b_stack(_phase_weights(p.d, p.phi1, p.phi2), p.q)[0]


@dataclass(frozen=True)
class RelationCheck:
    """One defining identity: its name, relative residual, and verdict."""

    name: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class RelationReport:
    """Residuals of a family of defining identities at a common tolerance."""

    checks: tuple[RelationCheck, ...]
    tolerance: float
    notes: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def failures(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)

    def residual(self, name: str) -> float:
        for c in self.checks:
            if c.name == name:
                return c.residual
        raise KeyError(name)


#: The lines that ``_bwm_lines`` builds after the suite: B and E_B as the
#: U-conjugates of A and E_A, and U unitary.
TRANSPORT_LINES = ("transport_b", "transport_eb", "unitary_u")


def _pair_residuals(lines, n: int) -> tuple[tuple[str, ...], list]:
    """The names of ``(name, lhs, rhs)`` lines and, per pair, their residuals from one stacked ``rel_residual``.

    Each lhs and rhs is one 3x3 matrix, the same at every pair, or an
    (n, 3, 3) stack; the entry of a pair is the list of its residuals, one
    per line.
    """
    names, lhs, rhs = zip(*lines)
    lhs, rhs = (np.stack([np.broadcast_to(m, (n, 3, 3)) for m in side], axis=1) for side in (lhs, rhs))
    return names, rel_residual(lhs, rhs).tolist()


def _build_report(lines, tolerance: float, notes: tuple[str, ...] = ()) -> RelationReport:
    """The report of one pair's ``(name, lhs, rhs)`` lines."""
    names, (residuals,) = _pair_residuals(lines, 1)
    checks = tuple(RelationCheck(name=n, residual=r, passed=r < tolerance) for n, r in zip(names, residuals))
    return RelationReport(checks=checks, tolerance=float(tolerance), notes=notes)


def _tla_lines(ea, eb, d: float) -> list:
    return [
        ("square_a", ea @ ea, d * ea),
        ("square_b", eb @ eb, d * eb),
        ("sandwich_a", ea @ eb @ ea, ea),
        ("sandwich_b", eb @ ea @ eb, eb),
    ]


def check_tla(ea, eb, d, tolerance: float = EXACT_TOL) -> RelationReport:
    """Check the Temperley-Lieb identities for an arbitrary pair of matrices.

    Lines: E^2 = d E for both projectors and both three-factor sandwich
    identities.  The matrices are taken as given (no Hermiticity demanded),
    so the report can diagnose broken inputs.  The one-pair case of
    ``_tla_row``'s evaluation.
    """
    return _build_report(_tla_lines(as_matrix3(ea), as_matrix3(eb), as_real("d", d)), tolerance)


def _tla_row(p: AlgebraParams, phi1, phi2) -> tuple[tuple[str, ...], list]:
    """``_pair_residuals`` of the Temperley-Lieb lines at every phase pair of p's loop value."""
    eb = _eb_stack(_phase_weights(p.d, phi1, phi2))
    return _pair_residuals(_tla_lines(make_ea(p), eb, p.d), len(eb))


def check_braid(a, b, tolerance: float = RELATION_TOL) -> RelationReport:
    """Check the braid identity ABA = BAB for an arbitrary pair of matrices."""
    a = as_matrix3(a)
    b = as_matrix3(b)
    return _build_report([("braid", a @ b @ a, b @ a @ b)], tolerance)


def check_bwm_suite(p: AlgebraParams, tolerance: float = RELATION_TOL) -> RelationReport:
    """Residuals for every defining identity of the two-generator algebra.

    Requires coupled mode.  Near q = 1 the skein weight vanishes: the skein
    lines then degenerate to the involution statements A = A^-1, B = B^-1
    (still checked, as written), and the projector-square lines fall back to
    the coupled loop value because the omega-quotient form is 0/0 there; the
    report notes the substitution.  The one-pair case of ``_bwm_row``,
    without its transport lines.
    """
    lines, errors = _bwm_lines(p, p.phi1, p.phi2)
    if errors:
        raise errors[0]
    return _build_report(lines[: -len(TRANSPORT_LINES)], tolerance, _skein_weights(p)[3])


def _skein_weights(p: AlgebraParams) -> tuple:
    """omega, sigma, the loop value of the projector squares and the suite's notes."""
    omega = p.omega_skein
    sigma = p.sigma
    if abs(omega) < DEGENERATE_OMEGA:
        notes = (
            "omega_skein ~ 0: skein lines reduce to the involutions A = A^-1, B = B^-1; "
            "projector squares checked against the coupled loop value",
        )
        return omega, sigma, p.d, notes
    return omega, sigma, d_topological(omega, sigma), ()


def _bwm_lines(p: AlgebraParams, phi1, phi2) -> tuple[list, dict]:
    """The ``(name, lhs, rhs)`` lines of the BWM suite and the TRANSPORT_LINES at every pair, stacked.

    Returns the lines and the errors, by pair index, of a B or U that
    ``inverse`` refuses at that pair; where both are refused, B's error.  An
    error that depends on q alone (make_a, make_b, A refused by ``inverse``)
    raises.  p's own phases are not used.
    """
    if not p.coupled_mode:
        raise InvalidParam("check_bwm_suite needs coupled mode (construct via AlgebraParams.coupled)")
    a = make_a(p)
    weights = _phase_weights(p.d, phi1, phi2)
    ea, eb, b = make_ea(p), _eb_stack(weights), _b_stack(weights, p.q)
    ident = np.eye(3, dtype=complex)
    ai = inverse(a)
    bi, b_errors = _inverse_stack(b)
    omega, sigma, dtop, _ = _skein_weights(p)
    u = _u_stack(weights)
    ui, u_errors = _inverse_stack(u)
    lines = [
        ("skein_a", a - ai, omega * (ident - ea)),
        ("skein_b", b - bi, omega * (ident - eb)),
        ("braid", a @ b @ a, b @ a @ b),
        ("sandwich_a", ea @ eb @ ea, ea),
        ("sandwich_b", eb @ ea @ eb, eb),
        ("eigen_a_left", ea @ a, sigma * ea),
        ("eigen_a_right", a @ ea, sigma * ea),
        ("eigen_b_left", eb @ b, sigma * eb),
        ("eigen_b_right", b @ eb, sigma * eb),
        ("slide_ab", a @ b @ ea, eb @ a @ b),
        ("absorb_ab", eb @ a @ b, eb @ ea),
        ("slide_ba", b @ a @ eb, ea @ b @ a),
        ("absorb_ba", ea @ b @ a, ea @ eb),
        ("conjugate_a", a @ eb @ a, bi @ ea @ bi),
        ("conjugate_b", b @ ea @ b, ai @ eb @ ai),
        ("project_right_a", ea @ eb @ a, ea @ bi),
        ("project_right_b", eb @ ea @ b, eb @ ai),
        ("project_left_a", a @ eb @ ea, bi @ ea),
        ("project_left_b", b @ ea @ eb, ai @ eb),
        ("cross_eigen_a", ea @ b @ ea, ea / sigma),
        ("cross_eigen_b", eb @ a @ eb, eb / sigma),
        ("square_a", ea @ ea, dtop * ea),
        ("square_b", eb @ eb, dtop * eb),
        ("transport_b", b, u @ a @ ui),
        ("transport_eb", eb, u @ ea @ ui),
        ("unitary_u", dagger(u) @ u, ident),
    ]
    return lines, {**u_errors, **b_errors}  # B's error first: the suite inverts B before the transport lines invert U


def _bwm_row(p: AlgebraParams, phi1, phi2) -> tuple[tuple[str, ...], list]:
    """The BWM suite and the transport lines at every phase pair of p's q, in one stacked evaluation.

    Returns the line names (the suite's, then TRANSPORT_LINES) and, per
    pair, the residuals of those lines or the error of a B or U that
    ``inverse`` refuses at that pair.  An error that depends on q alone
    raises, as it would at every pair, and so does a residual out of the
    double range, whose magnitude does not depend on the phases.
    """
    lines, errors = _bwm_lines(p, phi1, phi2)
    names, results = _pair_residuals(lines, np.size(phi1))
    return names, [errors.get(k, r) for k, r in enumerate(results)]
