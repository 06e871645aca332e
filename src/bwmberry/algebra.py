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

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam
from .matrices import as_matrix3, as_real, inverse, refuse_overflow, rel_residual

#: Smallest loop value d for which the off-diagonal projector stays real.
GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

#: Slack applied to domain comparisons so the golden-ratio boundary itself
#: is admissible despite floating-point representation error.
DOMAIN_SLACK = 1e-12

#: |omega| below this switches the suite to its degenerate (q = 1) form.
DEGENERATE_OMEGA = 1e-12


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


def _projector_weights(p: AlgebraParams) -> tuple:
    """The entries shared by E_B, U and B: sqrt(d^2-d-1), sqrt(d), e^(i phi1), e^(i phi2), e^(i(phi1+phi2))."""
    return (
        _offdiag_root(p.d),
        math.sqrt(p.d),
        np.exp(1j * p.phi1),
        np.exp(1j * p.phi2),
        np.exp(1j * (p.phi1 + p.phi2)),
    )


def make_ea(p: AlgebraParams) -> np.ndarray:
    """Diagonal Temperley-Lieb projector, diag(0, d, 0)."""
    return np.diag([0.0, p.d, 0.0]).astype(complex)


def make_eb(p: AlgebraParams) -> np.ndarray:
    """Off-diagonal Temperley-Lieb projector (Hermitian, d times a rank-1 projector)."""
    d = p.d
    s, rd, e1, e2, e12 = _projector_weights(p)
    return np.array(
        [
            [(d * d - d - 1.0) / d, s / d * e1, -s / rd * e12],
            [s / d / e1, 1.0 / d, -e2 / rd],
            [-s / rd / e12, -1.0 / e2 / rd, 1.0],
        ],
        dtype=complex,
    )


def make_u(p: AlgebraParams) -> np.ndarray:
    """Unitary that conjugates the diagonal pair into the off-diagonal pair."""
    d = p.d
    s, rd, e1, e2, e12 = _projector_weights(p)
    return np.array(
        [
            [1.0 / ((d - 1.0) * d), -s / d * e1, -s / (rd * (d - 1.0)) * e12],
            [s / d / e1, -1.0 / d, e2 / rd],
            [s / (rd * (d - 1.0)) / e12, 1.0 / e2 / rd, -(d - 2.0) / (d - 1.0)],
        ],
        dtype=complex,
    )


@refuse_overflow
def make_a(p: AlgebraParams) -> np.ndarray:
    """Diagonal braid generator, diag(q, 1/q^2, -1/q).  Coupled mode only."""
    if p.q is None:
        raise InvalidParam("make_a needs coupled mode: the braid pair carries q")
    q = p.q
    return np.diag([q, q ** -2, -1.0 / q]).astype(complex)


@refuse_overflow
def make_b(p: AlgebraParams) -> np.ndarray:
    """Off-diagonal braid generator, the conjugate of make_a by make_u."""
    if p.q is None:
        raise InvalidParam("make_b needs coupled mode: the braid pair carries q")
    q = p.q
    d = p.d
    s, rd, e1, e2, e12 = _projector_weights(p)
    return np.array(
        [
            [1.0 / (q ** 4 * (d - 1.0) * d), s / (d * q) * e1, -s / (q * q * (d - 1.0) * rd) * e12],
            [s / (d * q) / e1, q * q / d, q / rd * e2],
            [-s / (q * q * (d - 1.0) * rd) / e12, q / rd / e2, (d - 2.0) / (d - 1.0)],
        ],
        dtype=complex,
    )


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


def _build_report(lines, tolerance: float, notes: tuple[str, ...] = ()) -> RelationReport:
    """One check per (name, lhs, rhs) line, all residuals from one stacked ``rel_residual``."""
    names, lhs, rhs = zip(*lines)
    residuals = rel_residual(np.stack(lhs), np.stack(rhs)).tolist()
    checks = tuple(RelationCheck(name=n, residual=r, passed=r < tolerance) for n, r in zip(names, residuals))
    return RelationReport(checks=checks, tolerance=float(tolerance), notes=notes)


def check_tla(ea, eb, d, tolerance: float = 1e-10) -> RelationReport:
    """Check the Temperley-Lieb identities for an arbitrary pair of matrices.

    Lines: E^2 = d E for both projectors and both three-factor sandwich
    identities.  The matrices are taken as given (no Hermiticity demanded),
    so the report can diagnose broken inputs.
    """
    ea = as_matrix3(ea)
    eb = as_matrix3(eb)
    dv = as_real("d", d)
    lines = [
        ("square_a", ea @ ea, dv * ea),
        ("square_b", eb @ eb, dv * eb),
        ("sandwich_a", ea @ eb @ ea, ea),
        ("sandwich_b", eb @ ea @ eb, eb),
    ]
    return _build_report(lines, tolerance)


def check_braid(a, b, tolerance: float = 1e-10) -> RelationReport:
    """Check the braid identity ABA = BAB for an arbitrary pair of matrices."""
    a = as_matrix3(a)
    b = as_matrix3(b)
    return _build_report([("braid", a @ b @ a, b @ a @ b)], tolerance)


def check_bwm_suite(p: AlgebraParams, tolerance: float = 1e-10) -> RelationReport:
    """Residuals for every defining identity of the two-generator algebra.

    Requires coupled mode.  Near q = 1 the skein weight vanishes: the skein
    lines then degenerate to the involution statements A = A^-1, B = B^-1
    (still checked, as written), and the projector-square lines fall back to
    the coupled loop value because the omega-quotient form is 0/0 there; the
    report notes the substitution.
    """
    if not p.coupled_mode:
        raise InvalidParam("check_bwm_suite needs coupled mode (construct via AlgebraParams.coupled)")
    ident = np.eye(3, dtype=complex)
    a = make_a(p)
    b = make_b(p)
    ea = make_ea(p)
    eb = make_eb(p)
    ai = inverse(a)
    bi = inverse(b)
    omega = p.omega_skein
    sigma = p.sigma
    notes: tuple[str, ...] = ()
    if abs(omega) < DEGENERATE_OMEGA:
        dtop = p.d
        notes = (
            "omega_skein ~ 0: skein lines reduce to the involutions A = A^-1, B = B^-1; "
            "projector squares checked against the coupled loop value",
        )
    else:
        dtop = d_topological(omega, sigma)
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
    ]
    return _build_report(lines, tolerance, notes)
