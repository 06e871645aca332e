"""Three-level spin structure induced by the driven braid unitary.

Driving the projector phases as (phi, -phi) with phi = omega*t turns the
off-diagonal braid unitary B into a periodic evolution whose generator

    H = i hbar (dB/dt) B^dagger

is Hermitian, traceless and carries the fixed spectrum
{0, +hbar*omega*cos(alpha), -hbar*omega*cos(alpha)} with
cos(alpha) = 2 sin(theta) sqrt(d^2-1) / d^2 independent of phi.  The
module also builds the spin-1 ladder triple (S+, S-, S3) embedded in the
su(3) Gell-Mann basis; H decomposes over that triple as an effective
magnetic field of polar angle alpha whose azimuth rotates opposite to
the drive phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import GOLDEN_RATIO, DOMAIN_SLACK, AlgebraParams, make_eb
from .errors import DegenerateZeta, InvalidParam
from .matrices import as_real, dagger, refuse_overflow, rel_residual

#: Discriminant d^4 - 4(d^2-1)sin^2(theta) below this is a normalisation pole.
ZETA_DEGENERACY_TOL = 1e-14

#: Occupation numbers generating the drive: only level 2 picks up the phase.
_OCCUPATION = np.array([0.0, 1.0, 0.0])


@dataclass(frozen=True)
class GellMannBasis:
    """Normalised su(3) generators I_k = lambda_k / 2 and their structure constants.

    ``generators`` stacks the eight matrices as an (8, 3, 3) array with
    tr(I_a I_b) = delta_ab / 2; ``structure_constants`` is the real
    antisymmetric tensor f_abc with [I_a, I_b] = i f_abc I_c.
    """

    generators: np.ndarray
    structure_constants: np.ndarray


def _gell_mann_generators() -> np.ndarray:
    """The eight generators I_k = lambda_k / 2 stacked as an (8, 3, 3) array."""
    s3 = math.sqrt(3.0)
    lam = np.array(
        [
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
            [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
            [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
            [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
            [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
            [[1 / s3, 0, 0], [0, 1 / s3, 0], [0, 0, -2 / s3]],
        ],
        dtype=complex,
    )
    return lam / 2.0


def gell_mann_basis() -> GellMannBasis:
    """Construct the standard Gell-Mann generators and f_abc = -2i tr([I_a, I_b] I_c)."""
    gens = _gell_mann_generators()
    comm = np.einsum("aij,bjk->abik", gens, gens) - np.einsum("bij,ajk->abik", gens, gens)
    f = np.einsum("abij,cji->abc", comm, gens) * -2j
    return GellMannBasis(generators=gens, structure_constants=np.real(f))


#: The generators ``ladder_ops`` combines, built once and read-only.
_GENERATORS = _gell_mann_generators()
_GENERATORS.flags.writeable = False


@dataclass(frozen=True)
class SpinTriple:
    """A spin ladder triple: raising, lowering, and the third component."""

    s_plus: np.ndarray
    s_minus: np.ndarray
    s3: np.ndarray


@refuse_overflow
def ladder_ops(theta, d) -> SpinTriple:
    """Ladder triple of an su(2) subalgebra of su(3) adapted to the driven system.

    The triple closes the su(2) commutation relations with nilpotent
    ladders ((S+)^2 = 0), so the quadratic Casimir has spectrum
    {3/4, 3/4, 0}: a spin-1/2 doublet plus a singlet.  The normalisation
    zeta = d^2 / sqrt((d^2-1)(d^4 - 4(d^2-1)sin^2(theta))) requires d > 1
    and blows up where the discriminant vanishes (DegenerateZeta); the
    off-diagonal weights need d at or above the golden ratio.
    """
    th = as_real("theta", theta)
    dv = as_real("d", d)
    if dv <= 1.0:
        raise InvalidParam(f"ladder operators need d > 1, got d = {dv}")
    disc = dv ** 4 - 4.0 * (dv * dv - 1.0) * math.sin(th) ** 2
    if disc < ZETA_DEGENERACY_TOL:
        raise DegenerateZeta(
            f"normalisation pole: d^4 - 4(d^2-1)sin^2(theta) = {disc:.3e} at theta = {th}, d = {dv}"
        )
    root = dv * dv - dv - 1.0
    if root < -DOMAIN_SLACK * max(1.0, dv * dv):
        raise InvalidParam(
            f"d = {dv} is below the golden ratio; the off-diagonal weight sqrt(d^2-d-1) is imaginary"
        )
    s = math.sqrt(max(0.0, root))
    rd = math.sqrt(dv)
    zeta = dv * dv / math.sqrt((dv * dv - 1.0) * disc)

    g = _GENERATORS
    i_plus = g[0] + 1j * g[1]
    i_minus = g[0] - 1j * g[1]
    u_plus = g[5] + 1j * g[6]
    u_minus = g[5] - 1j * g[6]
    v_plus = g[3] - 1j * g[4]
    v_minus = g[3] + 1j * g[4]
    hyper = 2.0 / math.sqrt(3.0) * g[7]
    iso3 = g[2]
    ident = np.eye(3, dtype=complex)

    w = np.exp(-1j * th) + 2j * math.sin(th) / dv ** 2
    wbar = np.conjugate(w)
    s_plus = zeta * (-1j * s * w * i_plus + 1j * rd * w * u_minus)
    s_minus = zeta * (1j * s * wbar * i_minus - 1j * rd * wbar * u_plus)
    s3_op = 0.5 * (
        (1.0 + dv - dv * dv) / (1.0 - dv * dv) * (ident / 3.0 + hyper / 2.0 + iso3)
        - (ident / 3.0 + hyper / 2.0 - iso3)
        - dv / (1.0 - dv * dv) * (ident / 3.0 - hyper)
        + rd * s / (1.0 - dv * dv) * (v_minus + v_plus)
    )
    return SpinTriple(s_plus=s_plus, s_minus=s_minus, s3=s3_op)


@dataclass(frozen=True)
class DriveParams:
    """Parameters of the periodically driven braid unitary."""

    theta: float
    d: float
    omega_drive: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("theta", "d", "omega_drive", "hbar"):
            object.__setattr__(self, name, as_real(name, getattr(self, name)))
        if self.d < GOLDEN_RATIO - DOMAIN_SLACK:
            raise InvalidParam(
                f"d = {self.d} is below the golden ratio; the driven unitary is undefined there"
            )
        if self.hbar <= 0.0:
            raise InvalidParam(f"hbar must be positive, got {self.hbar}")


def b_of_phi(phi, dp: DriveParams) -> np.ndarray:
    """The driven braid unitary B at drive phase phi (projector phases phi, -phi)."""
    ph = as_real("phi", phi)
    p = AlgebraParams.tla(dp.d, ph, -ph)
    f = 2j * math.sin(dp.theta) / dp.d
    return np.exp(1j * dp.theta) * np.eye(3, dtype=complex) - f * make_eb(p)


def hamiltonian_stack(phis, dp: DriveParams) -> np.ndarray:
    """Evolution generators H(phi) = i hbar (dB/dt) B^dagger for an array of phases.

    Only the phased entries of the off-diagonal projector depend on phi,
    so dB/dphi is available entrywise in closed form and the whole stack
    is assembled with batched matrix products (this is the hot path of
    the loop-holonomy computation).
    """
    ph = np.atleast_1d(np.asarray(phis, dtype=float))
    if ph.ndim != 1:
        raise InvalidParam("phis must be a scalar or a 1-D array of drive phases")
    if not np.all(np.isfinite(ph)):
        raise InvalidParam("drive phases must be finite")
    eb0 = make_eb(AlgebraParams.tla(dp.d, 0.0, 0.0))
    delta = np.subtract.outer(_OCCUPATION, _OCCUPATION)
    eb = eb0[None, :, :] * np.exp(-1j * ph[:, None, None] * delta[None, :, :])
    deb = -1j * delta * eb
    f = 2j * math.sin(dp.theta) / dp.d
    b = np.exp(1j * dp.theta) * np.eye(3, dtype=complex)[None, :, :] - f * eb
    db = -f * deb
    return 1j * dp.hbar * dp.omega_drive * db @ dagger(b)


def hamiltonian(phi, dp: DriveParams) -> np.ndarray:
    """Evolution generator at a single drive phase.

    Hermitian and traceless by construction, with phi-independent spectrum
    {0, +hbar*omega*cos(alpha), -hbar*omega*cos(alpha)}.
    """
    return hamiltonian_stack([as_real("phi", phi)], dp)[0]


@refuse_overflow
def cos_alpha(theta, d) -> float:
    """Polar cosine of the effective field axis, 2 sin(theta) sqrt(d^2-1) / d^2."""
    th = as_real("theta", theta)
    dv = as_real("d", d)
    if dv < 1.0:
        raise InvalidParam(f"cos_alpha needs d >= 1, got d = {dv}")
    return 2.0 * math.sin(th) * math.sqrt(dv * dv - 1.0) / dv ** 2


def decomposition_residual(phi, dp: DriveParams) -> float:
    """Residual of expanding H(phi) over the ladder triple.

    The generator equals an effective magnetic field of fixed polar angle
    alpha coupled to (S1, S2, S3), with the azimuth running counter to the
    drive phase (azimuth = -phi).  Returns the relative residual between
    H(phi) and that expansion; parameters where the ladder normalisation
    degenerates raise DegenerateZeta.
    """
    ph = as_real("phi", phi)
    trip = ladder_ops(dp.theta, dp.d)
    s1 = (trip.s_plus + trip.s_minus) / 2.0
    s2 = (trip.s_plus - trip.s_minus) / 2j
    ca = cos_alpha(dp.theta, dp.d)
    sa = math.sqrt(max(0.0, 1.0 - ca * ca))
    azimuth = -ph
    prefactor = (
        -4.0 * dp.omega_drive * dp.hbar * math.sin(dp.theta) * math.sqrt(dp.d ** 2 - 1.0) / dp.d ** 2
    )
    rhs = prefactor * (
        sa * math.cos(azimuth) * s1 + sa * math.sin(azimuth) * s2 + ca * trip.s3
    )
    return rel_residual(hamiltonian(ph, dp), rhs)
