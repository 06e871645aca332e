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

H is built entrywise from B, with no matrix product: only level 2 carries
the drive phase, so dB/dt has four nonzero entries and each entry of H is
one or two products of entries of B (``_hamiltonian_row``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import GOLDEN_RATIO, DOMAIN_SLACK, AlgebraParams, _offdiag_root, make_eb
from .errors import InvalidParam
from .matrices import as_real, refuse_overflow, rel_residual
from .yangbaxter import make_r_theta

#: The entries (j, k) of B that carry the drive phase, with n_j - n_k for the
#: occupation numbers n = (0, 1, 0): only level 2 picks up the phase.
_DRIVEN = {(0, 1): -1.0, (1, 0): 1.0, (1, 2): 1.0, (2, 1): -1.0}


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
    """A spin ladder triple: raising, lowering, and the third component.

    ``s_plus`` and ``s_minus`` may also be (n, 3, 3) stacks sharing one ``s3``.
    """

    s_plus: np.ndarray
    s_minus: np.ndarray
    s3: np.ndarray

    def casimir(self) -> np.ndarray:
        """The quadratic Casimir (S+ S- + S- S+) / 2 + S3^2, one matrix per triple of a stack."""
        return 0.5 * (self.s_plus @ self.s_minus + self.s_minus @ self.s_plus) + self.s3 @ self.s3


def ladder_ops(theta, d) -> SpinTriple:
    """Ladder triple of an su(2) subalgebra of su(3) adapted to the driven system.

    The triple closes the su(2) commutation relations with nilpotent
    ladders ((S+)^2 = 0), so the quadratic Casimir has spectrum
    {3/4, 3/4, 0}: a spin-1/2 doublet plus a singlet.  The off-diagonal
    weights need d at or above the golden ratio, the rule ``AlgebraParams``
    and ``DriveParams`` apply; any other d raises InvalidParam before any
    arithmetic.  There the normalisation
    zeta = d^2 / sqrt((d^2-1)(d^4 - 4(d^2-1)sin^2(theta))) is finite: the
    discriminant is at least (d^2 - 2)^2 >= (phi^2 - 2)^2 ~ 0.38.  This is
    the one-theta case of ``_ladder_stack``.
    """
    trip = _ladder_stack((as_real("theta", theta),), d)
    return SpinTriple(s_plus=trip.s_plus[0], s_minus=trip.s_minus[0], s3=trip.s3)


@functools.partial(refuse_overflow, name="ladder_ops")
def _ladder_stack(thetas, d) -> SpinTriple:
    """``ladder_ops`` at every theta of a sequence of finite floats, at one d.

    S+ and S- come back as (len(thetas), 3, 3) stacks, each matrix with
    the bits ``ladder_ops`` gives at its theta; S3 does not depend on theta
    and is built once.  Errors are those of ``ladder_ops``, raised for the
    whole stack.
    """
    dv = as_real("d", d)
    if dv < GOLDEN_RATIO - DOMAIN_SLACK:
        raise InvalidParam(
            f"d = {dv} is below the golden ratio; the off-diagonal weight sqrt(d^2-d-1) is imaginary"
        )
    s = _offdiag_root(dv)
    rd = math.sqrt(dv)
    d4, d2 = dv ** 4, dv ** 2
    # Per theta: zeta and the four ladder weights, in ladder_ops' own scalar arithmetic.
    weights = []
    for th in thetas:
        sin = math.sin(th)
        w = np.exp(-1j * th) + 2j * sin / d2
        wbar = np.conjugate(w)
        zeta = dv * dv / math.sqrt((dv * dv - 1.0) * (d4 - 4.0 * (dv * dv - 1.0) * sin ** 2))
        weights.append((zeta, -1j * s * w, 1j * rd * w, 1j * s * wbar, 1j * rd * wbar))
    zeta, plus_i, plus_u, minus_i, minus_u = np.array(weights, dtype=complex).reshape(-1, 5).T[:, :, None, None]

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

    s_plus = zeta * (plus_i * i_plus + plus_u * u_minus)
    s_minus = zeta * (minus_i * i_minus - minus_u * u_plus)
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
        _check_drive_d(self.d)
        if self.hbar <= 0.0:
            raise InvalidParam(f"hbar must be positive, got {self.hbar}")


def b_of_phi(phi, dp: DriveParams) -> np.ndarray:
    """The driven braid unitary B at drive phase phi (projector phases phi, -phi)."""
    ph = as_real("phi", phi)
    return make_r_theta(dp.theta, AlgebraParams.tla(dp.d, ph, -ph)).b


def _check_drive_d(d: float) -> None:
    """The golden-ratio rule of the driven unitary, for a d that is already a float."""
    if d < GOLDEN_RATIO - DOMAIN_SLACK:
        raise InvalidParam(f"d = {d} is below the golden ratio; the driven unitary is undefined there")


def _drive_factors(phis) -> np.ndarray:
    """The drive factors e^{i phi} of a sequence of finite drive phases, which ``_hamiltonian_row`` takes."""
    return np.exp(1j * np.asarray(phis, dtype=float))


def _hamiltonian_row(thetas, omegas, up: np.ndarray, d: float, hbar: float = 1.0) -> np.ndarray:
    """H at every (theta, omega, phi) at one d, for sequences of finite thetas and omegas and
    the drive factors ``up`` = ``_drive_factors(phis)`` of finite phases.

    Returns a (len(thetas), len(omegas), len(phis), 3, 3) stack, built
    entrywise from B(phi) = e^{i theta} I - f E_B(phi), f = 2i sin(theta) / d,
    with no matrix product.  Only level 2 carries the drive phase, so
    B_jk(phi) = B_jk(0) e^{-i phi (n_j - n_k)} and i hbar dB/dt has the
    entries hbar omega (n_j - n_k) B_jk, nonzero at (0, 1), (1, 0), (1, 2)
    and (2, 1) only.  Hence, with w = hbar omega,

        H_0j = -w B_01 conj(B_j1),
        H_1j =  w B_10 conj(B_j0) + w B_12 conj(B_j2),
        H_2j = -w B_21 conj(B_j1),

    twelve complex products per matrix.  B(0) is built once per theta, the
    phases e^{+-i phi} are taken once per phi, and every product and sum is one
    elementwise ufunc over the whole row, so a matrix has the same bits in
    any row it is built in.  d must pass the rule of ``DriveParams``.
    """
    _check_drive_d(d)
    eb0 = make_eb(AlgebraParams.tla(d, 0.0, 0.0))  # E_B at projector phases (0, 0)
    f = np.array([2j * math.sin(th) / d for th in thetas], dtype=complex).reshape(-1, 1, 1)
    rot = np.array([np.exp(1j * th) for th in thetas], dtype=complex).reshape(-1, 1, 1)
    b0 = rot * np.eye(3, dtype=complex) - f * eb0
    # Complex, so that no product mixes a float array with a complex one: numpy runs such
    # a product through a cast, whose loop signs underflowed zeros differently by layout.
    w = np.array([hbar * om for om in omegas], dtype=complex).reshape(1, -1, 1)
    # up = e^{i phi} is the phase of B_jk where n_j - n_k = -1, down = e^{-i phi} where it is 1.
    down = np.conjugate(up)
    # Each factor as a (theta, omega, phi) array: w (n_j - n_k) B_jk on the left, conj(B_jk) on the right.
    right = [[np.conjugate(b0[:, j, k, None, None]) for k in range(3)] for j in range(3)]
    left = {}
    for (j, k), n_jk in _DRIVEN.items():
        phase, conj_phase = (up, down) if n_jk < 0 else (down, up)
        left[j, k] = ((w if n_jk > 0 else -w) * b0[:, j, k, None, None]) * phase
        right[j][k] = right[j][k] * conj_phase
    h = np.empty((len(b0), w.shape[1], len(up), 3, 3), dtype=complex)
    for j in range(3):
        np.multiply(left[0, 1], right[j][1], out=h[..., 0, j])
        np.add(left[1, 0] * right[j][0], left[1, 2] * right[j][2], out=h[..., 1, j])
        np.multiply(left[2, 1], right[j][1], out=h[..., 2, j])
    return h


def hamiltonian_stack(phis, dp: DriveParams) -> np.ndarray:
    """Evolution generators H(phi) = i hbar (dB/dt) B^dagger for an array of phases.

    Only the phased entries of the off-diagonal projector depend on phi,
    so dB/dphi is available entrywise in closed form, and each entry of H
    is one or two products of entries of B, evaluated elementwise over the
    whole stack.  A matrix has the same bits in any stack.  This is the
    one-(theta, omega) case of ``_hamiltonian_row``; the Berry loop calls
    that builder directly, with drive factors it computes once per step
    count (``berry._loop_grid``).
    """
    ph = np.atleast_1d(np.asarray(phis, dtype=float))
    if ph.ndim != 1:
        raise InvalidParam("phis must be a scalar or a 1-D array of drive phases")
    if not np.all(np.isfinite(ph)):
        raise InvalidParam("drive phases must be finite")
    return _hamiltonian_row((dp.theta,), (dp.omega_drive,), _drive_factors(ph), dp.d, dp.hbar)[0, 0]


def hamiltonian(phi, dp: DriveParams) -> np.ndarray:
    """Evolution generator at a single drive phase.

    Hermitian and traceless by construction, with phi-independent spectrum
    {0, +hbar*omega*cos(alpha), -hbar*omega*cos(alpha)}.
    """
    return hamiltonian_stack([as_real("phi", phi)], dp)[0]


def _polar_cosine(trig, d: float):
    """2 trig sqrt(d^2-1) / d^2, cos(alpha) at trig = sin(theta), for a float d >= 1 and a float or
    float array ``trig`` (each entry gets the float's bits).  Raises OverflowError where d ** 2 overflows."""
    return 2.0 * trig * math.sqrt(d * d - 1.0) / d ** 2


@refuse_overflow
def cos_alpha(theta, d) -> float:
    """Polar cosine of the effective field axis, 2 sin(theta) sqrt(d^2-1) / d^2."""
    th = as_real("theta", theta)
    dv = as_real("d", d)
    if dv < 1.0:
        raise InvalidParam(f"cos_alpha needs d >= 1, got d = {dv}")
    return _polar_cosine(math.sin(th), dv)


def decomposition_residual(phi, dp: DriveParams) -> float:
    """Residual of expanding H(phi) over the ladder triple.

    The generator equals an effective magnetic field of fixed polar angle
    alpha coupled to (S1, S2, S3), with the azimuth running counter to the
    drive phase (azimuth = -phi).  Returns the relative residual between
    H(phi) and that expansion.
    """
    ph = as_real("phi", phi)
    trip = ladder_ops(dp.theta, dp.d)
    s1 = (trip.s_plus + trip.s_minus) / 2.0
    s2 = (trip.s_plus - trip.s_minus) / 2j
    ca = cos_alpha(dp.theta, dp.d)
    sa = math.sqrt(max(0.0, 1.0 - ca * ca))
    azimuth = -ph
    rhs = -2.0 * dp.omega_drive * dp.hbar * ca * (
        sa * math.cos(azimuth) * s1 + sa * math.sin(azimuth) * s2 + ca * trip.s3
    )
    return rel_residual(hamiltonian(ph, dp), rhs)
