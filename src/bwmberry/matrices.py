"""Small dense 3x3 matrix utilities used throughout the package.

Everything in this package lives in a fixed three-dimensional complex
representation, so the helpers here are deliberately specialised to
3x3 arrays: explicit adjugate inversion, a guarded Hermitian eigensolve
with a deterministic phase convention, a closed-form stacked eigensolver
for the Berry loop, and the scale-aware relative residual used by all
identity checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BwmBerryError, InvalidParam, NoConvergence, NotHermitian, SingularMatrix

#: Relative Frobenius tolerance for accepting a matrix as Hermitian.
HERMITICITY_RTOL = 1e-10

#: |det| below this times max(1, ||m||_F^3) counts as singular.
SINGULARITY_RTOL = 1e-12

#: Frobenius norms below this, 2^-511, come from a sum of squares that
#: underflows the smallest normal double, 2^-1022.
_UNDERFLOW_NORM = 2.0 ** -511

#: Components smaller than this are ignored when fixing eigenvector phases.
PHASE_FIX_CUTOFF = 1e-12

#: Smallest eigenvalue gap, relative to ||H||_F, at which ``_closed_form_eigh``
#: keeps its own result.  With relative gap g, the arccos step errs by about
#: u/g in the eigenvalues, and the cross product divides that by the gap
#: again, so the vectors err by about u/g^2 where a backward-stable solver
#: errs by u/g.  Allowing that extra factor 1/g to reach 8 (three bits) gives
#: g >= 1/8; the largest g any 3x3 spectrum has is 1/sqrt(2), at equal spacing.
CLOSED_FORM_GAP_RTOL = 1.0 / 8.0

#: Smallest best cross-product norm, relative to ||H||_F^2, that
#: ``_closed_form_eigh`` keeps.  The cross products of the rows of H - lambda I
#: are the rows mu_a mu_b conj(v_k) v^T of its cofactor matrix, so the largest
#: has norm at least |mu_a mu_b| / sqrt(3) >= g^2 ||H||_F^2 / sqrt(3): the gap
#: test implies this one in exact arithmetic, and it catches where rounding broke that.
CLOSED_FORM_CROSS_RTOL = CLOSED_FORM_GAP_RTOL ** 2 / math.sqrt(3.0)

#: Offsets 2 pi k / 3 that put the trigonometric eigenvalues in ascending order.
_ROOT_OFFSETS = (2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0, 0.0)


def as_real(name: str, value) -> float:
    """Coerce a parameter to a finite float, raising InvalidParam otherwise.

    Strings and booleans are rejected outright; a truth value or a textual
    number arriving where an angle or loop value belongs is a caller bug,
    not something to silently repair with float().
    """
    if isinstance(value, (bool, str)):
        raise InvalidParam(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParam(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(x):
        raise InvalidParam(f"{name} must be finite, got {x!r}")
    return x


def refuse_overflow(fn, name: str | None = None):
    """Raise InvalidParam where ``fn``'s float arithmetic leaves the double range.

    Python raises OverflowError where ``x ** n`` overflows, and
    ZeroDivisionError where a denominator such as ``q ** 4`` underflows to
    zero; the parameters that do so lie outside the domain of the
    construction, so the decorated function reports them as InvalidParam,
    like any other domain violation.  The message names ``fn``, or ``name``
    where a private builder does the work of a public function.
    """
    name = name or fn.__name__

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise InvalidParam(f"{name} overflows double precision at these parameters") from exc

    return guarded


def as_matrix3(m, stack: bool = False) -> np.ndarray:
    """Coerce input to a finite complex (3, 3) ndarray.

    With ``stack`` the input may also be a stack of shape (..., 3, 3).
    Raises InvalidParam for anything of the wrong shape or containing
    non-finite entries.
    """
    a = np.asarray(m, dtype=complex)
    if a.shape[-2:] != (3, 3) or (a.ndim != 2 and not stack):
        kind = "a 3x3 matrix or a (..., 3, 3) stack" if stack else "a 3x3 matrix"
        raise InvalidParam(f"expected {kind}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidParam("matrix contains non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(np.swapaxes(np.asarray(m), -1, -2))


def _row_norm(row: np.ndarray) -> float:
    """Frobenius norm of one flattened matrix, also where its sum of squares overflows.

    Then the entries are scaled by the power of two that brings the largest
    into [0.5, 1), which is exact, and the norm is scaled back; a norm
    beyond the double range raises InvalidParam.
    """
    re, im = row.real.ravel(), row.imag.ravel()
    with np.errstate(over="ignore"):
        sq = re.dot(re) + im.dot(im)
    if math.isfinite(sq):
        return math.sqrt(sq)
    big = float(max(np.max(np.abs(re)), np.max(np.abs(im))))
    if math.isfinite(big):
        k = math.frexp(big)[1]
        re, im = np.ldexp(re, -k), np.ldexp(im, -k)
        try:
            return math.ldexp(math.sqrt(re.dot(re) + im.dot(im)), k)
        except OverflowError:
            pass
    raise InvalidParam("the Frobenius norm overflows double precision")


def _norms(x: np.ndarray) -> np.ndarray:
    """sqrt(re.re + im.im) of each flattened matrix of an (n, size) array, each dot one BLAS call."""
    rows, cols = x.reshape(-1, 1, x.shape[-1]), x.reshape(-1, x.shape[-1], 1)
    return np.sqrt((rows.real @ cols.real + rows.imag @ cols.imag).ravel())


def frobenius(m):
    """Frobenius norm of a matrix, or of each matrix of a (..., 3, 3) stack.

    Returns a float for one matrix and an array of shape (...) for a stack.
    Each norm is sqrt(re.re + im.im) over the entries in C order, each dot
    one BLAS call, as ``np.linalg.norm`` computes the norm of one C-ordered
    matrix, so the two agree bit for bit (a norm over a stack's last axes
    does not).  If a sum of squares overflows, ``_row_norm`` redoes them
    all: such a norm is still right, and one beyond the double range raises
    InvalidParam.  A nonzero matrix whose sum of squares underflows (norm
    below 2^-511, the root of the smallest normal double) is scaled by the
    power of two that brings its largest entry into [0.5, 1), exactly, and
    its norm is that of the scaled matrix scaled back, so it is not 0.
    """
    x = np.asarray(m, dtype=complex)
    rows = x.reshape(-1, x.shape[-2] * x.shape[-1])
    try:
        with np.errstate(over="raise"):
            norms = _norms(rows)
    except FloatingPointError:
        norms = np.array([_row_norm(row) for row in rows])
    small = np.flatnonzero(norms < _UNDERFLOW_NORM)
    # Mostly zero matrices (exact differences in rel_residual), looked at a
    # few at a time so that no copy of a whole stack is made.
    for start in range(0, small.size, 256):
        part = small[start : start + 256]
        part = part[np.any(rows[part], axis=1)]
        if part.size:
            tiny = rows[part]
            big = np.maximum(np.abs(tiny.real).max(axis=1), np.abs(tiny.imag).max(axis=1))
            k = np.frexp(big)[1]
            scaled = np.ldexp(tiny.real, -k[:, None]) + 1j * np.ldexp(tiny.imag, -k[:, None])
            norms[part] = np.ldexp(_norms(scaled), k)
    return float(norms[0]) if x.ndim == 2 else norms.reshape(x.shape[:-2])


def rel_residual(lhs, rhs):
    """Scale-aware relative residual between two 3x3 matrices, or pair by pair between two stacks.

    Defined as ||lhs - rhs||_F / max(1, ||lhs||_F, ||rhs||_F).  The floor
    of 1 in the denominator makes the residual behave like an absolute
    error for small operands, so comparisons against zero matrices stay
    meaningful.  Two (..., 3, 3) stacks (or a stack and one matrix) give
    an array of residuals of shape (...), each bit-equal to the residual
    of its pair alone.  Raises InvalidParam where a norm, or an entry of
    the difference, leaves the double range.
    """
    a = as_matrix3(lhs, stack=True)
    b = as_matrix3(rhs, stack=True)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    with np.errstate(over="ignore"):
        diff = a - b
    num, na, nb = frobenius(np.concatenate((diff, a, b), axis=None).reshape(-1, 3, 3)).reshape(3, -1)
    residual = num / np.maximum(1.0, np.maximum(na, nb))
    return float(residual[0]) if a.ndim == 2 else residual.reshape(a.shape[:-2])


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) as its real and imaginary parts, in the arithmetic of numpy's scalar multiply.

    numpy's array loop for a complex multiply may fuse a product and a sum
    into one FMA instruction (it does with AVX-512), which rounds once where
    the scalar multiply rounds twice, so the array ``*`` and the scalar ``*``
    differ in the last bit on about half of all random products.  These
    float products and sums round as the scalar multiply does.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _adjugate_det(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjugate and cofactor-expansion determinant of each matrix of an (n, 3, 3) stack.

    Every complex product is a ``_cmul``, so each matrix gets the bits of the
    same formulas evaluated on its numpy scalar entries.
    """
    x = [[(a[:, i, j].real, a[:, i, j].imag) for j in range(3)] for i in range(3)]

    def cofactor(r1, c1, r2, c2):
        (pr, pi), (qr, qi) = _cmul(*x[r1][c1], *x[r2][c2]), _cmul(*x[r1][c2], *x[r2][c1])
        return pr - qr, pi - qi

    adj = np.empty_like(a)
    for i in range(3):
        for j in range(3):
            entry = adj[:, i, j]
            entry.real, entry.imag = cofactor((j + 1) % 3, (i + 1) % 3, (j + 2) % 3, (i + 2) % 3)
    # a00 (a11 a22 - a12 a21) - a01 (a10 a22 - a12 a20) + a02 (a10 a21 - a11 a20), left to right.
    (r0, i0), (r1, i1), (r2, i2) = (
        _cmul(*x[0][j], *cofactor(1, c1, 2, c2)) for j, c1, c2 in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    )
    det = np.empty(len(a), dtype=complex)
    det.real, det.imag = r0 - r1 + r2, i0 - i1 + i2
    return adj, det


def det3(m) -> complex:
    """Determinant of a 3x3 matrix by cofactor expansion."""
    return complex(_adjugate_det(as_matrix3(m)[None])[1][0])


#: ||m||_F^3 of ``inverse``'s singularity guard; a cube beyond the double range raises InvalidParam.
_norm_cube = refuse_overflow(lambda norm: norm ** 3, "inverse")


def _inverse_stack(m) -> tuple[np.ndarray, dict[int, BwmBerryError]]:
    """The adjugate inverse of each matrix of an (n, 3, 3) stack, with the bits ``inverse`` gives it alone.

    Returns the stack of inverses and, by stack index, the error that
    ``inverse`` raises on each matrix it refuses (its entry in the stack is
    then not an inverse): ``SingularMatrix`` with the same ``detail``, or
    ``InvalidParam`` where ||m||_F or its cube leaves the double range.
    """
    a = as_matrix3(m, stack=True)
    adj, det = _adjugate_det(a)
    try:
        norms = frobenius(a).tolist()
    except InvalidParam:  # a norm beyond the double range: find it matrix by matrix
        norms = [None] * len(a)
    errors = {}
    for k, (d, norm) in enumerate(zip(det.tolist(), norms)):
        try:
            scale = max(1.0, _norm_cube(frobenius(a[k]) if norm is None else norm))
        except InvalidParam as exc:
            errors[k] = exc
            continue
        if abs(d) <= SINGULARITY_RTOL * scale:
            errors[k] = SingularMatrix(
                f"determinant too small for the matrix scale: |det| = {abs(d):.3e} <= "
                f"{SINGULARITY_RTOL:g} * max(1, ||m||_F^3) = {SINGULARITY_RTOL * scale:.3e}"
            )
    if errors:
        det[list(errors)] = 1.0
    return adj / det[:, None, None], errors


def inverse(m) -> np.ndarray:
    """Invert a 3x3 matrix via the adjugate / determinant formula.

    The closed form has no pivoting noise, so the inverse of an exactly
    representable matrix is reproducible bit-for-bit.  Raises
    SingularMatrix when |det| <= 1e-12 * max(1, ||m||_F^3), and
    InvalidParam where ||m||_F^3 overflows.  The one-matrix case of
    ``_inverse_stack``.
    """
    inv, errors = _inverse_stack(as_matrix3(m)[None])
    if errors:
        raise errors[0]
    return inv[0]


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and matching orthonormal column eigenvectors.

    For a stack of matrices, ``values`` has shape (..., 3) and ``vectors``
    (..., 3, 3), one eigensystem per matrix.
    """

    values: np.ndarray
    vectors: np.ndarray


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each eigenvector so its first significant component is real positive.

    The cutoff keeps the convention stable: components with magnitude below
    PHASE_FIX_CUTOFF are treated as zero when looking for the anchor entry.
    Works on one (3, 3) set of columns or on a (..., 3, 3) stack of them.
    """
    vectors = np.asarray(vectors, dtype=complex)
    mags = np.abs(vectors)
    significant = mags > PHASE_FIX_CUTOFF
    first = np.argmax(significant, axis=-2)[..., None, :]
    anchor = np.take_along_axis(vectors, first, axis=-2)
    found = np.take_along_axis(significant, first, axis=-2)
    scale = np.where(found, np.take_along_axis(mags, first, axis=-2), 1.0)
    return np.where(found, vectors * (np.conjugate(anchor) / scale), vectors)


def hermitian_eigs(m) -> EigenSystem:
    """Eigendecomposition of a Hermitian 3x3 matrix or a (..., 3, 3) stack of them.

    Each matrix must be Hermitian to within HERMITICITY_RTOL (relative
    Frobenius, with a floor of 1 on the scale); it is then symmetrised
    before the solve so roundoff in the input cannot leak into complex
    eigenvalues.  Eigenvalues come back ascending; eigenvectors are the
    matching columns with a deterministic phase (first significant
    component real positive).  A stack is solved in one batched call and
    gives, matrix by matrix, the same bits as solving each matrix alone.
    """
    a = as_matrix3(m, stack=True)
    skew = a - dagger(a)
    bad = np.asarray(frobenius(skew) > HERMITICITY_RTOL * np.maximum(1.0, frobenius(a)))
    if np.any(bad):
        index = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        where = f" at stack index {index}" if index else ""
        raise NotHermitian(f"matrix{where} is not Hermitian (defect {frobenius(skew[index]):.3e})")
    h = (a + dagger(a)) / 2.0
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails on 3x3
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    return EigenSystem(values=values.astype(float), vectors=_fix_phases(vectors))


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 entrywise, without the square root of ``np.abs``."""
    return z.real * z.real + z.imag * z.imag


def _closed_form_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ``np.linalg.eigh`` of an (n, 3, 3) stack of Hermitian matrices.

    Returns (values, vectors) as ``eigh`` does: ascending eigenvalues of
    shape (n, 3) and the matching unit eigenvectors as the columns of an
    (n, 3, 3) array, each column in its own gauge.  Like ``eigh`` with
    UPLO='L', it reads only the lower triangle and the real diagonal, so it
    sees an exactly Hermitian matrix, and each matrix is divided by its
    largest |entry| first, so the cubic invariants neither overflow nor
    underflow.  Every step runs on (n,) arrays of single entries.

    The eigenvalues are O. K. Smith's trigonometric roots (Commun. ACM
    4(4):168, 1961): with m = tr H / 3, p^2 = ||H - m I||_F^2 / 6 and
    r = det(H - m I) / (2 p^3), they are m + 2 p cos(arccos(r) / 3 + 2 pi k / 3).
    Each eigenvector is the largest-norm cross product of two rows of
    H - lambda I, normalised (J. Kopp, Int. J. Mod. Phys. C 19:523, 2008).
    A matrix whose computed relative gap is at most CLOSED_FORM_GAP_RTOL,
    or whose best cross product is at most CLOSED_FORM_CROSS_RTOL ||H||_F^2,
    is solved again by ``np.linalg.eigh`` and gets its output exactly.
    """
    n = h.shape[0]
    values = np.empty((n, 3))
    vectors = np.empty((n, 3, 3), dtype=complex)
    diag = [h[:, k, k].real for k in range(3)]
    lower = [h[:, 1, 0], h[:, 2, 0], h[:, 2, 1]]
    scale = np.abs(diag[0])
    for entry in diag[1:] + lower:
        np.maximum(scale, np.abs(entry), out=scale)
    scale[scale == 0.0] = 1.0  # a zero matrix has no gap and goes to eigh
    a0, a1, a2 = (x / scale for x in diag)
    h10, h20, h21 = (x / scale for x in lower)
    n10, n20, n21 = _abs2(h10), _abs2(h20), _abs2(h21)
    # The lambda-independent products in the off-diagonal cofactors.
    x01, x02, x12 = np.conj(h21) * h20, h10 * h21, h20 * np.conj(h10)
    off = n10 + n20 + n21
    fro2 = a0 * a0 + a1 * a1 + a2 * a2 + 2.0 * off
    m = (a0 + a1 + a2) / 3.0
    b0, b1, b2 = a0 - m, a1 - m, a2 - m
    p2 = (b0 * b0 + b1 * b1 + b2 * b2 + 2.0 * off) / 6.0
    p = np.sqrt(p2)
    det = b0 * b1 * b2 - b0 * n21 - b1 * n20 - b2 * n10 + 2.0 * (h10.real * x01.real + h10.imag * x01.imag)
    denom = 2.0 * p2 * p
    r = np.divide(det, denom, out=np.zeros(n), where=denom > 0.0)
    angle = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    lams = [m + 2.0 * p * np.cos(angle + offset) for offset in _ROOT_OFFSETS]
    accept = np.minimum(lams[1] - lams[0], lams[2] - lams[1]) > CLOSED_FORM_GAP_RTOL * np.sqrt(fro2)
    for i, lam in enumerate(lams):
        values[:, i] = lam * scale
        e0, e1, e2 = a0 - lam, a1 - lam, a2 - lam
        # Row k of the cofactor matrix of H - lambda I is the cross product of its other two rows.
        c00, c11, c22 = e1 * e2 - n21, e0 * e2 - n20, e0 * e1 - n10
        c01, c02, c12 = x01 - e2 * h10, x02 - e1 * h20, x12 - e0 * h21
        q01, q02, q12 = _abs2(c01), _abs2(c02), _abs2(c12)
        r0, r1, r2 = c00 * c00 + q01 + q02, q01 + c11 * c11 + q12, q02 + q12 + c22 * c22
        use0 = (r0 >= r1) & (r0 >= r2)
        use1 = ~use0 & (r1 >= r2)
        norm = np.sqrt(np.maximum(np.maximum(r0, r1), r2))
        accept &= norm > CLOSED_FORM_CROSS_RTOL * fro2
        norm[norm == 0.0] = 1.0
        column = vectors[:, :, i]
        column[:, 0] = np.where(use0, c00, np.where(use1, np.conj(c01), np.conj(c02))) / norm
        column[:, 1] = np.where(use0, c01, np.where(use1, c11, np.conj(c12))) / norm
        column[:, 2] = np.where(use0, c02, np.where(use1, c12, c22)) / norm
    if not accept.all():
        rejected = ~accept
        values[rejected], vectors[rejected] = np.linalg.eigh(h[rejected])
    return values, vectors
