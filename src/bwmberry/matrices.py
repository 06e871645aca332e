"""Small dense 3x3 matrix utilities used throughout the package.

Everything in this package lives in a fixed three-dimensional complex
representation, so the helpers here are deliberately specialised to
3x3 arrays: explicit adjugate inversion, a guarded Hermitian eigensolve
with a deterministic phase convention, and the scale-aware relative
residual used by all identity checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam, NoConvergence, NotHermitian, SingularMatrix

#: Relative Frobenius tolerance for accepting a matrix as Hermitian.
HERMITICITY_RTOL = 1e-10

#: |det| below this times max(1, ||m||_F^3) counts as singular.
SINGULARITY_RTOL = 1e-12

#: Components smaller than this are ignored when fixing eigenvector phases.
PHASE_FIX_CUTOFF = 1e-12


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


def refuse_overflow(fn):
    """Raise InvalidParam where ``fn``'s float arithmetic leaves the double range.

    Python raises OverflowError where ``x ** n`` overflows, and
    ZeroDivisionError where a denominator such as ``q ** 4`` underflows to
    zero; the parameters that do so lie outside the domain of the
    construction, so the decorated function reports them as InvalidParam,
    like any other domain violation.
    """

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise InvalidParam(f"{fn.__name__} overflows double precision at these parameters") from exc

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


def frobenius(m):
    """Frobenius norm of a matrix, or of each matrix of a (..., 3, 3) stack.

    Returns a float for one matrix and an array of shape (...) for a stack.
    Each norm is sqrt(re.re + im.im) over the entries in C order, each dot
    one BLAS call, as ``np.linalg.norm`` computes the norm of one C-ordered
    matrix, so the two agree bit for bit (a norm over a stack's last axes
    does not).  If a sum of squares overflows, ``_row_norm`` redoes them
    all: such a norm is still right, and one beyond the double range raises
    InvalidParam.
    """
    x = np.asarray(m, dtype=complex)
    size = x.shape[-2] * x.shape[-1]
    rows, cols = x.reshape(-1, 1, size), x.reshape(-1, size, 1)
    try:
        with np.errstate(over="raise"):
            norms = np.sqrt((rows.real @ cols.real + rows.imag @ cols.imag).ravel())
    except FloatingPointError:
        norms = np.array([_row_norm(row) for row in rows])
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


def det3(m) -> complex:
    """Determinant of a 3x3 matrix by cofactor expansion."""
    a = as_matrix3(m)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    return complex(
        a00 * (a11 * a22 - a12 * a21)
        - a01 * (a10 * a22 - a12 * a20)
        + a02 * (a10 * a21 - a11 * a20)
    )


@refuse_overflow
def inverse(m) -> np.ndarray:
    """Invert a 3x3 matrix via the adjugate / determinant formula.

    The closed form has no pivoting noise, so the inverse of an exactly
    representable matrix is reproducible bit-for-bit.  Raises
    SingularMatrix when |det| <= 1e-12 * max(1, ||m||_F^3), and
    InvalidParam where ||m||_F^3 overflows.
    """
    a = as_matrix3(m)
    d = det3(a)
    scale = max(1.0, frobenius(a) ** 3)
    if abs(d) <= SINGULARITY_RTOL * scale:
        raise SingularMatrix(f"matrix is singular to working precision (|det| = {abs(d):.3e})")
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    adj = np.array(
        [
            [a11 * a22 - a12 * a21, a02 * a21 - a01 * a22, a01 * a12 - a02 * a11],
            [a12 * a20 - a10 * a22, a00 * a22 - a02 * a20, a02 * a10 - a00 * a12],
            [a10 * a21 - a11 * a20, a01 * a20 - a00 * a21, a00 * a11 - a01 * a10],
        ],
        dtype=complex,
    )
    return adj / d


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
