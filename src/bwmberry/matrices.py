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

    Python raises OverflowError where ``x ** n`` overflows; the parameters
    that do so lie outside the domain of the construction, so the decorated
    function reports them as InvalidParam, like any other domain violation.
    """

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
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
    if not np.all(np.isfinite(a)):
        raise InvalidParam("matrix contains non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(np.swapaxes(np.asarray(m), -1, -2))


def frobenius(m) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(m)))


def rel_residual(lhs, rhs) -> float:
    """Scale-aware relative residual between two 3x3 matrices.

    Defined as ||lhs - rhs||_F / max(1, ||lhs||_F, ||rhs||_F).  The floor
    of 1 in the denominator makes the residual behave like an absolute
    error for small operands, so comparisons against zero matrices stay
    meaningful.
    """
    a = as_matrix3(lhs)
    b = as_matrix3(rhs)
    return frobenius(a - b) / max(1.0, frobenius(a), frobenius(b))


def det3(m) -> complex:
    """Determinant of a 3x3 matrix by cofactor expansion."""
    a = as_matrix3(m)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    return complex(
        a00 * (a11 * a22 - a12 * a21)
        - a01 * (a10 * a22 - a12 * a20)
        + a02 * (a10 * a21 - a11 * a20)
    )


def inverse(m) -> np.ndarray:
    """Invert a 3x3 matrix via the adjugate / determinant formula.

    The closed form has no pivoting noise, so the inverse of an exactly
    representable matrix is reproducible bit-for-bit.  Raises
    SingularMatrix when |det| <= 1e-12 * max(1, ||m||_F^3).
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
    bad = np.linalg.norm(skew, axis=(-2, -1)) > HERMITICITY_RTOL * np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))
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
