"""Banded LU factor and solve: LAPACK's ``dgbtrf`` and ``dgbtrs``.

    lu = dgbtrf(ab, kl, ku)       # Factors of A; check lu.info before solving
    x = dgbtrs(lu, b)             # A x = b
    X = dgbtrs(lu, B, trans=1)    # A^T X = B, one column per right-hand side

``ab`` holds A in LAPACK band layout (``2*kl + ku + 1`` rows) and is
overwritten when it already is a Fortran-ordered float64 array.  A 1-D
``trans=0`` solve on numpy's LAPACK returns the factors' own output
buffer, which the next such solve with the same factors overwrites.

The two routines come from the LAPACK that numpy itself links.  numpy's
wheels bundle an ILP64 OpenBLAS (64-bit integers, ``scipy_`` prefix and
``64_`` suffix) whose symbols resolve through numpy's own linalg
extension, so they are called through ``ctypes`` and importing linewatch
never loads scipy.  Where numpy's LAPACK does not export them (conda and
MKL builds, macOS Accelerate), the same two names call
``scipy.linalg.lapack`` instead, imported on first use.  Which backend
runs is decided once, at import, from what the platform exposes.

Both backends run LAPACK's reference ``dgbtrf`` and ``dgbtrs`` on
OpenBLAS kernels, and with numpy's and scipy's wheels a factorization
and its solves give the same bits either way.  Pivots stay in the
backend's own convention (1-based here, 0-based from scipy); only the
same backend's ``dgbtrs`` reads them.

Building a ctypes call's arguments costs more than the solve itself on a
small grid, so a factorization binds its one-right-hand-side solve once:
:class:`Factors` holds the ready argument tuple and the output buffer
the solve writes into.
"""

import ctypes

import numpy as np

__all__ = ["Factors", "dgbtrf", "dgbtrs"]


class Factors:
    """The LU factors of one banded matrix, as ``dgbtrf`` leaves them.

    ``ab`` holds the factors in LAPACK band layout (``2*kl + ku + 1``
    rows), ``piv`` the row interchanges and ``info`` LAPACK's status: a
    positive value means U is exactly singular, and solving with the
    factors divides by zero.
    """

    __slots__ = ("ab", "piv", "info", "kl", "ku", "_ints", "_x", "_solve")

    def __init__(self, ab, piv, info, kl, ku):
        self.ab, self.piv, self.info, self.kl, self.ku = ab, piv, int(info), kl, ku


# ------------------------------------------------------------ numpy's LAPACK

def _numpy_routines():
    """numpy's ``(dgbtrf, dgbtrs)`` as ctypes functions, or None when its
    LAPACK does not export them."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
        gbtrf, gbtrs = lib.scipy_dgbtrf_64_, lib.scipy_dgbtrs_64_
    except (ImportError, OSError, AttributeError):
        return None
    # Every argument is passed by address; dgbtrs's trailing size_t is
    # gfortran's hidden length of its TRANS string.
    gbtrf.argtypes = [ctypes.c_void_p] * 8
    gbtrf.restype = None
    gbtrs.argtypes = [ctypes.c_void_p] * 11 + [ctypes.c_size_t]
    gbtrs.restype = None
    return gbtrf, gbtrs


_ROUTINES = _numpy_routines()
_TRANS = ctypes.create_string_buffer(b"NT")   # dgbtrs's TRANS: "N" at +0, "T" at +1


def _numpy_dgbtrf(ab, kl, ku):
    ab = np.asfortranarray(ab, dtype=np.float64)
    if ab.ndim != 2 or ab.shape[0] != 2 * kl + ku + 1:
        raise ValueError(f"band of shape {ab.shape}, need 2*kl + ku + 1 = {2 * kl + ku + 1} rows")
    n = ab.shape[1]
    # The integers LAPACK reads by address (n, kl, ku, ldab and a one),
    # the info it writes, then the pivots: one buffer, one address.
    ints = np.zeros(6 + n, dtype=np.int64)
    ints[:5] = n, kl, ku, ab.shape[0], 1
    lu = Factors(ab, ints[6:], 0, kl, ku)
    lu._ints, lu._x = ints, np.empty(n)
    lu._solve = _solve_args(lu, b"N", lu._x)
    _, at_n, at_kl, at_ku, _, at_ab, at_ldab, at_piv, _, _, at_info, _ = lu._solve
    _ROUTINES[0](at_n, at_n, at_kl, at_ku, at_ab, at_ldab, at_piv, at_info)
    lu.info = int(ints[5])
    return lu


def _solve_args(lu, trans, x, nrhs=None):
    """``dgbtrs``'s arguments solving in place in ``x`` (Fortran order)
    for op(A) = A (``trans`` b"N") or A^T (b"T").  ``nrhs`` is an int64
    array holding the count of right-hand sides when that is not 1.
    Every buffer the addresses point into is owned by ``lu`` or by the
    caller, who keeps it alive through the call."""
    base = lu._ints.ctypes.data
    at_n, at_kl, at_ku, at_ldab, at_one, at_info, at_piv = range(base, base + 56, 8)
    return (ctypes.addressof(_TRANS) + (trans == b"T"), at_n, at_kl, at_ku,
            at_one if nrhs is None else nrhs.ctypes.data, lu.ab.ctypes.data, at_ldab, at_piv,
            x.ctypes.data, at_n, at_info, 1)


def _numpy_dgbtrs(lu, b, trans=0):
    if b.ndim == 1 and not trans:
        x = lu._x
        x[:] = b
        _ROUTINES[1](*lu._solve)
        return x
    x = np.array(b, dtype=np.float64, order="F")
    if x.ndim not in (1, 2) or x.shape[0] != lu.ab.shape[1]:
        raise ValueError(f"right-hand side of shape {x.shape} for {lu.ab.shape[1]} unknowns")
    nrhs = np.array([1 if x.ndim == 1 else x.shape[1]], dtype=np.int64)
    _ROUTINES[1](*_solve_args(lu, b"T" if trans else b"N", x, nrhs))
    return x


# ------------------------------------------------------------ scipy fallback

def _scipy_lapack():
    try:
        from scipy.linalg import lapack
    except ImportError:
        raise ImportError(
            "numpy's LAPACK does not export dgbtrf/dgbtrs and scipy is not "
            "installed: pip install linewatch[scipy]") from None
    return lapack


def _scipy_dgbtrf(ab, kl, ku):
    lu, piv, info = _scipy_lapack().dgbtrf(ab, kl, ku, overwrite_ab=True)
    return Factors(lu, piv, info, kl, ku)


def _scipy_dgbtrs(lu, b, trans=0):
    x, _ = _scipy_lapack().dgbtrs(lu.ab, lu.kl, lu.ku, b, lu.piv, trans=trans)
    return x


# ------------------------------------------------------------ the interface

if _ROUTINES is not None:
    dgbtrf, dgbtrs = _numpy_dgbtrf, _numpy_dgbtrs
else:
    dgbtrf, dgbtrs = _scipy_dgbtrf, _scipy_dgbtrs
