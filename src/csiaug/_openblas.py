"""The routines of the OpenBLAS build NumPy bundles, found once for every module.

They are found through the symbols of NumPy's linear-algebra extension, so
they are the OpenBLAS build ``np.linalg.eigh`` and ``@`` run on: the fit's
scatter, the three steps of its eigensolver, and the thread count every
matrix product reads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from typing import Callable, Iterator, NamedTuple


class _Blas(NamedTuple):
    """NumPy's own bundled ``cblas_dsyrk``, the ``LAPACKE`` routines ``dsytrd``,
    ``dstemr`` and ``dormtr``, and the thread count."""

    dsyrk: Callable[..., None]
    dsytrd: Callable[..., int]
    dstemr: Callable[..., int]
    dormtr: Callable[..., int]
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


@functools.cache
def _blas() -> _Blas | None:
    """The bundled routines, or ``None`` where NumPy's linear-algebra extension
    and the libraries it links lack one of them, as every build but a
    scipy-openblas one does: only it exports these ``scipy_..._64_`` names."""
    from numpy.linalg import _umath_linalg
    try:
        library = ctypes.CDLL(_umath_linalg.__file__)
        dsyrk = library.scipy_cblas_dsyrk64_
        dsytrd, dstemr = library.scipy_LAPACKE_dsytrd64_, library.scipy_LAPACKE_dstemr64_
        dormtr = library.scipy_LAPACKE_dormtr64_
        get_threads = library.scipy_openblas_get_num_threads64_
        set_threads = library.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    enum, char, i64 = ctypes.c_int, ctypes.c_char, ctypes.c_int64
    f64, ptr = ctypes.c_double, ctypes.c_void_p
    dsyrk.restype = None
    dsyrk.argtypes = [enum, enum, enum, i64, i64, f64, ptr, i64, f64, ptr, i64]
    dsytrd.restype = dstemr.restype = dormtr.restype = i64
    dsytrd.argtypes = [enum, char, i64, ptr, i64, ptr, ptr, ptr]
    dstemr.argtypes = [enum, char, char, i64, ptr, ptr, f64, f64, i64, i64, ptr, ptr, ptr, i64,
                       i64, ptr, ptr]
    dormtr.argtypes = [enum, char, char, char, i64, i64, ptr, i64, ptr, ptr, i64]
    get_threads.restype, get_threads.argtypes = ctypes.c_int, []
    set_threads.restype, set_threads.argtypes = None, [ctypes.c_int]
    return _Blas(dsyrk, dsytrd, dstemr, dormtr, get_threads, set_threads)


# Held while a block runs pinned: a pin that read another thread's pinned
# count would restore one thread for good.
_pin = threading.Lock()


@contextlib.contextmanager
def _one_thread() -> Iterator[None]:
    """Run the block's matrix products on one OpenBLAS thread, then restore
    the count it found; a build without the controls runs it as it is.

    The count is process-global: BLAS work in other Python threads also runs
    on one thread until the block exits, and pinned blocks in several
    threads take turns.  The build's ``openblas_set_num_threads_local`` sets
    the count every thread reads too, so it would need the lock as well.
    """
    blas = _blas()
    if blas is None:
        yield
        return
    with _pin:
        threads = blas.get_num_threads()
        blas.set_num_threads(1)
        try:
            yield
        finally:
            blas.set_num_threads(threads)
