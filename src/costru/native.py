"""The package's native library: ``_native.c`` built with the C compiler
``cc`` on first use, linked with numpy's static random library
``numpy/random/lib/libnpyrandom.a`` for numpy's own standard normal
sampler, and loaded through ctypes.

The library is the only implementation of the spanning-tree oracles, and it
draws every Monte-Carlo tilt, so ``cc`` and the archive are required for
those; numpy seeds and draws every other random number without it.
``_compiled_kernel()`` raises ``NativeLibraryError`` when the archive is
missing or the build or the load fails.  Its fused passes call numpy's own
BLAS (``_numpy_blas``), and each may start one helper thread that draws the
normals ahead (``_cpu_count``).  Nothing here runs at import time.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import logging
import os
import struct
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

# -ffp-contract=off forbids fused multiply-adds, so that theta + eps * z
# rounds twice, as numpy's two array operations round it; -pthread for the
# passes' helper thread.
_FLAGS = ("-O2", "-ffp-contract=off", "-pthread", "-shared", "-fPIC")
# numpy's SeedSequence pool size, in 32-bit words.
_POOL = 4
# numpy's ILP64 cblas_dgemv and cblas_ddot, as its OpenBLAS names them.
_BLAS = ("scipy_cblas_dgemv64_", "scipy_cblas_ddot64_")


class NativeLibraryError(RuntimeError):
    """The native library could not be built with ``cc`` and numpy's random
    library, or loaded."""


def _npyrandom_archive() -> Path:
    """numpy's static random library, whose ``random_standard_normal_fill``
    the native library links."""
    return Path(np.random.__file__).parent / "lib" / "libnpyrandom.a"


def _build_kernel() -> Path:
    """Compile ``_native.c`` into this package's ``__pycache__``, named after
    a hash of the flags, the source and numpy's random library (so that a
    numpy upgrade rebuilds it), unless it is there.  A new build deletes the
    libraries of other sources left there."""
    import subprocess  # imported on the first build only, to keep the package import fast

    source = resources.files(__package__).joinpath("_native.c").read_bytes()
    archive = _npyrandom_archive()
    try:
        archive_bytes = archive.read_bytes()
    except OSError as exc:
        raise NativeLibraryError(
            f"cannot build the native library without numpy's random library {archive}: "
            f"{exc}") from exc
    digest = hashlib.sha256(b"\0".join([" ".join(_FLAGS).encode(), source,
                                        archive_bytes])).hexdigest()[:16]
    cache = Path(__file__).with_name("__pycache__")
    target = cache / f"_native-{digest}.so"
    if not target.exists():
        cache.mkdir(exist_ok=True)
        fd, partial = tempfile.mkstemp(dir=cache, prefix="_native-", suffix=".tmp")
        os.close(fd)
        try:
            subprocess.run(["cc", *_FLAGS, "-x", "c", "-", "-x", "none", str(archive), "-lm",
                            "-o", partial],
                           input=source, capture_output=True, check=True, timeout=120)
            os.chmod(partial, 0o755)  # mkstemp made it private to this user
            os.replace(partial, target)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
        for stale in cache.glob("_native-*.so"):
            if stale != target:
                with contextlib.suppress(OSError):  # best effort; the new build stands
                    stale.unlink()
    return target


@functools.cache
def _compiled_kernel():
    """The library through ctypes, built and loaded on first use.  Raises
    ``NativeLibraryError`` when ``cc`` is missing, fails or times out, when
    the cache is not writable, or when the library does not load; the
    message ends with the compiler's last lines of standard error."""
    import subprocess

    try:
        lib = ctypes.CDLL(str(_build_kernel()))
    except (OSError, subprocess.SubprocessError) as exc:
        stderr = getattr(exc, "stderr", None) or b""
        tail = stderr.decode(errors="replace").strip().splitlines()[-5:]
        raise NativeLibraryError("\n".join(
            [f"cannot build the native library with the C compiler cc, or load it: {exc}",
             *tail])) from exc
    ptr, size, real = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    for name, argtypes, restype in (
        ("forest_rows", [ptr, ptr, size, size, size, ptr], size),
        ("perturbed_forest_rows", [ptr, ptr, size, real, ptr, size, size, size, ptr], size),
        ("perturbed_adam_pass", [ptr, ptr, size, size, size, ptr, size, real, size, ptr, size,
                                 size, ptr, size, real, real, real, real, ptr, size, ptr], size),
        ("perturbed_split_pass", [ptr, ptr, ptr, size, size, ptr, ptr, size, real, real, size,
                                  ptr, size, size, ptr, size, ptr, ptr], size),
        ("split_rows", [ptr, ptr, size, ptr, size, size, size, ptr], size),
        ("completion_sums", [ptr, size, ptr, size, ptr, size, size, ptr], size),
        ("raw_fill", [ptr, size, size, ptr], None),
        ("normal_fill", [ptr, size, size, ptr], None),
        ("adam_step", [ptr, size, real, real, real, real, real, real], size),
    ):
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


@functools.cache
def _numpy_blas() -> ctypes.Array | None:
    """The addresses of numpy's BLAS entries ``_BLAS``, which its matmul calls,
    found on first use; None when numpy lacks them (a numpy built on another
    BLAS), which is logged once at info level: the spanning-tree oracle then
    offers no fused pass, and training takes the generic path."""
    try:
        core = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return (ctypes.c_void_p * len(_BLAS))(*(ctypes.cast(getattr(core, name), ctypes.c_void_p)
                                                for name in _BLAS))
    except (AttributeError, OSError) as exc:
        logging.getLogger(__name__).info(
            "numpy's BLAS entries %s are missing (%s): training takes the generic path",
            ", ".join(_BLAS), exc)
        return None


def _cpu_count() -> int:
    """The number of CPUs that this process may run on, asked at every pass:
    a pass starts its helper thread only when there is more than one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def entropy(seed: int, spawn_key: tuple[int, ...]) -> bytes:
    """numpy's ``SeedSequence.get_assembled_entropy`` as native uint32 words;
    a negative seed or key entry raises ``ValueError`` and one that is not
    an int ``TypeError``, as numpy does."""
    try:
        return _short_entropy(len(spawn_key))(seed, *spawn_key)
    except struct.error:
        return _assembled_entropy(seed, spawn_key)


@functools.cache
def _short_entropy(n_key: int):
    """Packs a seed and n_key key entries, each in [0, 2**32), as their
    assembled entropy words: the seed, zero-padded to the pool size when a
    key follows, then the key."""
    return struct.Struct(f"=I{4 * (_POOL - 1)}x{n_key}I" if n_key else "=I").pack


def _assembled_entropy(seed: int, spawn_key: tuple[int, ...]) -> bytes:
    """``entropy`` for ints of any width."""
    run = _words(seed)
    key = [word for entry in spawn_key for word in _words(entry)]
    if key:
        run += [0] * (_POOL - len(run))
    words = run + key
    return struct.pack(f"={len(words)}I", *words)


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words of a non-negative int; [0] for 0."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"seed must be integer, not {value!r}")
    if value < 0:
        raise ValueError("expected non-negative integer")
    value = int(value)
    return [value >> shift & 0xFFFFFFFF for shift in range(0, value.bit_length() or 1, 32)]
