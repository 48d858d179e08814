"""The package's native library: ``_native.c`` built with the local C
compiler on first use and loaded through ctypes.

One source, one shared library and one fallback decision for every caller:
``_compiled_kernel()`` is None when the build or the load fails, and each
caller then runs its Python reference, which gives the same outputs.
Nothing here runs at import time.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import struct
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

# -ffp-contract=off forbids fused multiply-adds, so that theta + eps * z
# rounds twice, as numpy's two array operations round it.
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _build_kernel() -> Path:
    """Compile ``_native.c`` into this package's ``__pycache__``, named after
    a hash of the source and the flags, unless it is there.  A new build
    deletes the libraries of other sources left there."""
    import subprocess  # imported on the first build only, to keep the package import fast

    source = resources.files(__package__).joinpath("_native.c").read_bytes()
    digest = hashlib.sha256(" ".join(_FLAGS).encode() + b"\0" + source).hexdigest()[:16]
    cache = Path(__file__).with_name("__pycache__")
    target = cache / f"_native-{digest}.so"
    if not target.exists():
        cache.mkdir(exist_ok=True)
        fd, partial = tempfile.mkstemp(dir=cache, prefix="_native-", suffix=".tmp")
        os.close(fd)
        try:
            subprocess.run(["cc", *_FLAGS, "-x", "c", "-", "-o", partial],
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
    """The library through ctypes, built and loaded on first use; None when
    that fails."""
    import subprocess

    try:
        lib = ctypes.CDLL(str(_build_kernel()))
    except (OSError, subprocess.SubprocessError):
        return None
    ptr, size, real = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    for name, argtypes, restype in (
        ("forest_rows", [ptr, ptr, size, size, size, ptr], size),
        ("perturbed_forest_rows", [ptr, ptr, real, ptr, size, size, size, ptr], size),
        ("split_rows", [ptr, ptr, size, ptr, size, size, size, ptr], size),
        ("completion_rows", [ptr, ptr, ptr, size, size, size, ptr], size),
        ("seed_state", [ptr, size, ptr], None),
    ):
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


def doubles(n: int) -> tuple[ctypes.Array, np.ndarray]:
    """A zeroed buffer of n doubles to pass to the library, and numpy's view
    of it: cheaper than a new array and its ``.ctypes.data``."""
    buffer = (ctypes.c_double * n)()
    return buffer, np.frombuffer(buffer)


def seed_state(seed: int, spawn_key: tuple[int, ...]) -> np.ndarray | None:
    """``SeedSequence(seed, spawn_key=spawn_key).generate_state(4, np.uint64)``
    from the library, bit for bit; None when the library is not loaded or
    the seed or a key entry lies outside [0, 2**32)."""
    kernel = _compiled_kernel()
    if kernel is None:
        return None
    n = len(spawn_key) + 1
    try:
        entropy = _uint32_words(n)(seed, *spawn_key)
    except struct.error:
        return None
    state = (ctypes.c_uint64 * 4)()
    kernel.seed_state(entropy, n, state)
    return np.frombuffer(state, dtype=np.uint64)


@functools.cache
def _uint32_words(n: int):
    """Packs n integers in [0, 2**32) as native uint32 words."""
    return struct.Struct(f"={n}I").pack
