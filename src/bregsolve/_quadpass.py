"""Builds, caches and loads the compiled sweeps in ``_quadpass.c``: the
closed-form coordinate pass and the student-t inclusion sweep.

The library is built on first use and kept, named by the SHA-256 of its
source and flags, in ``$XDG_CACHE_HOME/bregsolve`` or ``~/.cache/bregsolve``
(mode 0700); a build there keeps the ``KEEP`` newest libraries, one per
checkout sharing the cache, and removes older ones.  Without such a private
directory it is not built at all.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from contextlib import suppress
from functools import lru_cache
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_quadpass.c")
#: No fused multiply-add, no fast math: each operation rounds as NumPy's;
#: the cheap cost model vectorises the row update, each lane rounding alike.
FLAGS = ("-O2", "-fvect-cost-model=cheap", "-ffp-contract=off", "-fPIC",
         "-shared")
RULES = {"bsor": 0, "blcd": 1}
#: The dtype of the index arrays the kernels read: C long.
INDEX = np.dtype(f"i{ctypes.sizeof(ctypes.c_long)}")
#: Libraries a build leaves in the cache, the newest by modification time.
KEEP = 4


def cache_dir() -> Path:
    """The per-user cache directory; OSError if others may write to it."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    path = Path(base) / "bregsolve"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = path.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{path} is not private to this user")
    return path


def compile_to(out: str):
    subprocess.run(["gcc", *FLAGS, "-o", out, str(SOURCE)], check=True,
                   capture_output=True, timeout=300)


@lru_cache(maxsize=None)
def load():
    """The cached library, built if need be, with ``quad_pass`` and
    ``inclusion_sweep``, whose arrays are passed by :func:`ptr`; None, for
    the Python passes, if no private cache directory (RuntimeError: no
    home), compiler or load works."""
    try:
        key = SOURCE.read_bytes() + " ".join(FLAGS).encode()
        lib = cache_dir() / f"quadpass-{hashlib.sha256(key).hexdigest()}.so"
        if not lib.exists():
            with tempfile.TemporaryDirectory(dir=lib.parent) as tmp:
                compile_to(f"{tmp}/{lib.name}")
                os.replace(f"{tmp}/{lib.name}", lib)
            with suppress(OSError):     # another process may prune too
                for stale in sorted(lib.parent.glob("quadpass-*.so"),
                                    key=lambda f: -f.stat().st_mtime)[KEEP:]:
                    stale.unlink()
        dll = ctypes.CDLL(str(lib))
        quad, sweep = dll.quad_pass, dll.inclusion_sweep
    except (OSError, RuntimeError, subprocess.SubprocessError,
            AttributeError):
        return None
    long, addr = ctypes.c_long, ctypes.c_void_p
    quad.argtypes, quad.restype = [ctypes.c_int, long] + [addr] * 5, None
    sweep.argtypes = [long] * 2 + [ctypes.c_double] * 5 + [addr] * 6 \
        + [long, addr]
    sweep.restype = long
    return dll


def ptr(a: np.ndarray, dtype=np.dtype(np.float64)) -> int:
    """The address of ``a``, which the caller keeps alive over the call;
    TypeError unless ``a`` is a C-contiguous array of ``dtype``."""
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise TypeError(f"expected a C-contiguous {dtype} array, got "
                        f"{a.dtype}, C-contiguous: {a.flags.c_contiguous}")
    return a.ctypes.data
