"""Builds, caches and loads the compiled coordinate pass in ``_quadpass.c``.

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
    """``quad_pass(rule, n, A, r, y, aux, c)`` of the cached library, built
    if need be; None, for the NumPy pass, if no private cache directory
    (RuntimeError: no home), compiler or load works."""
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
        fn = ctypes.CDLL(str(lib)).quad_pass
    except (OSError, RuntimeError, subprocess.SubprocessError,
            AttributeError):
        return None
    vec = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    fn.argtypes = [ctypes.c_int, ctypes.c_long] + [vec] * 5
    fn.restype = None
    return fn
