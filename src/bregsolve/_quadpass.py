"""Builds, caches and loads the compiled code: the sweeps in ``_quadpass.c``
(the closed-form coordinate pass and the student-t inclusion sweep), a
library loaded by ctypes, and the checked solve in ``_checked.c``, an
extension module that also needs the interpreter's ``Python.h``.

Each is built on first use and kept, named by the SHA-256 of its source,
its flags and the interpreter's extension suffix, in
``$XDG_CACHE_HOME/bregsolve`` or ``~/.cache/bregsolve`` (mode 0700); a build
there keeps the ``KEEP`` newest libraries of its kind, one per checkout and
interpreter sharing the cache, and removes older ones.  Without such a
private directory nothing is built.  The ``sysconfig`` data, for the
interpreter's headers, is read only when the extension is built.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile
from contextlib import suppress
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_quadpass.c")
#: No fused multiply-add, no fast math: each operation rounds as NumPy's;
#: the cheap cost model vectorises the row update, each lane rounding alike.
FLAGS = ("-O2", "-fvect-cost-model=cheap", "-ffp-contract=off", "-fPIC",
         "-shared")
#: The checked solve's: an extension module, each operation rounding as
#: Python's.
CHECKED = SOURCE.with_name("_checked.c")
CHECKED_FLAGS = ("-O2", "-fno-strict-aliasing", "-ffp-contract=off", "-fPIC",
                 "-shared")
RULES = {"bsor": 0, "blcd": 1}
#: The dtype of the index arrays the kernels read: C long.
INDEX = np.dtype(f"i{ctypes.sizeof(ctypes.c_long)}")
#: Libraries of a kind a build leaves in the cache, the newest by
#: modification time.
KEEP = 4

#: What a failed build or load raises: no private cache (RuntimeError: no
#: home), no gcc, a failed compile, a library that does not load.
FAILURES = (OSError, RuntimeError, subprocess.SubprocessError, ImportError,
            AttributeError)


def cache_dir() -> Path:
    """The per-user cache directory; OSError if others may write to it."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    path = Path(base) / "bregsolve"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = path.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{path} is not private to this user")
    return path


def compile_to(out: str, source: Path, flags: tuple[str, ...]):
    subprocess.run(["gcc", *flags, "-o", out, str(source)], check=True,
                   capture_output=True, timeout=300)


def lib_name(stem: str, source: Path, flags: tuple[str, ...],
             suffix: str = EXTENSION_SUFFIXES[0]) -> str:
    """The cached library's file name: a build of another source, other
    flags or for another interpreter ABI gets another."""
    key = source.read_bytes() + " ".join(flags).encode() + suffix.encode()
    return f"{stem}-{hashlib.sha256(key).hexdigest()}.so"


def built(stem: str, source: Path, flags: tuple[str, ...],
          headers: bool = False) -> Path:
    """The cached library of ``source``, built first if need be, against
    the interpreter's ``Python.h`` if ``headers`` (FileNotFoundError if it
    has none)."""
    lib = cache_dir() / lib_name(stem, source, flags)
    if not lib.exists():
        if headers:
            include = sysconfig.get_paths()["include"]
            Path(include, "Python.h").stat()
            flags = (*flags, f"-I{include}")
        with tempfile.TemporaryDirectory(dir=lib.parent) as tmp:
            compile_to(f"{tmp}/{lib.name}", source, flags)
            os.replace(f"{tmp}/{lib.name}", lib)
        with suppress(OSError):     # another process may prune too
            for stale in sorted(lib.parent.glob(f"{stem}-*.so"),
                                key=lambda f: -f.stat().st_mtime)[KEEP:]:
                stale.unlink()
    return lib


@lru_cache(maxsize=None)
def load():
    """The cached library, built if need be, with ``quad_pass`` and
    ``inclusion_sweep``, whose arrays are passed by :func:`ptr`; None, for
    the Python passes, if no build or load works."""
    try:
        dll = ctypes.CDLL(str(built("quadpass", SOURCE, FLAGS)))
        quad, sweep = dll.quad_pass, dll.inclusion_sweep
    except FAILURES:
        return None
    long, addr = ctypes.c_long, ctypes.c_void_p
    quad.argtypes, quad.restype = [ctypes.c_int, long] + [addr] * 5, None
    sweep.argtypes = [long] * 2 + [ctypes.c_double] * 5 + [addr] * 6 \
        + [long, addr]
    sweep.restype = long
    return dll


@lru_cache(maxsize=None)
def load_checked():
    """The extension module ``bregsolve._checked``, built if need be, whose
    ``solve_inclusion`` is ``inclusion.solve_inclusion`` compiled; None, for
    the Python solve, if the interpreter has no ``Python.h`` or no build or
    load works."""
    try:
        lib = built("checked", CHECKED, CHECKED_FLAGS, headers=True)
        loader = ExtensionFileLoader("bregsolve._checked", str(lib))
        module = module_from_spec(spec_from_loader(loader.name, loader))
        loader.exec_module(module)
        return module
    except FAILURES:
        return None


def ptr(a: np.ndarray, dtype=np.dtype(np.float64)) -> int:
    """The address of ``a``, which the caller keeps alive over the call;
    TypeError unless ``a`` is a C-contiguous array of ``dtype``."""
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise TypeError(f"expected a C-contiguous {dtype} array, got "
                        f"{a.dtype}, C-contiguous: {a.flags.c_contiguous}")
    return a.ctypes.data
