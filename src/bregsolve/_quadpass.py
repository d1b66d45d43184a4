"""Builds, caches and loads ``_compiled.c``, the one extension module of
compiled code, against the interpreter's ``Python.h``.

It is built on first use and kept, named by the SHA-256 of its source, its
flags (:func:`flags`, with the constants of the inclusion search) and the
interpreter's extension suffix, in ``$XDG_CACHE_HOME/bregsolve``
or ``~/.cache/bregsolve`` (mode 0700); a build there keeps the ``KEEP``
newest modules, one per checkout and interpreter sharing the cache, and
removes every older ``*.so``, also those that earlier versions named
otherwise.  Without such a private directory, gcc or ``Python.h``
nothing is compiled.  The ``sysconfig`` data, for the interpreter's headers,
is read only when the module is built.
"""

from __future__ import annotations

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

from . import inclusion, objectives

SOURCE = Path(__file__).with_name("_compiled.c")
#: No fused multiply-add, no fast math: each operation rounds as Python's
#: and NumPy's; the cheap cost model vectorises the row update of the
#: closed-form pass, each lane rounding alike.
FLAGS = ("-O2", "-fno-strict-aliasing", "-fvect-cost-model=cheap",
         "-ffp-contract=off", "-fPIC", "-shared")
RULES = {"bsor": 0, "blcd": 1}
#: Modules a build leaves in the cache, the newest by modification time.
KEEP = 4

#: What a failed build or load raises: no private cache (RuntimeError: no
#: home), no gcc or no ``Python.h``, a failed compile, a module that does
#: not load.
FAILURES = (OSError, RuntimeError, subprocess.SubprocessError, ImportError)


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


def flags() -> tuple[str, ...]:
    """:data:`FLAGS` and the constants of the inclusion search, read when
    called, as ``-D`` flags of exact literals, so that the compiled search
    and Python's cannot drift apart."""
    names = ("RESIDUAL_TOL", "_BRENT_XTOL", "_BRENT_RTOL", "_BRENT_MAXITER",
             "_DMIN", "_WARM_DOUBLINGS", "_MAX_DOUBLINGS", "_MAX_HALVINGS",
             "_KINK_TOL")
    consts = [(name, getattr(inclusion, name)) for name in names]
    consts.append(("STATIONARY_REL_TOL", objectives.STATIONARY_REL_TOL))
    return (*FLAGS, *("-D" + name.lstrip("_") + "="
                      + (v.hex() if isinstance(v, float) else str(v))
                      for name, v in consts))


def lib_name(suffix: str = EXTENSION_SUFFIXES[0]) -> str:
    """The cached module's file name: a build of another source, other
    flags or constants, or for another interpreter ABI gets another."""
    key = SOURCE.read_bytes() + " ".join(flags()).encode() + suffix.encode()
    return f"compiled-{hashlib.sha256(key).hexdigest()}.so"


def built() -> Path:
    """The cached module, built first if need be (FileNotFoundError if the
    interpreter has no ``Python.h``)."""
    lib = cache_dir() / lib_name()
    if not lib.exists():
        include = sysconfig.get_paths()["include"]
        Path(include, "Python.h").stat()
        with tempfile.TemporaryDirectory(dir=lib.parent) as tmp:
            compile_to(f"{tmp}/{lib.name}", SOURCE, (*flags(), f"-I{include}"))
            os.replace(f"{tmp}/{lib.name}", lib)
        with suppress(OSError):     # another process may prune too
            for stale in sorted(lib.parent.glob("*.so"),
                                key=lambda f: -f.stat().st_mtime)[KEEP:]:
                stale.unlink()
    return lib


@lru_cache(maxsize=None)
def load():
    """The extension module ``bregsolve._compiled``, built at the first
    sweep that asks for it: ``quad_pass``, the closed-form pass; ``sweep``,
    the student-t Bregman sweep.  None, for the Python and NumPy passes,
    if no build or load works."""
    try:
        loader = ExtensionFileLoader("bregsolve._compiled", str(built()))
        module = module_from_spec(spec_from_loader(loader.name, loader))
        loader.exec_module(module)
        return module
    except FAILURES:
        return None
