"""Build and load the package's optional C kernels.

Each kernel is one C file beside the module that calls it
(``coloring/_split.c``, ``exec/_gather.c``).  On import that module
asks :func:`load_library` for its exported functions: the first import
compiles the file with the system C compiler into the package's
``__pycache__`` (about 0.1 s) and later imports reuse the library.
Without a compiler or a writable ``__pycache__`` there is no kernel,
and the caller runs its NumPy reference instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path
from types import SimpleNamespace
from typing import Any

__all__ = ["CFLAGS", "build", "library_path", "load_library", "open_library"]

CFLAGS = ("-O2", "-shared", "-fPIC")


def library_path(source: Path, cache_dir: Path) -> Path:
    """Where the library built from today's ``source`` and flags lives."""
    digest = hashlib.sha256(source.read_bytes())
    digest.update(" ".join(CFLAGS).encode())
    return cache_dir / f"{source.stem}-{digest.hexdigest()[:16]}.so"


def build(source: Path, target: Path) -> bool:
    """Compile ``source`` to ``target``; ``False`` when it cannot.

    The builder appends the SHA-256 of the library to it (the loader
    ignores bytes past the ELF's own) and writes it to a temporary file
    beside ``target`` that it renames into place, so a concurrent
    importer sees either no file or a complete one.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
    except OSError:
        return False
    os.close(fd)
    try:
        subprocess.run(
            ["cc", *CFLAGS, "-o", tmp, str(source)],
            check=True, capture_output=True, timeout=120,
        )
        library = Path(tmp).read_bytes()
        Path(tmp).write_bytes(library + hashlib.sha256(library).digest())
        os.chmod(tmp, 0o755)
        os.replace(tmp, target)
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return True


def open_library(path: Path, symbols: Iterable[str]) -> Any:
    """The library's ``symbols`` as attributes of one namespace, or
    ``None`` if it does not load or lacks one of them.

    Only a file that ends in the SHA-256 of the bytes before it is
    handed to the dynamic loader: mapping a truncated library can kill
    the process with ``SIGBUS`` instead of raising.
    """
    try:
        data = path.read_bytes()
        if hashlib.sha256(data[:-32]).digest() != data[-32:]:
            return None
        library = ctypes.CDLL(str(path))
        return SimpleNamespace(
            **{symbol: getattr(library, symbol) for symbol in symbols}
        )
    except (OSError, AttributeError):
        return None


def load_library(
    source: Path,
    signatures: Mapping[str, tuple[Sequence[Any], Any]],
    cache_dir: Path | None = None,
) -> Any:
    """The functions of the library built from ``source``, or ``None``.

    ``signatures`` maps each exported symbol to its ``(argtypes,
    restype)``; the result has one attribute per symbol, each with
    them declared, and is ``None`` unless every symbol loads.  The
    library is cached in ``cache_dir`` (the ``__pycache__`` beside
    ``source`` by default).  A missing, truncated or foreign library is
    rebuilt once; without a compiler or a writable ``cache_dir`` there
    is no library.
    """
    if cache_dir is None:
        cache_dir = source.with_name("__pycache__")
    try:
        path = library_path(source, cache_dir)
        cache_dir.mkdir(exist_ok=True)
    except OSError:
        return None
    library = open_library(path, signatures)
    if library is None and build(source, path):
        library = open_library(path, signatures)
    if library is not None:
        for symbol, (argtypes, restype) in signatures.items():
            function = getattr(library, symbol)
            function.argtypes = list(argtypes)
            function.restype = restype
    return library
