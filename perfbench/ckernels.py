"""Out-of-tree build of the compiled placement kernels.

The ``paper-secondnet-c`` workload measures the C backend of
``repro._kernels``.  Building the extension in place would drop a
``_ckernels`` shared object into ``src/`` and flip every later
``REPRO_KERNELS=auto`` process — the tier-1 suite included — to the C
backend.  So the benchmark copies ``_ckernels.c`` into its own build
directory, compiles it there with the flags ``setup.py`` uses, and, in
the C workload's processes only, installs an import hook that serves
``repro._kernels._ckernels`` from that build.

The build directory is keyed by the source's SHA-256, so an edited
``_ckernels.c`` is rebuilt and an unchanged one is reused.
"""

from __future__ import annotations

import hashlib
import importlib.abc
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

__all__ = ["build", "install_finder"]

MODULE = "repro._kernels._ckernels"

# setup.py's flags: -ffp-contract=off keeps the C float arithmetic
# bit-exact with CPython (no fused multiply-adds).
_SETUP = """
from setuptools import Extension, setup
setup(
    name="perfbench-ckernels",
    ext_modules=[Extension("_ckernels", sources=["_ckernels.c"],
                           extra_compile_args=["-O2", "-ffp-contract=off"])],
    script_args=["-q", "build_ext", "--build-lib", "lib", "--build-temp", "tmp"],
)
"""


def _built(directory: Path) -> Path | None:
    found = sorted((directory / "lib").glob("_ckernels*"))
    return found[0] if found else None


def build(source: Path, build_root: Path) -> Path:
    """Compile ``source`` under ``build_root``; returns the shared object.

    Raises ``RuntimeError`` (with the compiler output) when the build
    fails — the C workload never falls back to the Python kernels.
    """
    digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    directory = build_root / f"ckernels-{digest}"
    shared = _built(directory)
    if shared is not None:
        return shared
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    shutil.copyfile(source, directory / "_ckernels.c")
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP],
        cwd=directory,
        capture_output=True,
        text=True,
        timeout=600,
    )
    shared = _built(directory)
    if proc.returncode != 0 or shared is None:
        raise RuntimeError(
            f"building the compiled kernels failed (exit {proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return shared


class _Finder(importlib.abc.MetaPathFinder):
    def __init__(self, shared: Path) -> None:
        self.shared = shared

    def find_spec(self, fullname, path=None, target=None):
        if fullname != MODULE:
            return None
        return importlib.util.spec_from_file_location(fullname, self.shared)


def install_finder(shared: Path) -> None:
    """Serve ``repro._kernels._ckernels`` from ``shared``.

    Must run before ``repro._kernels`` is first imported: the package
    probes for the extension once, at import time.
    """
    if "repro._kernels" in sys.modules:
        raise RuntimeError("repro._kernels was imported before the finder")
    sys.meta_path.insert(0, _Finder(shared))
