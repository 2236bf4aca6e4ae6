"""What a result needs to be reproduced: code identity, interpreter, BLAS, cores."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

# Environment variables that cap the BLAS thread pool. The benchmark sets
# them to one thread, whatever the caller's environment says: the sectors it
# measures are at most 257 x 257, where a second BLAS thread costs more than
# it saves, and one fixed pool makes runs comparable across machines.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def pin_blas_threads() -> None:
    """Cap BLAS at one thread; must run before numpy is imported."""
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git_dir = root / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(src: Path) -> str:
    """sha256 over every .py file under src, so a result names its code
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _openblas_threads() -> int | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def blas_info() -> dict:
    import numpy as np

    name = version = None
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    return {
        "name": name,
        "version": version,
        "threads": _openblas_threads(),
        "thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def describe(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
    }
