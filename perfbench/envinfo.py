"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from pathlib import Path


def _blas() -> dict:
    import numpy as np

    info = {"name": None, "version": None, "threads": None, "config": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = dep.get("name"), dep.get("version")
    except (KeyError, TypeError):
        pass
    # numpy wheels bundle OpenBLAS under <site-packages>/numpy.libs with a
    # symbol prefix; ask the loaded library for its live thread count.
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(handle, f"{prefix}_get_config{suffix}", None)
                if get_threads is None:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                info["threads"] = get_threads()
                if get_config is not None:
                    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                    info["config"] = get_config().decode("ascii", "replace")
                return info
    return info


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git directly."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, naming the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def record(root: Path, seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": sys.platform,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src"),
        "seed": seed,
    }
