"""Environment and host-load record attached to every benchmark result.

Everything is read-only: /proc files, the interpreter and the source tree.
Two sets of runs that disagree can be told apart by these fields: a slow
host phase shows as a higher load average or more steal ticks.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs from /proc/stat, None where absent."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def git_sha(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git."""
    head = _read(str(root / ".git" / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(str(root / ".git" / ref)).strip()
    if sha:
        return sha
    for line in _read(str(root / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest(package: Path) -> str:
    """sha256 over the package's .py files, for checkouts without .git."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, package: Path) -> dict:
    import numpy

    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
        "source_sha256": source_digest(package),
    }


def load() -> dict:
    """Load average and steal ticks now; diff two of these over a run."""
    return {"loadavg": list(os.getloadavg()), "steal_ticks": steal_ticks()}
