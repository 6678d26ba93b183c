"""Where and on what a result was measured, attached to every result."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Results that differ in any of these ran different kernels and are not comparable.
BACKEND_KEYS = ("numba", "use_numba", "CIRCLE_SQM_THREADS", "CIRCLE_SQM_PURE_NUMPY")


def collect(seed: int) -> dict:
    import numpy

    from circle_sqm.numerics import _kernels

    numba_spec = importlib.util.find_spec("numba")
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_spec is not None,
        "use_numba": bool(_kernels.USE_NUMBA),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "CIRCLE_SQM_THREADS": os.environ.get("CIRCLE_SQM_THREADS"),
        "CIRCLE_SQM_PURE_NUMPY": os.environ.get("CIRCLE_SQM_PURE_NUMPY"),
    }


def backend_mismatch(a: dict, b: dict) -> list[str]:
    """Backend fields on which two provenance blocks differ."""
    return [key for key in BACKEND_KEYS if a.get(key) != b.get(key)]


def _git_commit() -> str | None:
    """HEAD of this checkout, read from ``.git`` directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (index / "size").read_text().strip())
    except OSError:
        pass
    return sizes
