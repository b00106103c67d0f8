"""Order-preserving parallel map over the QK_THREADS-controlled pool."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count() -> int:
    """Resolve QK_THREADS: unset or 0 means one worker per CPU."""
    raw = os.environ.get("QK_THREADS", "0").strip()
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"QK_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ValueError(f"QK_THREADS must be nonnegative, got {n}")
    return n if n > 0 else (os.cpu_count() or 1)


def parallel_map(fn, items) -> list:
    """Apply fn to each item, results in input order."""
    items = list(items)
    workers = worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
