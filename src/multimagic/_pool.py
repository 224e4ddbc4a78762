"""One worker pool shared by the per-entry passes (power sums, member
pass, grid square rows, text encoding and decoding).

The pool is created on first use, so importing the package starts no
thread: the package's import loads no module, and so not numpy, whose
OpenBLAS starts worker threads as it loads.  The command line limits
OpenBLAS to one thread before numpy loads, so its processes run the
calling thread and these workers only.  The workers run private kernels
only; public functions always run on the calling thread.  A call made
on a worker runs inline, so nested maps cannot deadlock.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor


def usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# The most workers a pool may have: ordered_map keeps 2 * size() calls
# submitted, each of which may start a thread.
MAX_WORKERS = 256

_size = usable_cores()
_executor: ThreadPoolExecutor | None = None
_lock = threading.Lock()  # guards _size and _executor
_local = threading.local()


def size() -> int:
    """Number of workers."""
    return _size


def set_size(workers: int) -> None:
    """Use workers threads from now on; 1 runs every map inline."""
    global _size, _executor
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"the pool takes 1 to {MAX_WORKERS} workers, not {workers}")
    with _lock:
        if _executor is not None and workers != _size:
            _executor.shutdown()
            _executor = None
        _size = workers


def blocks(count: int, per_item: int, budget: int) -> range:
    """Starts of the blocks that split count items of per_item entries
    each, a block holding budget / size() entries or, if that is less,
    one item; the step of the range is the block length."""
    return range(0, count, max(1, budget // _size // max(1, per_item)))


def _mark_worker() -> None:
    _local.worker = True


def ordered_map(fn, items, limit: int = 2 * MAX_WORKERS):
    """Yield fn(item) for each item, in order, with at most
    min(limit, 2 * size()) calls submitted and not yet yielded."""
    global _executor
    if _size == 1 or getattr(_local, "worker", False):
        yield from map(fn, items)
        return
    with _lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(_size, "multimagic", _mark_worker)
        executor, depth = _executor, min(limit, 2 * _size)
    window = deque()
    try:
        for item in items:
            if len(window) == depth:
                yield window.popleft().result()
            window.append(executor.submit(fn, item))
        while window:
            yield window.popleft().result()
    finally:
        for future in window:
            future.cancel()


def each(fn, items) -> None:
    """Call fn(item) for each item, on the pool, for its effect; return
    when every call has returned."""
    for _ in ordered_map(fn, items):
        pass
