"""``map_shares``: a function mapped over shares of a list, one share per
forked worker process, with the results in share order. The items are
dealt out in snake order (0, 1, ..., w-1, w-1, ..., 0, 0, 1, ...), so that
early items, which callers order to cost the most, spread evenly.
"""
from __future__ import annotations

import marshal
import os
import sys

# a worker is forked per this many items: building one order alone on a
# 2-core Xeon, a second worker lost time at up to 522 parents and won from
# 670 on (order 8 under caps 10 and 11), so two workers start at 600
_ITEMS_PER_WORKER = 300


def map_shares(fn, items, budget=None) -> list | None:
    """``fn(share, stopped)`` for each share of ``items``, in share order;
    None when any share returns None.

    ``stopped()`` is true once ``budget.spent()`` is, or, in a child, once
    the caller is gone; ``fn`` asks it before each unit of work and returns
    None once it is true. All processes read one ``time.monotonic()``
    clock, so a budget's deadline holds for all of them. A child sends its
    result back over a pipe with ``marshal``, so results are built of the
    types ``marshal`` writes. A child ends in ``os._exit``, so it never
    returns into its caller's frames or flushes the stdio buffers it
    inherited. Each child is reaped before this returns or raises, killed
    first unless its whole pipe was read; an exception in a child raises
    ``RuntimeError`` here, with the child's traceback."""
    w = _workers(len(items))
    caller = os.getpid()
    children: dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    try:
        for i in range(1, w):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    code = _work(fn, _dealt(items, w, i), _stopped(budget, caller), wr)
                finally:
                    os._exit(code)
            children[pid] = r
            os.close(wr)
        results = [fn(_dealt(items, w, 0), _stopped(budget))]
        if results[0] is None:
            return None
        for pid, r in list(children.items()):
            # to EOF before the wait: a large result outgrows the pipe buffer
            chunks = []
            while chunk := os.read(r, 1 << 16):
                chunks.append(chunk)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            sent = marshal.loads(b"".join(chunks)) if chunks else None
            if code != 0:
                raise RuntimeError(f"worker {pid} failed (exit {code}): {sent}")
            if sent is None:
                return None
            results.append(sent)
        return results
    finally:
        if children:
            _stop(children)


def _stopped(budget, caller: int | None = None):
    """The ``stopped`` of ``map_shares``: true once ``budget`` is spent, or
    once the process ``caller`` is no longer this process's parent."""
    return lambda: (budget is not None and budget.spent()) or (caller is not None and os.getppid() != caller)


def _worker_count(items: int, cpus: int) -> int:
    """Shares for ``items`` items on ``cpus`` usable CPUs: one per
    ``_ITEMS_PER_WORKER`` items, at most one per CPU, at least one."""
    return max(1, min(cpus, items // _ITEMS_PER_WORKER))


def _workers(items: int) -> int:
    """``_worker_count`` on this process's usable CPUs; 1 where ``os.fork``
    is missing or more than one thread is alive, since a forked child holds
    only the forking thread, and any lock another thread held stays taken."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return _worker_count(items, cpus)


def _dealt(items, w: int, i: int) -> list:
    """Share ``i`` of ``w``: the items dealt out one at a time in snake
    order, to shares 0, 1, ..., w-1, then w-1, ..., 0, and again. Dealt out
    as ``items[i::w]``, share 0 would get the first, costliest item of every
    round of w (enumeration's parents come ascending by key, and at order 7
    the first quarter of them cost a quarter more to extend than the last).
    Share sizes differ by at most one."""
    return [p for j, p in enumerate(items) if j % (2 * w) in (i, 2 * w - 1 - i)]


def _stop(children: dict[int, int]) -> None:
    """Close the read end of each child's pipe, then kill and reap it."""
    import signal  # needed only here: the command's start-up imports stay as they were

    for pid, r in children.items():
        os.close(r)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # reaped just before an interrupt


def _work(fn, share, stopped, wr: int) -> int:
    """A forked child's task: ``fn(share, stopped)`` written to the pipe end
    ``wr`` by ``marshal``, and exit status 0; or the traceback of its
    exception, and exit status 1."""
    try:
        out, code = marshal.dumps(fn(share, stopped)), 0
    except BaseException:  # reported, not re-raised: a child must not unwind into its caller's frames
        import traceback

        out, code = marshal.dumps(traceback.format_exc()), 1
    view = memoryview(out)
    while view:
        view = view[os.write(wr, view) :]
    return code
