"""Shared plumbing of the benchmark: paths, statistics, process accounting.

Everything imported at module level is stdlib-only, so that the failure
path (a checkout without the program's sources) can report it cleanly
before anything from ``repro`` is imported.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict
from typing import Iterable
from typing import List
from typing import Optional
from typing import Sequence

#: Root of the checkout (the directory holding ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: The program's sources; the benchmark imports and launches them from here.
SRC = ROOT / "src"

#: Clock ticks per second for ``/proc/<pid>/stat`` CPU fields.
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchmarkError(RuntimeError):
    """A run that cannot produce a result (missing sources, dead server)."""


def require_sources() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            "no program sources at %s: run from a full checkout" % (SRC,)
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for processes that run the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def compile_sources() -> None:
    """Write the bytecode cache for ``src`` once, so no timed launch pays it.

    A fresh checkout has no ``__pycache__``; without this the first
    launch of a run would compile every module and read slower than the
    rest.  Up-to-date caches make it a cheap stat pass.
    """
    import compileall

    if not compileall.compile_dir(str(SRC), quiet=1):
        raise BenchmarkError("could not byte-compile %s" % (SRC,))


# -- Statistics on raw samples -------------------------------------------------


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of already-sorted raw samples."""
    if not sorted_values:
        raise ValueError("quantile of no samples")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    frac = position - low
    return float(sorted_values[low] * (1.0 - frac) + sorted_values[high] * frac)


def median(values: Iterable[float]) -> float:
    return quantile(sorted(values), 0.5)


def latency_median(values: Iterable[float]) -> float:
    """Harrell-Davis estimate of the median of raw latency samples.

    A weighted average of all order statistics (Beta-distributed weights
    centred on the middle rank) instead of the one or two middle samples.
    ``paper_tasks`` samples are a few dozen fixed task durations repeated
    each pass, so the plain sample median jumps between neighbouring
    tasks when their order flips; this estimate moves smoothly.  For the
    thousands of samples of a serve run the two agree closely.
    """
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(np.asarray(list(values), dtype=float))
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    weights = np.diff(betainc((n + 1) / 2.0, (n + 1) / 2.0, np.arange(n + 1) / n))
    return float(np.dot(weights, ordered))


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when a layer did no work."""
    return numerator / denominator if denominator else 0.0


# -- Process accounting (reads /proc of our own children only) -----------------


def descendants(pid: int) -> List[int]:
    """``pid`` and every live descendant, found through ``/proc``."""
    found = [pid]
    index = 0
    while index < len(found):
        current = found[index]
        index += 1
        # A child belongs to the thread that forked it, so every thread's
        # list is read (the service spawns its shards from a worker thread).
        try:
            threads = os.listdir("/proc/%d/task" % (current,))
        except OSError:
            continue
        for thread in threads:
            try:
                with open("/proc/%d/task/%s/children" % (current, thread)) as handle:
                    found.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
    return found


def cpu_seconds(pids: Iterable[int]) -> float:
    """User plus system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        try:
            with open("/proc/%d/stat" % (pid,)) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # Fields after the command name: utime and stime are the 12th
        # and 13th (stat fields 14 and 15).
        total += int(fields[11]) + int(fields[12])
    return total / _CLK_TCK


def host_ticks() -> List[int]:
    """Machine-wide (steal, total) clock ticks from ``/proc/stat``.

    Steal is the time the hypervisor ran something else while this
    machine's CPUs had work; it explains runs that read slow for reasons
    outside the program.
    """
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal (guest time is in user).
    return [fields[7], sum(fields[:8])]


def steal_note(before: Sequence[int], after: Sequence[int]) -> str:
    steal, total = after[0] - before[0], after[1] - before[1]
    return ("host: %.1f%% of the machine's CPU time stolen by the hypervisor "
            "during the window" % (100.0 * steal / total if total else 0.0))


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open("/proc/%d/status" % (pid,)) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# -- Child processes -------------------------------------------------------------


def stop_process(process: subprocess.Popen, timeout: float = 10.0,
                 label: str = "process") -> bool:
    """Stop ``process`` and its descendants; SIGKILL past ``timeout``.

    Sends SIGINT (the server's graceful shutdown), waits up to
    ``timeout`` seconds, then SIGKILLs whatever is left of the process
    tree.  Returns True when the kill was needed, and says so on stderr.
    """
    if process.poll() is not None:
        return False
    tree = descendants(process.pid)
    killed = False
    try:
        process.send_signal(signal.SIGINT)
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        killed = True
    if not killed:
        # Helpers of the server (its shards, multiprocessing's resource
        # tracker) exit on their own once it is gone; give them the time.
        _reap(tree, process.pid, timeout)
    for pid in tree:
        if pid == process.pid and not killed:
            continue
        if _alive(pid):
            killed = True
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    if killed:
        print("perfbench: %s did not stop within %.0f s; sent SIGKILL"
              % (label, timeout), file=sys.stderr, flush=True)
        process.wait(timeout=timeout)
    _reap(tree, process.pid)
    return killed


#: ``prctl`` option that makes a process the reaper of its orphaned descendants.
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Have descendants whose parent exits re-parented to this process.

    A server that exits leaves its helpers (shards, multiprocessing's
    resource tracker) to finish on their own; as their reaper this
    process still sees them and :func:`stop_children` can end them.
    """
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_children(timeout: float = 10.0) -> None:
    """End and reap every process this run started that is still there.

    The in-process service of a traced run starts multiprocessing's
    resource tracker, which otherwise outlives this process by a few
    milliseconds; it is stopped first.  Everything left past ``timeout``
    is SIGKILLed; the call returns once no descendant remains, or says on
    stderr which ones still do ``timeout`` seconds after the kill.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()
    kill_at = time.monotonic() + timeout
    killed = False
    while True:
        _reap_exited()
        left = [pid for pid in descendants(os.getpid())[1:] if _alive(pid)]
        if not left:
            break
        if time.monotonic() >= kill_at + (timeout if killed else 0.0):
            if killed:
                print("perfbench: processes %s survived SIGKILL" % (left,),
                      file=sys.stderr, flush=True)
                return
            killed = True
            print("perfbench: leftover child processes did not exit within %.0f s; "
                  "sent SIGKILL" % (timeout,), file=sys.stderr, flush=True)
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        time.sleep(0.01)
    _reap_exited()


def _reap_exited() -> None:
    """Collect the exit status of every child that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _alive(pid: int) -> bool:
    try:
        with open("/proc/%d/stat" % (pid,)) as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _reap(tree: Sequence[int], root: int, timeout: float = 5.0) -> None:
    """Wait (at most ``timeout``) until every former descendant of ``root`` exits."""
    deadline = time.monotonic() + timeout
    for pid in tree:
        if pid == root:
            continue
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.01)


# -- Output --------------------------------------------------------------------------


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Dict[str, object]], notes: Optional[List[str]] = None) -> None:
    """Print the notes, then the result object as the last stdout line."""
    for line in notes or ():
        print(line)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)
