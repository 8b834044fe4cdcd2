"""Host-speed probe: scale measured times to a reference host speed.

The benchmark's host is shared, and how fast its CPUs run drifts by tens of
percent over minutes as its neighbours' load comes and goes.  A time
measured on a slow minute and one measured on a fast minute would differ
although the program did not.  So every timed phase runs beside a probe:
a side process (``python -m perfbench.probe``) that times a fixed chunk of
pure-Python work (dict, attribute and list traffic, as the simulator does)
at a tenth duty cycle and records each chunk's CPU time.  CPU time, not
wall time: a chunk's wall time also counts the moments the probe waits for
a CPU the workload holds, which says how the OS placed the two processes,
not how fast the host runs.  The low duty keeps the probe from taking much
CPU from the workload, whose wall time it would otherwise stretch.

A time measured over a window is reported in *reference seconds*: the
measured seconds times :data:`REFERENCE_CHUNK_S` over the mean chunk CPU
time inside that window.  On a host running at the reference speed the two
agree; when the host slows down, the chunks slow down with it and the
factor takes the slowdown back out.  The probe's code is the benchmark's
own, so a change to the program under test moves the measured time and not
the factor.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import common

#: CPU seconds of one chunk on the reference host (2 vCPU Xeon, Python 3.11).
REFERENCE_CHUNK_S = 0.0170
#: Chunk work runs this share of the time; the probe sleeps the rest.
DUTY = 0.1
#: A window with fewer chunks inside it uses this many chunks nearest to it.
MIN_CHUNKS = 8
CHUNK_ITERATIONS = 16000


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, nxt):
        self.key = key
        self.value = value
        self.next = nxt


def chunk() -> int:
    """The fixed work one probe sample times."""
    table: dict[int, _Node] = {}
    head = None
    acc = 0
    for i in range(CHUNK_ITERATIONS):
        key = (i * 2654435761) & 4095
        node = table.get(key)
        if node is None:
            node = head = table[key] = _Node(key, i, head)
        else:
            node.value += i
        acc ^= node.value
        if i & 63 == 0:
            acc += sum([n.key for n in list(table.values())[:32]])
    return acc


class Probe:
    """Runs the probe process for the lifetime of a ``with`` block.

    After the block, :meth:`scale` gives the factor for any window inside it
    (``time.perf_counter`` readings, which are system-wide on Linux).
    """

    def __init__(self, work: Path):
        self.out = work / "probe.json"
        self.chunks: list[tuple[float, float, float]] = []
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.probe", str(self.out)],
            cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self._stop()
            raise common.BenchError("the host-speed probe did not start")
        return self

    def __exit__(self, *exc) -> None:
        self._stop()
        if exc[0] is None:
            self.chunks = [tuple(c) for c in json.loads(self.out.read_text())]
            if not self.chunks:
                raise common.BenchError("the host-speed probe timed no chunk")

    def _stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per measured second over ``[start, end]``."""
        inside = [cpu for t0, t1, cpu in self.chunks if t0 >= start and t1 <= end]
        if len(inside) < MIN_CHUNKS:
            middle = (start + end) / 2
            nearest = sorted(self.chunks, key=lambda c: abs((c[0] + c[1]) / 2 - middle))
            inside = [cpu for _, _, cpu in nearest[:MIN_CHUNKS]]
        return REFERENCE_CHUNK_S / statistics.fmean(inside)


def main(out_path: str) -> int:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    parent = os.getppid()
    chunks = []
    for _ in range(5):  # warm-up, not recorded
        chunk()
    print("ready", flush=True)
    while not stopping and os.getppid() == parent:  # a killed benchmark takes the probe along
        t0, c0 = time.perf_counter(), time.process_time()
        chunk()
        t1, c1 = time.perf_counter(), time.process_time()
        chunks.append((t0, t1, c1 - c0))
        time.sleep((t1 - t0) * (1 / DUTY - 1))
    Path(out_path).write_text(json.dumps(chunks))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
