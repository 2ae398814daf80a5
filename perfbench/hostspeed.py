"""Host-speed probes interleaved with the timed work, and times normalised by them.

The benchmark runs on a few cores of a shared host whose speed drifts by
25% or more over minutes, and in steps within seconds.  CPU time moves with
wall time, so neither clock removes it.  A probe is a fixed piece of
pure-Python work shaped like the simulator's inner loop: a small job shop
of its own, with an event heap, machine queues and a dispatching rule
called on every queued job.  Probes run between calls into gpshop, at
most every ``PROBE_INTERVAL_S`` of work, and each stretch of work between
two probes is divided by the mean time of those two probes.  Times are
then reported in seconds at the reference host speed: the speed at which
one probe takes ``PROBE_REF_S``.

On a 2-CPU shared host, one ``evolve-fixed`` GP run repeated for 150 s
spread by 19% in wall time (quartile distance over the median).
Normalised by a probe of this shape it spread by 4%; by a plain
arithmetic loop, 8%; by heap operations on a table of floats, 10%.

The probe does not depend on gpshop, so a change to gpshop moves
normalised times exactly as it moves wall times on a steady host.
"""
from __future__ import annotations

import bisect
import gc
import heapq
import random
import time

PROBE_REF_S = 0.010  # a probe's time at the reference host speed
PROBE_INTERVAL_S = 0.25  # least work between two probes
_JOBS = 250
_MACHINES = 10
_INF = float("inf")

_now = time.perf_counter
_rng = random.Random(20251002)
_RELEASE = tuple(_rng.random() * 100 for _ in range(_JOBS))
_DUE = tuple(r + _rng.random() * 50 for r in _RELEASE)
_WEIGHT = tuple(_rng.choice((1.0, 2.0, 4.0)) for _ in range(_JOBS))
_OPS = tuple(tuple((_rng.randrange(_MACHINES), _rng.random() * 5) for _ in range(_rng.randrange(2, 6)))
             for _ in range(_JOBS))
del _rng


def _rule(pt, wait, rdd, w, release):
    return max(pt - wait, min(rdd, w)) * release + (pt if pt > rdd else w)


def _probe_work() -> None:
    """Simulate the probe's job shop to the end, dispatching by ``_rule``."""
    heappush, heappop, rule = heapq.heappush, heapq.heappop, _rule
    heap = [(_RELEASE[j], j, 0, j, -1) for j in range(_JOBS)]
    heapq.heapify(heap)
    queues = [[] for _ in range(_MACHINES)]
    busy = [False] * _MACHINES
    cur = [0] * _JOBS
    counter = _JOBS
    while heap:
        t, _, arrival, j, m = heappop(heap)
        if arrival == 0:
            k = cur[j]
            if k == len(_OPS[j]):
                continue
            m, pt = _OPS[j][k]
            queues[m].append((j, t, pt))
        else:
            busy[m] = False
        queue = queues[m]
        if queue and not busy[m]:
            best = _INF
            chosen = 0
            for i in range(len(queue)):
                jj, ready, pt = queue[i]
                s = rule(pt, t - ready, _DUE[jj] - t, _WEIGHT[jj], _RELEASE[jj])
                if s < best:
                    best = s
                    chosen = i
            jj, _, pt = queue.pop(chosen)
            busy[m] = True
            cur[jj] += 1
            heappush(heap, (t + pt, counter, 1, -1, m))
            heappush(heap, (t + pt, counter + 1, 0, jj, -1))
            counter += 2


class HostSpeed:
    """Probes taken during one repetition, and the clocks they give.

    The repetition starts right after its first probe and ends right
    before its last, so every stretch of its work lies between two probes.
    Probes may fall inside an evaluation or a span; ``work_at`` and
    ``norm_at`` leave them out of every interval measured with them.
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end)
        self._table = None

    def probe(self) -> None:
        # The probe frees all it allocates by reference count.  With the
        # collector paused, a collection of the workload's heap never
        # lands inside a probe, and the collector's counts end where
        # they started.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = _now()
            _probe_work()
            self.probes.append((t0, _now()))
        finally:
            if enabled:
                gc.enable()
        self._table = None

    def maybe_probe(self) -> None:
        if _now() - self.probes[-1][1] >= PROBE_INTERVAL_S:
            self.probe()

    def _build(self):
        """Per stretch between probes: its start, its end, work and normalised work before it, its scale."""
        p = self.probes
        d = [end - start for start, end in p]
        starts = [end for _, end in p[:-1]]
        ends = [start for start, _ in p[1:]]
        scales = [2 * PROBE_REF_S / (a + b) for a, b in zip(d, d[1:])]
        work = [0.0]
        norm = [0.0]
        for a, b, s in zip(starts, ends, scales):
            work.append(work[-1] + (b - a))
            norm.append(norm[-1] + (b - a) * s)
        self._table = (starts, ends, work, norm, scales)
        return self._table

    def _at(self, t: float) -> tuple[float, float]:
        starts, ends, work, norm, scales = self._table or self._build()
        k = min(max(bisect.bisect_right(starts, t) - 1, 0), len(starts) - 1)
        dt = min(max(t - starts[k], 0.0), ends[k] - starts[k])
        return work[k] + dt, norm[k] + dt * scales[k]

    def work_at(self, t: float) -> float:
        """Wall seconds of work from the repetition's start to wall time ``t``, probes left out."""
        return self._at(t)[0]

    def norm_at(self, t: float) -> float:
        """The same, at the reference host speed."""
        return self._at(t)[1]

    def work_s(self) -> float:
        return self.work_at(self.probes[-1][0])

    def norm_s(self) -> float:
        return self.norm_at(self.probes[-1][0])

    def probe_ms(self) -> float:
        """Median probe time: the host's speed during the repetition."""
        d = sorted(end - start for start, end in self.probes)
        return d[len(d) // 2] * 1e3
