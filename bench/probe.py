"""Machine-speed probe and the clock that rescales timings to reference speed.

The probe is a fixed piece of work that touches no ``bicomplex`` code: a
stretch of interpreter work, a batch of small LAPACK calls, a batch of
small-array numpy calls and one pass over a large array, or, for work made
of process starts, a fresh interpreter importing numpy.  It runs interleaved with a workload, in the same thread.  A
raw time measured between two probe points is multiplied by ``nominal / p``,
where ``p`` is the mean of the probe times at those two points and
``nominal`` the probe time at reference speed, so a run on a slowed machine
reports about what it would have taken at the reference speed.  Probe time
is never part of a timed interval.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

#: Median time of each probe part during benchmark runs on the reference
#: machine (see README.md).
NOMINAL_S = {"interpreter": 0.70e-3, "lapack": 0.52e-3, "numpy": 0.49e-3, "array": 0.76e-3, "process": 0.19}

#: How much each part counts, per kind of work.  Small-object work (the
#: interpreter, small numpy and LAPACK calls) slows far more on a loaded
#: machine than the memory-bound array pass does, so workloads dominated by
#: it leave the array pass out.  The verify workload is about 40% vectorized
#: kernels over large arrays and keeps the array pass.  Starting an
#: interpreter and importing numpy tracks neither, so the CLI workload, made
#: of such process starts, is scaled by that alone.
MIXES = {
    "compute": {"interpreter": 1.0, "lapack": 1.0, "numpy": 1.0},
    "mixed": {"interpreter": 1.0, "lapack": 1.0, "array": 1.0},
    "process": {"process": 1.0},
}

_rng = np.random.default_rng(12345)
_SMALL = [_rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8)) for _ in range(8)]
_RHS = _rng.standard_normal(8) + 1j * _rng.standard_normal(8)
_ROWS = [_rng.standard_normal((8, 4)) for _ in range(16)]
_LARGE = _rng.standard_normal(1 << 20)
# Bound now: a later patch of numpy.linalg (tracing) must not see the probe.
_svd, _solve, _det = np.linalg.svd, np.linalg.solve, np.linalg.det


def _interpreter_work() -> int:
    acc = 0
    table = {}
    for k in range(4000):
        acc = (acc * 31 + k) & 0xFFFF
        table[k & 63] = acc
    return acc + len(table)


def _lapack_work() -> float:
    total = 0.0
    for M in _SMALL:
        total += float(_svd(M, compute_uv=False)[0])
        total += float(_solve(M, _RHS)[0].real)
        total += float(abs(_det(M)))
    return total


def _numpy_work() -> float:
    """Small-array calls of the kind the library makes per object."""
    total = 0.0
    for rows in _ROWS:
        frozen = np.array(rows, dtype=np.float64, copy=True)
        frozen.setflags(write=False)
        h = (frozen[:, 0] + frozen[:, 3]) + 1j * (frozen[:, 1] - frozen[:, 2])
        merged = np.stack([h.real, h.imag, frozen[:, 2], frozen[:, 3]], axis=-1)
        total += float(np.sqrt(np.sum(merged * merged)))
    return total


def _array_pass() -> float:
    return float(np.dot(_LARGE, _LARGE))


def _process_start() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=120)


_PARTS = {
    "interpreter": _interpreter_work,
    "lapack": _lapack_work,
    "numpy": _numpy_work,
    "array": _array_pass,
    "process": _process_start,
}


def run_probe(parts) -> dict[str, float]:
    """Run the named probe parts once; returns the wall time of each in seconds."""
    times = {}
    for name in parts:
        start = time.perf_counter()
        _PARTS[name]()
        times[name] = time.perf_counter() - start
    return times


class Clock:
    """Rescales raw times by the probe times around them.

    ``add`` records one raw duration with a tag and runs the probe once
    `interval_s` seconds of timed work have accumulated since the last probe
    point; ``interval_s = 0`` probes after every record.  A probe point takes,
    for each part, the median of `reps` probe runs; its time is the sum of the
    parts weighted by `mix`.  ``drain`` closes the current stretch and hands
    back the records so far, so that memory stays flat however long a run is.
    """

    def __init__(self, interval_s: float, reps: int = 1, mix: str = "compute"):
        self.interval_s = interval_s
        self.reps = reps
        self.weights = MIXES[mix]
        self.nominal_s = sum(w * NOMINAL_S[part] for part, w in self.weights.items())
        self.points: list[float] = []
        self._records: list[tuple[float, int, object]] = []
        self._since = 0.0
        self.probe_now()

    def probe_now(self):
        runs = [run_probe(self.weights) for _ in range(self.reps)]
        self.points.append(sum(w * statistics.median(r[part] for r in runs) for part, w in self.weights.items()))
        self._since = 0.0

    def add(self, raw_s: float, tag) -> None:
        self._records.append((raw_s, len(self.points) - 1, tag))
        self._since += raw_s
        if self._since >= self.interval_s:
            self.probe_now()

    def drain(self) -> list[tuple[object, float, float]]:
        """(tag, raw seconds, scaled seconds) of every record since the last drain."""
        if self._records and self._records[-1][1] == len(self.points) - 1:
            self.probe_now()
        p = self.points
        out = [(tag, raw, raw * self.nominal_s / (0.5 * (p[k] + p[k + 1]))) for raw, k, tag in self._records]
        self._records = []
        return out
