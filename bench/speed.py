"""Machine-speed reference for the benchmark's gated timings.

Shared machines drift in execution speed: on a 2-CPU VM the same
``spectral_theorem`` call took 0.24-0.38 s over five minutes, in phases
lasting seconds to minutes, with CPU time tracking wall time and no
steal, and the two CPUs drifting independently.  A fixed computation
that uses no spectral_forge code, timed on the same CPU just before and
just after the timed work, tracks that drift, but it reacts more
strongly than the ops do, and by how much depends on the workload.  So
a raw time is multiplied by ``(REFERENCE_S / reference) ** s``, where
``s`` is the workload's ``SENSITIVITY``: the slope of log(op time)
against log(reference time), fitted over the ops of fifteen seeds per
workload and rounded (a refit on ten further seeds gave 0.48, 0.39,
0.37 and 0.72 in the order below).  Over ten seeds the scaling cut the
quartile spread of the per-run median op time from 0.16-0.19 to
0.05-0.13.  A change to the package cannot move the reference, so a
change that makes an op x% slower makes its scaled time x% larger too.
Raw times stay in the run's ``detail`` and record.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# Median of reference() on the baseline machine (2-CPU VM, one BLAS
# thread, numpy 2.4.6, Python 3.11.7).
REFERENCE_S = 0.0365

# Timed pieces per reference; their median rejects a one-off stall.
PIECES = 5

# How strongly each workload's op times follow the reference (see above).
SENSITIVITY = {
    "dense_normal": 0.4,
    "diagonal_product": 0.4,
    "mixed_small": 0.75,
    "cli_roundtrip": 0.6,
}

_MATRIX = np.random.default_rng(0).standard_normal((24, 24))
_DOC = [[float(i), -float(i) / 7.0] for i in range(6_000)]


def _piece() -> float:
    """Small-matrix numpy, interpreter loops and json, as the ops use."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(120):
        acc += float((_MATRIX @ _MATRIX)[i % 24, 3]) + sum(range(150))
    acc += len(json.loads(json.dumps(_DOC)))
    return time.perf_counter() - start


def reference() -> float:
    """Wall time of the reference: the median of ``PIECES`` pieces, times
    ``PIECES``."""
    return PIECES * statistics.median(_piece() for _ in range(PIECES))


def scale(before: float, after: float, sensitivity: float) -> float:
    """Factor that turns a raw time, measured between two references,
    into seconds at the reference speed."""
    return (REFERENCE_S / ((before + after) / 2.0)) ** sensitivity
