"""Host-speed calibration: a fixed kernel timed next to every operation.

On a shared 2-vCPU host the same code runs up to 1.5x slower for phases of
seconds to tens of seconds (CPU time tracks wall time, so the process is not
descheduled: the CPU itself is slower). A kernel with the program's mix of
work, frozen here so that no change to the program moves it, slows by the same
factor. Timing it right before and after each operation and rescaling the
operation's time by ``nominal / measured`` reports every time at one reference
host speed. On a shared 2-vCPU Xeon host, 10 s medians of the raw reference
`kljn run` time ranged 224-342 ms over 240 s, while their ratio to this
kernel stayed within 11.0-11.5.

Set-up is timed in fresh processes, so its kernel is a set of first imports
timed inside each of those processes (import_kernel).

The kernels use numpy and the standard library only, never `kljn`.
"""

from __future__ import annotations

import importlib
import math
import sys
import time

import numpy as np

# Set-up calibration: first imports of standard-library modules that neither
# the program nor the benchmark loads. Finding, reading, unmarshalling and
# executing modules is the work of a set-up, so it slows with the host as the
# set-up does. SETUP_NOMINAL_S is its time at the reference host speed.
SETUP_MODULES = (
    "email.parser", "http.client", "xml.etree.ElementTree", "xml.dom.minidom", "unittest",
    "sqlite3", "tarfile", "ftplib", "smtplib", "imaplib", "mailbox", "plistlib", "pdb",
    "doctest", "urllib.request", "html.parser", "calendar", "optparse",
)
SETUP_NOMINAL_S = 0.040


def exchange_kernel(bits: int, samples: int) -> float:
    """The seed's per-bit Monte-Carlo path: two keyed Philox streams, wire, window stats."""
    total = 0.0
    for bit in range(bits):
        key_a = np.array([0x5EED, bit * 8], dtype=np.uint64)
        key_b = np.array([0x5EED, bit * 8 + 3], dtype=np.uint64)
        v_a = np.random.Generator(np.random.Philox(key=key_a)).normal(0.0, 1.0, samples)
        v_b = np.random.Generator(np.random.Philox(key=key_b)).normal(0.0, 1.2, samples)
        i_e = (v_b - v_a) / 10000.0
        v_e = (9000.0 * v_a + 1000.0 * v_b) / 10000.0
        total += float(np.var(v_e, ddof=1)) + float(np.var(i_e, ddof=1)) + float(np.mean(v_e * i_e))
    return total


def solver_kernel(quads: int) -> float:
    """Scalar closed-form arithmetic like the variance solver and the moment check."""
    total = 0.0
    for k in range(quads):
        r = (100.0 + k, 1000.0 + 3 * k, 500.0 + 2 * k, 900.0 + 5 * k)
        r_la, r_ha, r_lb, r_hb = r
        terms = ((r_la**2, r_lb * (r_la - r_ha), -r_ha * r_la),
                 (r_la**2, r_lb * (r_la + r_hb), r_hb * r_la))
        ratios = [sum(t) / sum(abs(x) for x in t) for t in terms]
        for r_a, r_b, s_a, s_b in ((r_la, r_hb, 1.0, ratios[0]), (r_ha, r_lb, ratios[1], 0.5)):
            d = (r_a + r_b) ** 2
            moments = ((s_a + s_b) / d, (r_b**2 * s_a + r_a**2 * s_b) / d, (r_a * s_b - r_b * s_a) / d)
            total += max(abs(m) for m in moments) / math.fsum(abs(m) for m in moments)
    return total


def import_kernel() -> float:
    """Time the first import of SETUP_MODULES; valid once per process."""
    loaded = [name for name in SETUP_MODULES if name in sys.modules]
    if loaded:
        raise RuntimeError(f"set-up calibration modules already imported: {loaded}")
    start = time.perf_counter()
    for name in SETUP_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - start


class Calibration:
    """Times one kernel call; ``factor`` rescales a time to the nominal host speed."""

    def __init__(self, kernel, args: tuple, nominal_s: float):
        self.kernel = kernel
        self.args = args
        self.nominal_s = nominal_s
        self.samples: list[float] = []

    def measure(self) -> float:
        start = time.perf_counter()
        self.kernel(*self.args)
        took = time.perf_counter() - start
        self.samples.append(took)
        return took

    def factor(self, *measured: float) -> float:
        """nominal / mean(measured): below 1 while the host runs slow."""
        return self.nominal_s * len(measured) / sum(measured)
