"""Fixed reference kernels that measure how fast the host is right now.

The kernels touch no rqshot code, so a change to the program cannot move
them.  Timed between the parts of a workload, a kernel turns wall seconds
into seconds of a nominal host, which removes much of the drift that a
shared machine shows between processes.  A host slowdown does not hit all
code alike, so each workload is paired with the kernel whose mix follows
its own profile:

``interpreter``  interpreter-bound dictionary updates and keyed sorting
                 (contraction, edge ranking), many small NumPy reductions
                 (per-edge estimates) and one pass over a 2^18-element
                 array, for the cached and training workloads;
``memory``       a complex exponential and butterfly rotations (gather and
                 scatter) over a 2^20-amplitude array, the operations of
                 depth-1 state preparation, for the large-n workload.

Neither kernel allocates a large block while it runs.  The memory kernel
reuses arrays allocated once (its amplitudes and chunk buffers, about
30 MB), and the interpreter kernel's temporaries stay below 128 KiB.  So a
kernel does not set the process's peak resident size, an end-to-end
metric, and does not move glibc's mmap threshold: freeing a large block
raises it, after which the program's own large arrays come from the heap
without page faults, and the program runs faster than it would alone.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds of one run() of each kernel on the host the reference figures in
# README.md come from (2 cores, Python 3.11.7, numpy 2.4.6).  They only fix
# the scale of normalised figures; any constant would do if it never changes.
NOMINAL_S = {"interpreter": 0.055, "memory": 0.090}
# Elements per chunk of the interpreter kernel's array pass: every temporary
# stays below 128 KiB, so that no free of a large block moves the allocator's
# mmap threshold and with it the program's own allocations.
CHUNK = 1 << 12
# Elements per chunk of the memory kernel, which allocates nothing while it runs.
MEMORY_CHUNK = 1 << 16


class ReferenceKernel:
    def __init__(self, profile: str):
        if profile not in NOMINAL_S:
            raise ValueError(f"unknown kernel profile {profile!r}")
        self.profile = profile
        self.nominal_s = NOMINAL_S[profile]
        rng = np.random.default_rng(20260518)
        if profile == "interpreter":
            self._weights = rng.standard_normal(509).tolist()
            self._bits = (rng.random((512, 16)) < 0.5).astype(np.uint8)
            self._pairs = [(i, (i * 5 + 3) % 16) for i in range(16)] * 3
            self._phases = rng.random(1 << 18)
        else:
            # Every array the memory kernel writes is allocated here and reused.
            self._index = np.arange(1 << 20)
            self._amps = np.empty(1 << 20, dtype=complex)
            self._ints = [np.empty(MEMORY_CHUNK, dtype=np.int64) for _ in range(2)]
            self._energy = np.empty(MEMORY_CHUNK)
            self._cplx = [np.empty(MEMORY_CHUNK, dtype=complex) for _ in range(4)]

    def run(self) -> float:
        return self._interpreter() if self.profile == "interpreter" else self._memory()

    def _interpreter(self) -> float:
        acc: dict[tuple[int, int], float] = {}
        w = self._weights
        for i in range(60000):
            key = (i % 61, (i * 7) % 53)
            acc[key] = acc.get(key, 0.0) + w[i % 509]
        ranked = sorted(acc, key=lambda k: (-abs(acc[k]), k))

        z = 1.0 - 2.0 * self._bits.astype(float)
        corr = 0.0
        for _ in range(30):
            for a, b in self._pairs:
                corr += float(np.mean(z[:, a] * z[:, b]))

        norm = 0.0
        for lo in range(0, len(self._phases), CHUNK):
            amps = np.exp(-1j * self._phases[lo:lo + CHUNK])
            norm += float(np.cumsum(np.abs(amps) ** 2)[-1])
        return ranked[0][0] + corr + norm

    def _memory(self) -> float:
        idx_all, amps, energy = self._index, self._amps, self._energy
        t, u = self._ints
        a0, a1, b0, b1 = self._cplx
        n, m = len(idx_all), MEMORY_CHUNK
        for lo in range(0, n, m):
            idx = idx_all[lo:lo + m]
            energy.fill(3.0)
            for q in range(3):
                np.right_shift(idx, q, out=t)
                np.right_shift(idx, q + 7, out=u)
                np.bitwise_xor(t, u, out=t)
                np.bitwise_and(t, 1, out=t)
                np.subtract(energy, t, out=energy)
                np.subtract(energy, t, out=energy)
            np.multiply(energy, -0.3j, out=a0)
            np.exp(a0, out=amps[lo:lo + m])
        c, s = np.cos(0.3), np.sin(0.3)
        for q in (0, 9, 19):
            for lo in range(0, n // 2, m):
                j = idx_all[lo:lo + m]
                np.right_shift(j, q, out=t)
                np.left_shift(t, q + 1, out=t)
                np.bitwise_and(j, (1 << q) - 1, out=u)
                np.bitwise_or(t, u, out=t)
                np.bitwise_or(t, 1 << q, out=u)
                np.take(amps, t, out=a0, mode="clip")
                np.take(amps, u, out=a1, mode="clip")
                np.multiply(a0, c, out=b0)
                np.multiply(a1, -1j * s, out=b1)
                np.add(b0, b1, out=b0)
                np.multiply(a0, -1j * s, out=a0)
                np.multiply(a1, c, out=a1)
                np.add(a0, a1, out=a1)
                amps[t] = b0
                amps[u] = a1
        return float(np.abs(amps[:64]).sum())

    def time(self) -> float:
        t0 = perf_counter()
        self.run()
        return perf_counter() - t0
