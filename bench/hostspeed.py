"""Host-speed scaling for the timed passes.

Other tenants of a shared host slow this process by up to half, for
stretches from seconds to minutes. A fixed set of interpreter kernels
runs before and after each block of timed work, and the block's times
are multiplied by ``REFERENCE_S`` over the kernels' time at the two ends.
A slow stretch of the host scales back out; a slower program still shows,
because the kernels do not run its code.

No single kernel slows in step with the workloads: a small-dict kernel
slows less than them when the host is busy, a large random-access one
more. The geometric mean of the five kinds below slows by about as much
as each workload (fitted slope 0.9-1.05 of log workload time on log
kernel time, over 150 s of a busy 2-CPU host), so it is the speed gauge.
"""
from __future__ import annotations

import math
import random
import statistics
from time import perf_counter

# The kernels' geometric-mean time on an idle CPU of the 2-CPU host the
# benchmark was tuned on; scaled times read as times on that host.
REFERENCE_S = 0.001

_SHUFFLED = list(range(200_000))
random.Random(0).shuffle(_SHUFFLED)
_TABLE = {i: i for i in range(200_000)}


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def mix(self, x: int) -> int:
        return (self.a * x + self.b) & 1023


def _small_dict() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(6000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + (i ^ acc) & 7
        acc += key >> 3
    return acc


def _large_dict() -> int:
    return sum(_TABLE[_SHUFFLED[i]] for i in range(0, 200_000, 40))


def _method_calls() -> int:
    pairs = [_Pair(i, i + 1) for i in range(300)]
    return sum(p.mix(r) for r in range(8) for p in pairs)


def _sort_and_set() -> int:
    keys = tuple(k for k, _ in sorted(((i * 7919) % 1000, i) for i in range(1500)))
    return len(set(keys)) + sum(min(k, 500) for k in keys)


def _float_math() -> float:
    return sum(math.sqrt(i) * 0.5 if i & 1 else i / 3.0 for i in range(4000))


KERNELS = (_small_dict, _large_dict, _method_calls, _sort_and_set, _float_math)


def kernel_seconds() -> float:
    """The geometric mean of the kernels' host times."""
    logs = 0.0
    for kernel in KERNELS:
        started = perf_counter()
        kernel()
        logs += math.log(perf_counter() - started)
    return math.exp(logs / len(KERNELS))


class HostSpeed:
    """Kernel samples taken between blocks of timed work, and the scale
    factor for each block."""

    def __init__(self):
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> int:
        """Time the kernels now; the sample's index."""
        self.samples.append(kernel_seconds())
        return len(self.samples) - 1

    def factor(self, start: int, end: int) -> float:
        """The factor for host times taken between samples ``start`` and ``end``."""
        return REFERENCE_S / ((self.samples[start] + self.samples[end]) / 2)

    def describe(self) -> str:
        return (f"kernels' median {1e3 * statistics.median(self.samples):.3f} ms over "
                f"{len(self.samples)} samples, scaled to {1e3 * REFERENCE_S:.3f} ms")
