"""Simulated GPGPU substrate.

The paper's leaf nodes run DBSCAN on NVIDIA K20 accelerators.  With no GPU
(or CUDA toolchain) available, this package implements the *algorithms* at
the same granularity the paper describes — GPGPU blocks expanding seed
points, host↔device transfers, bulk kernel launches — against
:class:`SimulatedDevice`, which enforces device-memory limits and accounts
for every transfer, launch, and distance computation.  The accounting feeds
the Titan-calibrated cost model in :mod:`repro.perf`, so "GPU time" in the
reproduced figures derives from the real operation counts of these
implementations rather than from Python wall-clock.

The leaf algorithm is :func:`mrscan_gpu` — Mr. Scan's extension
(§3.2.2–3.2.3) of the CUDA-DClust baseline: a two-pass structure with
exactly one host↔device round trip, MinPts-capped neighbor counting in
pass 1, and the dense-box elimination.  The baseline itself (per-block
seed expansion with CPU synchronisation after every iteration) lives
beside the test suite as the §3.2.1 ablation's oracle.
"""

from .device import DeviceConfig, DeviceStats, SimulatedDevice
from .densebox import DenseBoxResult, find_dense_boxes
from .mrscan_gpu import mrscan_gpu, GPUClusterResult, MrScanGPUStats

__all__ = [
    "DeviceConfig",
    "DeviceStats",
    "SimulatedDevice",
    "DenseBoxResult",
    "find_dense_boxes",
    "mrscan_gpu",
    "GPUClusterResult",
    "MrScanGPUStats",
]
