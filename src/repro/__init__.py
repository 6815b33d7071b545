"""Mr. Scan reproduction: extreme-scale density-based clustering (SC'13).

Public API
----------
The one-call entry point is :func:`repro.mrscan`, which runs the full
partition → cluster → merge → sweep pipeline in-process::

    import repro
    points = repro.data.generate_twitter(100_000, seed=7)
    result = repro.mrscan(points, eps=0.1, minpts=40, n_leaves=8)
    result.labels          # global cluster id per point (-1 = noise)
    result.timings         # per-phase wall + modelled seconds

Finer-grained control lives in the subpackages:

==================  ====================================================
``repro.core``      the pipeline, its configuration and result types
``repro.dbscan``    exact reference DBSCAN + spatial indexes
``repro.gpu``       simulated GPGPU device, two-pass leaf DBSCAN, dense box
``repro.partition`` Eps-grid partitioner with shadow regions
``repro.mrnet``     tree-based multicast/reduction process network
``repro.merge``     representative points + distributed merge rules
``repro.data``      synthetic Twitter / SDSS / shape generators
``repro.quality``   the DBDC quality metric (Fig 11)
``repro.perf``      Titan-calibrated performance model (Figs 8-10,12,13)
``repro.telemetry`` spans, metrics, Chrome-trace/JSONL exporters
``repro.resilience`` fault plans, retries/failover, checkpoints, chaos
==================  ====================================================
"""

from . import data, dbscan, io  # noqa: F401  (re-exported subpackages)
from .errors import MrScanError
from .points import NOISE, PointSet

__version__ = "1.0.0"

__all__ = [
    "NOISE",
    "PointSet",
    "MrScanError",
    "data",
    "dbscan",
    "io",
    "__version__",
]


def __getattr__(name: str):
    # Lazy imports for the heavier subpackages so `import repro` stays
    # cheap and so subpackages under construction do not break the base
    # API.  Resolved once, then cached on the module.
    import importlib

    lazy = {
        "core",
        "gpu",
        "partition",
        "mrnet",
        "merge",
        "sweep",
        "quality",
        "perf",
        "telemetry",
        "resilience",
    }
    if name in lazy:
        mod = importlib.import_module(f".{name}", __name__)
        globals()[name] = mod
        return mod
    if name == "Telemetry":
        from .telemetry import Telemetry as cls

        globals()["Telemetry"] = cls
        return cls
    if name == "mrscan":
        from .core.pipeline import mrscan as fn

        globals()["mrscan"] = fn
        return fn
    if name == "MrScanConfig":
        from .core.config import MrScanConfig as cls

        globals()["MrScanConfig"] = cls
        return cls
    if name == "MrScanResult":
        from .core.result import MrScanResult as cls

        globals()["MrScanResult"] = cls
        return cls
    if name == "MrScanClusterer":
        from .estimator import MrScanClusterer as cls

        globals()["MrScanClusterer"] = cls
        return cls
    if name == "analysis":
        import importlib

        mod = importlib.import_module(".analysis", __name__)
        globals()["analysis"] = mod
        return mod
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
