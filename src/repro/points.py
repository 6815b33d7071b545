"""Point-set container shared by every Mr. Scan subsystem.

The paper's input format is a single binary or text file where each point
carries a unique ID, coordinates, and an optional weight (§3).  In memory we
keep those three columns as separate numpy arrays so kernels can operate on
contiguous coordinate data without dragging IDs/weights through the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataValidationError, FormatError

__all__ = ["PointSet", "NOISE", "UNCLASSIFIED"]

#: Label value for noise points in every labelling produced by this package.
NOISE: int = -1

#: Label value for points not yet classified (internal to algorithms).
UNCLASSIFIED: int = -2


@dataclass
class PointSet:
    """A set of 2-D points with IDs and optional weights.

    Parameters
    ----------
    ids:
        ``(n,)`` int64 array of globally unique point IDs.
    coords:
        ``(n, 2)`` float64 array of coordinates.
    weights:
        ``(n,)`` float64 array of per-point weights; defaults to ones.

    The class validates shape agreement and exposes convenience geometry
    accessors used by the partitioner and the spatial indexes.
    """

    ids: np.ndarray
    coords: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.ids = np.ascontiguousarray(self.ids, dtype=np.int64)
        self.coords = np.ascontiguousarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 2:
            raise FormatError(
                f"coords must have shape (n, 2), got {self.coords.shape}"
            )
        if self.ids.shape[0] != self.coords.shape[0]:
            raise FormatError(
                f"ids ({self.ids.shape[0]}) and coords ({self.coords.shape[0]}) disagree"
            )
        if self.weights is None:
            self.weights = np.ones(len(self.ids), dtype=np.float64)
        else:
            self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
            if self.weights.shape[0] != self.ids.shape[0]:
                raise FormatError(
                    f"weights ({self.weights.shape[0]}) and ids ({self.ids.shape[0]}) disagree"
                )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_coords(cls, coords: np.ndarray, *, id_offset: int = 0) -> "PointSet":
        """Build a point set with sequential IDs starting at ``id_offset``."""
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2:
            coords = coords.reshape(-1, 2)
        n = coords.shape[0]
        return cls(ids=np.arange(id_offset, id_offset + n, dtype=np.int64), coords=coords)

    @classmethod
    def empty(cls) -> "PointSet":
        """An empty point set (useful for degenerate partitions)."""
        return cls(
            ids=np.empty(0, dtype=np.int64),
            coords=np.empty((0, 2), dtype=np.float64),
            weights=np.empty(0, dtype=np.float64),
        )

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def __bool__(self) -> bool:
        return len(self) > 0

    def take(self, index: np.ndarray) -> "PointSet":
        """Select a subset by positional index (or boolean mask).

        One ``np.take`` per column: for (n, 2) coordinates ``np.take(...,
        axis=0)`` is several times faster than fancy indexing.
        """
        index = np.asarray(index)
        if index.dtype == bool:
            if index.shape != self.ids.shape:
                raise IndexError(f"mask of shape {index.shape} for {len(self)} points")
            index = np.flatnonzero(index)
        return PointSet(
            ids=np.take(self.ids, index),
            coords=np.take(self.coords, index, axis=0),
            weights=np.take(self.weights, index),
        )

    def concat(self, other: "PointSet") -> "PointSet":
        """Concatenate two point sets (IDs are not deduplicated)."""
        return PointSet(
            ids=np.concatenate([self.ids, other.ids]),
            coords=np.concatenate([self.coords, other.coords]),
            weights=np.concatenate([self.weights, other.weights]),
        )

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #

    @property
    def xs(self) -> np.ndarray:
        """View of the x column."""
        return self.coords[:, 0]

    @property
    def ys(self) -> np.ndarray:
        """View of the y column."""
        return self.coords[:, 1]

    def bounds(self) -> tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` bounding box; raises on empty sets."""
        if len(self) == 0:
            raise FormatError("bounds() of an empty PointSet")
        return (
            float(self.xs.min()),
            float(self.ys.min()),
            float(self.xs.max()),
            float(self.ys.max()),
        )

    def nbytes(self) -> int:
        """Total payload size in bytes (what a binary file would store)."""
        return int(self.ids.nbytes + self.coords.nbytes + self.weights.nbytes)

    def payload_bytes(self) -> int:
        """Wire-size hook for :func:`repro.mrnet.packets.payload_nbytes`."""
        return self.nbytes()

    def validate_unique_ids(self) -> None:
        """Raise :class:`FormatError` if any point ID repeats.

        Strictly increasing ids (every generated set: an ``arange``) are
        unique by one linear pass; anything else is sorted and compared.
        """
        ids = self.ids
        if np.all(ids[1:] > ids[:-1]):
            return
        if len(ids) != len(np.unique(ids)):
            raise FormatError("point IDs are not unique")

    def finite_mask(self) -> np.ndarray:
        """Boolean mask of rows whose coordinates *and* weight are finite."""
        return np.isfinite(self.coords).all(axis=1) & np.isfinite(self.weights)

    def validate_finite(self) -> None:
        """Raise :class:`DataValidationError` on NaN/inf coordinates or weights.

        Grid hashing maps non-finite coordinates to nonsense cells, so the
        pipeline rejects them up front rather than clustering garbage.
        """
        if not np.isfinite(self.coords).all():
            bad = int(np.count_nonzero(~np.isfinite(self.coords).all(axis=1)))
            raise DataValidationError(
                f"{bad} points have non-finite coordinates"
            )
        if not np.isfinite(self.weights).all():
            raise DataValidationError("non-finite weights")

    def drop_invalid(self) -> tuple["PointSet", int]:
        """Strip rows with non-finite coordinates/weights.

        Returns the cleaned set and the number of rows dropped.  The
        original set is returned unchanged (and 0) when everything is
        finite, so callers on the hot path pay nothing for clean data.
        """
        mask = self.finite_mask()
        n_bad = int(len(self) - np.count_nonzero(mask))
        if n_bad == 0:
            return self, 0
        return self.take(mask), n_bad
