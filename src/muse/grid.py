"""Discretization of a region x time horizon x frequency range into
unit spectrum spaces.

Layout rules (deterministic, row-major):

* Hexagons are regular with circumradius ``hex_side`` and a vertex at the
  top ("pointy-top"): vertical extent 2*s, horizontal extent sqrt(3)*s.
* Row i sits at y = 1.5*s*i; odd rows are shifted left by sqrt(3)*s/2.
* A hexagon belongs to the grid iff its closed bounding box overlaps the
  closed region rectangle [0, W] x [0, H].  Boundary-clipped hexagons
  still carry weight 1.
* Region indices run row-major: row 0 left to right, then row 1, ...

Each cell's area weight is one unit region regardless of hex_side, so the
total spectrum space is p_cmax * A * T * B; multiply by ``hex_area`` for
physical square meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Band",
    "GridSpec",
    "Cell",
    "SpectrumGrid",
    "total_spectrum_space",
]

SQRT3 = math.sqrt(3.0)

# Largest grid accepted, in unit spectrum spaces (regions x time quanta x
# bands): 512 MiB per float64 map, `map` holds four (2 GiB; README's memory table).
# The 1 m sweep grid of a 4300 m x 3700 m region is 6.1M cells.
MAX_CELLS = 1 << 26

# Vertex bearings of a pointy-top hexagon, counterclockwise from the top.
_VERTEX_ANGLES = tuple(math.pi / 2.0 + k * math.pi / 3.0 for k in range(6))


@dataclass(frozen=True)
class Band:
    center_hz: float
    bandwidth_hz: float


@dataclass(frozen=True)
class GridSpec:
    region_width: float
    region_height: float
    hex_side: float
    time_quantum: float = 1.0
    horizon: int = 1
    bands: tuple[Band, ...] = (Band(600e6, 6e6),)
    sample_offset: tuple[float, float] | None = None  # a region's sample point is its centroid (None) or this offset from it
    worst_case_placement: bool = False

    def __post_init__(self):
        for name in ("region_width", "region_height", "hex_side", "time_quantum"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.region_width > 0.0 and self.region_height > 0.0):
            raise ValueError("region dimensions must be positive")
        if not self.hex_side > 0.0:
            raise ValueError("hex_side must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be at least one time quantum")
        if not self.time_quantum > 0.0:
            raise ValueError("time_quantum must be positive")
        if len(self.bands) == 0:
            raise ValueError("at least one frequency band is required")
        # Estimated before any array exists: region area over hexagon area,
        # times quanta and bands (the horizon clipped so the product stays a float).
        regions = (self.region_width / self.hex_side) * (self.region_height / self.hex_side) / (1.5 * SQRT3)
        cells = regions * min(self.horizon, MAX_CELLS + 1) * len(self.bands)
        if cells > MAX_CELLS:
            raise ValueError(f"grid too large: an estimated {cells:.3g} cells exceed the cap of {MAX_CELLS}")
        if self.sample_offset is not None and not _point_in_hex(*self.sample_offset, self.hex_side):
            raise ValueError("sample_offset falls outside the unit hexagon")

    @property
    def band_count(self) -> int:
        return len(self.bands)

    @property
    def hex_area(self) -> float:
        return 1.5 * SQRT3 * self.hex_side ** 2


@dataclass(frozen=True)
class Cell:
    """One unit spectrum space: a region hexagon in one time quantum and band."""

    region_index: int
    time_index: int
    band_index: int
    centroid: tuple[float, float]
    sample_point: tuple[float, float]


def _point_in_hex(dx: float, dy: float, side: float, tol: float = 0.0) -> bool:
    """True if the offset (dx, dy) from a centroid lies in its pointy-top hexagon."""
    return (
        abs(dx) <= SQRT3 * side / 2.0 + tol
        and abs(dx) / SQRT3 + abs(dy) <= side + tol
    )


class SpectrumGrid:
    """Tessellation index math: row tables, and the points of any region range
    computed from them on demand; no lattice is cached."""

    def __init__(self, spec: GridSpec):
        s = spec.hex_side
        if spec.region_width < SQRT3 * s or spec.region_height < 2.0 * s:
            raise ValueError(
                "degenerate grid: region smaller than one hexagon "
                f"({spec.region_width} x {spec.region_height} m, hex_side {s} m)"
            )
        self.spec = spec
        col_pitch = SQRT3 * s
        nrows = math.floor((spec.region_height + s) / (1.5 * s)) + 1

        rows = np.arange(nrows)
        self._row_offset = np.where(rows % 2 == 0, 0.0, -0.5 * col_pitch)
        self._row_jmin = np.ceil((-0.5 * col_pitch - self._row_offset) / col_pitch).astype(np.int64)
        j_max = np.floor((spec.region_width + 0.5 * col_pitch - self._row_offset) / col_pitch).astype(np.int64)
        self._row_counts = j_max - self._row_jmin + 1
        self._row_start = np.concatenate(([0], np.cumsum(self._row_counts)))
        self.region_count = int(self._row_start[-1])

    def region_centroids(self, lo: int, hi: int) -> np.ndarray:
        """Centroids of regions [lo, hi), shape (hi - lo, 2)."""
        if not 0 <= lo <= hi <= self.region_count:
            raise IndexError(f"region range [{lo}, {hi}) outside [0, {self.region_count})")
        s = self.spec.hex_side
        first = int(np.searchsorted(self._row_start, lo, side="right")) - 1  # the rows that hold [lo, hi)
        last = int(np.searchsorted(self._row_start, hi, side="left"))
        counts = np.diff(np.clip(self._row_start[first : last + 1], lo, hi))
        row = np.repeat(np.arange(first, last), counts)
        col = np.arange(lo, hi) - np.repeat(self._row_start[first:last] - self._row_jmin[first:last], counts)
        out = np.empty((2, hi - lo)).T  # column-major, so a gain field reads x and y contiguously
        np.add(self._row_offset[row], SQRT3 * s * col, out=out[:, 0])
        np.multiply(1.5 * s, row, out=out[:, 1])
        return out

    def points(self, lo: int, hi: int) -> np.ndarray:
        """Sample points of regions [lo, hi), shape (hi - lo, 2): their centroids,
        offset by the spec's ``sample_offset`` where it is set."""
        pts = self.region_centroids(lo, hi)
        if self.spec.sample_offset is not None:
            pts += self.spec.sample_offset
        return pts

    # -- dimensions ------------------------------------------------------

    @property
    def horizon(self) -> int:
        return self.spec.horizon

    @property
    def band_count(self) -> int:
        return self.spec.band_count

    @property
    def cell_count(self) -> int:
        return self.region_count * self.horizon * self.band_count

    @property
    def row_count(self) -> int:
        return len(self._row_counts)

    # -- geometry --------------------------------------------------------

    def hex_vertices(self, region_index: int) -> np.ndarray:
        cx, cy = self.region_centroids(region_index, region_index + 1)[0]
        s = self.spec.hex_side
        return np.array([(cx + s * math.cos(a), cy + s * math.sin(a)) for a in _VERTEX_ANGLES])

    def locate(self, point) -> int:
        """Region index of the hexagon containing the point.

        Points on a shared edge resolve to the lowest region index.
        Raises ValueError for points outside the tessellated area or not finite.
        """
        x, y = float(point[0]), float(point[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"point {(x, y)} is not finite")
        s = self.spec.hex_side
        col_pitch = SQRT3 * s
        i0 = int(round(y / (1.5 * s)))
        tol = 1e-9 * s
        hits = []
        for i in range(max(0, i0 - 1), min(self.row_count, i0 + 2)):
            off = self._row_offset[i]
            j0 = int(round((x - off) / col_pitch))
            jmin = int(self._row_jmin[i])
            jmax = jmin + int(self._row_counts[i]) - 1
            for j in range(max(jmin, j0 - 1), min(jmax, j0 + 1) + 1):
                cx = off + col_pitch * j
                cy = 1.5 * s * i
                if _point_in_hex(x - cx, y - cy, s, tol):
                    hits.append(int(self._row_start[i]) + (j - jmin))
        if not hits:
            raise ValueError(f"point {(x, y)} outside the tessellated area")
        return min(hits)

    def neighbors(self, region_index: int) -> list[int]:
        """Indices of edge-sharing hexagons (up to six), ascending."""
        if not 0 <= region_index < self.region_count:
            raise IndexError(f"region index {region_index} out of range")
        candidates, valid = self._neighbor_table(np.array([region_index]))
        return candidates[valid].tolist()

    def _neighbor_table(self, regions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Six neighbour candidates per region, ascending, and which exist:
        columns j-1 and j+1 of its own row, and columns j and j+1 (even row)
        or j-1 and j (odd row) of the rows above and below it."""
        row = np.searchsorted(self._row_start, regions, side="right")[:, None] - 1
        col = self._row_jmin[row] + (regions[:, None] - self._row_start[row])
        to_row = row + np.array([-1, -1, 0, 0, 1, 1])
        to_col = col + np.where(row % 2 == 0, [0, 1, -1, 1, 0, 1], [-1, 0, -1, 1, -1, 0])
        r = np.clip(to_row, 0, self.row_count - 1)
        offset = to_col - self._row_jmin[r]
        valid = (to_row == r) & (offset >= 0) & (offset < self._row_counts[r])
        return self._row_start[r] + offset, valid

    # -- cells -----------------------------------------------------------

    def cell(self, region_index: int, time_index: int = 0, band_index: int = 0) -> Cell:
        """The grid's cell; IndexError for an index outside the grid, checked region, then band, then time."""
        checks = (("region", region_index, self.region_count), ("band", band_index, self.band_count), ("time", time_index, self.horizon))
        for name, index, count in checks:
            if not 0 <= index < count:
                raise IndexError(f"{name} index {index} out of range")
        span = (region_index, region_index + 1)
        return Cell(region_index, time_index, band_index, tuple(self.region_centroids(*span)[0]), tuple(self.points(*span)[0]))


def total_spectrum_space(spec: GridSpec, params) -> float:
    """Maximum consumable spectrum: p_cmax * A * T * B (unit-region weights)."""
    return params.p_cmax * SpectrumGrid(spec).cell_count
