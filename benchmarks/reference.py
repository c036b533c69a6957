"""Reference model for the output checks, independent of the program.

Recomputes from a scenario document, with numpy alone, what the
program's outputs report: the hexagon lattice of a grid (the layout rules
of ``muse.grid``) and, per (time, band) slice, every cell's occupancy,
raw and clamped opportunity and liability (the definitions of
``muse.consumption``).  It covers what the generated scenarios use: one
power-law propagation model, one noise floor, omni and sector antennas,
one link per network, centroid sample points and worst-case placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)
# Relative tolerance of a recomputed value, and absolute tolerance per
# cell as a share of p_cmax, for the fields that are differences of values
# near p_cmax (opportunity, liability) and may round to near 0.
RTOL = 1e-9
ATOL = 1e-14


def watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def lattice(width: float, height: float, side: float) -> np.ndarray:
    """Centroids of the pointy-top hexagons whose bounding box meets the
    region, row-major; odd rows shifted left by half a column."""
    col, row = SQRT3 * side, 1.5 * side
    parts = []
    for i in range(math.floor((height + side) / row) + 1):
        offset = 0.0 if i % 2 == 0 else -0.5 * col
        js = np.arange(math.ceil((-0.5 * col - offset) / col), math.floor((width + 0.5 * col - offset) / col) + 1)
        parts.append(np.column_stack([offset + col * js, np.full(len(js), row * i)]))
    return np.concatenate(parts)


@dataclass
class End:
    """One transmitter or receiver of the scenario."""

    position: tuple[float, float]
    antenna: tuple[float, float, float, float] | None  # boresight, half beamwidth (rad), main, back gain
    quanta: frozenset[int] | None
    bands: frozenset[int] | None
    level: float  # transmit power (W) or SINR requirement (linear)

    def active(self, tau: int, nu: int) -> bool:
        return (self.quanta is None or tau in self.quanta) and (self.bands is None or nu in self.bands)


def _end(obj: dict, level: float) -> End:
    antenna = obj.get("antenna")
    if antenna is not None:
        antenna = (math.radians(antenna["boresight_deg"]), 0.5 * math.radians(antenna["beamwidth_deg"]),
                   10.0 ** (antenna["main_gain_db"] / 10.0), 10.0 ** (antenna["back_gain_db"] / 10.0))
    active, bands = obj.get("active", "all"), obj.get("bands", "all")
    return End(tuple(obj["position"]), antenna, None if active == "all" else frozenset(active),
               None if bands == "all" else frozenset(bands), level)


class Reference:
    """The consumption fields of one scenario on the grid of one hexagon side."""

    def __init__(self, doc: dict, side: float | None = None):
        system, grid = doc["system"], doc["grid"]
        self.p_max, self.noise = watts(system["p_max_dbm"]), watts(system["noise_dbm"])
        self.p_cmax = self.p_max - watts(system["p_min_dbm"])
        self.alpha = doc["propagation"]["alpha"]
        self.d0 = doc["propagation"]["reference_distance_m"]
        self.horizon, self.bands = grid["time_quanta"], len(grid["bands"])
        self.side = grid["hex_side_m"] if side is None else side
        self.centroids = lattice(grid["width_m"], grid["height_m"], self.side)
        self.links = []
        for net in doc["networks"]:
            (link,) = net["links"]
            (rx,) = link["receivers"]
            tx = link["transmitter"]
            self.links.append((_end(tx, watts(tx["power_dbm"])), _end(rx, 10.0 ** (rx["beta_db"] / 10.0))))
        if grid.get("worst_case_placement"):
            # each end moves to the vertex of its hexagon farthest from its counterpart
            moved = [(self._vertex(tx.position, rx.position), self._vertex(rx.position, tx.position))
                     for tx, rx in self.links]
            for (tx, rx), (tx_pos, rx_pos) in zip(self.links, moved):
                tx.position, rx.position = tx_pos, rx_pos
        self._gains: dict[int, np.ndarray] = {}
        self._remaining: dict[tuple[int, int, int], float] = {}

    def _vertex(self, position, counterpart) -> tuple[float, float]:
        x, y = position
        col, row = SQRT3 * self.side, 1.5 * self.side
        # the containing hexagon has the nearest centroid, found in the nearest three rows
        nearest = []
        for i in range(round(y / row) - 1, round(y / row) + 2):
            offset = 0.0 if i % 2 == 0 else -0.5 * col
            nearest.append((offset + col * round((x - offset) / col), row * i))
        cx, cy = min(nearest, key=lambda c: math.hypot(c[0] - x, c[1] - y))
        angles = math.pi / 2.0 + np.arange(6) * math.pi / 3.0
        vertices = np.column_stack([cx + self.side * np.cos(angles), cy + self.side * np.sin(angles)])
        far = np.argmax((vertices[:, 0] - counterpart[0]) ** 2 + (vertices[:, 1] - counterpart[1]) ** 2)
        return float(vertices[far, 0]), float(vertices[far, 1])

    def gain(self, end: End, pts: np.ndarray, toward: End | None = None) -> np.ndarray:
        """Path gain times the end's antenna gain toward each point, and
        times the antenna gain of ``toward`` (an end at the one point) back."""
        dx, dy = pts[:, 0] - end.position[0], pts[:, 1] - end.position[1]
        d2 = (dx * dx + dy * dy) / (self.d0 * self.d0)
        with np.errstate(divide="ignore"):
            g = np.where(d2 <= 1.0, 1.0, d2 ** (-0.5 * self.alpha))
        for ant, x, y in ((end.antenna, dx, dy), (toward and toward.antenna, -dx, -dy)):
            if ant is not None:
                boresight, half, main, back = ant
                delta = np.abs((np.arctan2(y, x) - boresight + math.pi) % (2.0 * math.pi) - math.pi)
                g = g * np.where((d2 == 0.0) | (delta <= half), main, back)
        return g

    def _cell_gain(self, end: End) -> np.ndarray:
        key = id(end)
        if key not in self._gains:
            self._gains[key] = self.gain(end, self.centroids)
        return self._gains[key]

    def remaining(self, k: int, tau: int, nu: int) -> float:
        """Receiver k's margin left after the interference it already gets."""
        key = (k, tau, nu)
        if key not in self._remaining:
            tx, rx = self.links[k]
            at_rx = np.array([rx.position])
            margin = tx.level * float(self.gain(tx, at_rx, rx)[0]) / rx.level - self.noise
            self._remaining[key] = margin - sum(
                other.level * float(self.gain(other, at_rx, rx)[0])
                for j, (other, _) in enumerate(self.links) if j != k and other.active(tau, nu))
        return self._remaining[key]

    def slice(self, tau: int, nu: int):
        """(occupancy, raw opportunity, opportunity, liability) of every cell."""
        occupancy = np.full(len(self.centroids), self.noise)
        for tx, _ in self.links:
            if tx.active(tau, nu):
                occupancy = occupancy + tx.level * self._cell_gain(tx)
        raw = self.p_max - occupancy
        for k, (_, rx) in enumerate(self.links):
            if rx.active(tau, nu):
                raw = np.minimum(raw, self.remaining(k, tau, nu) / self._cell_gain(rx))
        gamma = np.clip(raw, 0.0, np.maximum(self.p_cmax - occupancy, 0.0))
        return occupancy, raw, gamma, self.p_cmax - occupancy - gamma

    def slices(self):
        """Every slice, as ((tau, nu), fields), time-major."""
        for tau in range(self.horizon):
            for nu in range(self.bands):
                yield (tau, nu), self.slice(tau, nu)

    def entity_consumption(self) -> dict[str, float]:
        """Per transmitter its summed received power, per receiver its summed liability."""
        out, slices = {}, list(self.slices())
        for k, (tx, rx) in enumerate(self.links):
            out[f"tx-{k}"] = sum(float(np.sum(tx.level * self._cell_gain(tx)))
                                 for tau in range(self.horizon) for nu in range(self.bands) if tx.active(tau, nu))
            liability = 0.0
            for (tau, nu), (occupancy, _, _, _) in slices:
                if rx.active(tau, nu):
                    opportunity = self.remaining(k, tau, nu) / self._cell_gain(rx)
                    liability += float(np.sum(np.clip(self.p_cmax - (occupancy + opportunity), 0.0, self.p_cmax)))
            out[f"rx-{k}"] = liability
        return out

    def close(self, value, expected, cells: int = 0) -> bool:
        """True if ``value`` is ``expected`` up to rounding; ``cells`` is the
        number of cells summed into a difference field, 0 for other values."""
        value, expected = np.asarray(value, dtype=float), np.asarray(expected, dtype=float)
        return bool(np.all(np.abs(value - expected) <= RTOL * np.abs(expected) + ATOL * self.p_cmax * cells))
