"""Scenario files and result export.

Scenario files are YAML with an explicit schema version.  Powers, SINR
thresholds and antenna gains are written in dB units and converted to
linear on load; angles are degrees in files, radians in memory.  Unknown
keys are rejected so typos fail loudly.

Map export is CSV, one row per unit spectrum space in canonical order
(region-major, then time, then band), floats in full-precision
scientific notation so output is byte-stable across runs.
"""

from __future__ import annotations

import math
import warnings
from itertools import chain
from typing import Any, Iterator, Mapping

import numpy as np
import yaml

from .consumption import ConsumptionMaps
from .grid import Band, GridSpec
from .model import Receiver, RFLink, RFNetwork, RFSystem, SystemParams, Transmitter
from .propagation import OMNI, AntennaPattern, PropagationModel
from .smf import OpportunityMap
from .units import db_to_linear, dbm_to_watts, linear_to_db, watts_to_dbm

__all__ = [
    "ScenarioError",
    "parse_scenario",
    "serialize_scenario",
    "load_scenario",
    "save_scenario",
    "write_map_csv",
    "read_map_csv",
    "heatmap_text",
    "MAP_CSV_HEADER",
]

SCHEMA_VERSION = 1

MAP_CSV_HEADER = (
    "region_index,time_index,band_index,centroid_x_m,centroid_y_m,"
    "occupancy_w,opportunity_w,raw_opportunity_w,liability_w"
)


# libyaml's parser where pyyaml was built with it; both build the same documents.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(ValueError):
    """A scenario document is malformed."""


def _require_mapping(obj, context: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise ScenarioError(f"{context}: expected a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(obj: Mapping, allowed: set[str], required: set[str], context: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{context}: unknown key(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ScenarioError(f"{context}: missing key(s) {sorted(missing)}")


def _number(obj, context: str, convert=float) -> float:
    """A finite number after ``convert`` (e.g. dBm to watts); overflow is not finite."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ScenarioError(f"{context}: expected a number, got {obj!r}")
    try:
        value = convert(float(obj))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{context}: expected a finite number, got {obj!r}")
    return value


def _bool(obj, context: str) -> bool:
    """A YAML boolean; a quoted "no" or a 0 is not one."""
    if not isinstance(obj, bool):
        raise ScenarioError(f"{context}: expected true or false, got {obj!r}")
    return obj


def _id(obj, context: str) -> str:
    if isinstance(obj, (list, tuple, Mapping)):
        raise ScenarioError(f"{context}: expected a scalar id, got {obj!r}")
    return str(obj)


def _list(obj, context: str) -> list:
    if not isinstance(obj, (list, tuple)):
        raise ScenarioError(f"{context}: expected a list")
    return obj


def _index(obj, context: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ScenarioError(f"{context}: expected an integer, got {obj!r}")
    return obj


def _position(obj, context: str) -> tuple[float, float]:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ScenarioError(f"{context}: position must be [x_m, y_m]")
    return (_number(obj[0], context), _number(obj[1], context))


def _activity(obj, context: str) -> frozenset[int] | None:
    if obj is None or obj == "all":
        return None
    if not isinstance(obj, (list, tuple)) or not all(isinstance(i, int) and not isinstance(i, bool) for i in obj):
        raise ScenarioError(f"{context}: expected 'all' or a list of indices")
    return frozenset(obj)


def _antenna(obj, context: str) -> AntennaPattern:
    if obj is None or obj == "omni":
        return OMNI
    obj = _require_mapping(obj, context)
    _check_keys(
        obj,
        {"kind", "boresight_deg", "beamwidth_deg", "main_gain_db", "back_gain_db"},
        {"kind"},
        context,
    )
    if obj["kind"] == "omni":
        return OMNI
    if obj["kind"] != "sector":
        raise ScenarioError(f"{context}: unknown antenna kind {obj['kind']!r}")
    fields = dict(  # read outside the try, so a reader's error names its context once
        boresight=math.radians(_number(obj.get("boresight_deg", 0.0), context)),
        beamwidth=math.radians(_number(obj.get("beamwidth_deg", 360.0), context)),
        main_gain=_number(obj.get("main_gain_db", 0.0), context, db_to_linear),
        back_gain=_number(obj.get("back_gain_db", 0.0), context, db_to_linear),
    )
    try:
        return AntennaPattern(kind="sector", **fields)
    except ValueError as exc:
        raise ScenarioError(f"{context}: {exc}") from exc


def parse_scenario(text: str) -> RFSystem:
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an integer beyond int()'s digit limit
        raise ScenarioError("malformed YAML: " + " ".join(str(exc).split())) from exc
    doc = _require_mapping(doc, "scenario")
    _check_keys(
        doc,
        {"muse_scenario", "system", "propagation", "grid", "networks"},
        {"muse_scenario", "system", "propagation", "grid", "networks"},
        "scenario",
    )
    if doc["muse_scenario"] != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema version {doc['muse_scenario']!r} (expected {SCHEMA_VERSION})")

    sysdoc = _require_mapping(doc["system"], "system")
    required = {"p_max_dbm", "p_min_dbm", "noise_dbm"}
    _check_keys(sysdoc, required | {"noise_overrides"}, required, "system")
    noise = sysdoc["noise_dbm"]
    if isinstance(noise, (list, tuple)):
        ambient = tuple(_number(v, "system.noise_dbm", dbm_to_watts) for v in noise)
    else:
        ambient = _number(noise, "system.noise_dbm", dbm_to_watts)
    try:
        params = SystemParams(
            p_max=_number(sysdoc["p_max_dbm"], "system.p_max_dbm", dbm_to_watts),
            p_min=_number(sysdoc["p_min_dbm"], "system.p_min_dbm", dbm_to_watts),
            ambient_noise=ambient,
        )
    except ValueError as exc:
        raise ScenarioError(f"system: {exc}") from exc
    noise_overrides = _noise_overrides(sysdoc.get("noise_overrides", []))

    propdoc = _require_mapping(doc["propagation"], "propagation")
    _check_keys(propdoc, {"alpha", "reference_distance_m", "band_overrides"}, {"alpha"}, "propagation")

    def _model(src: Mapping, context: str, default: PropagationModel | None = None) -> PropagationModel:
        alpha = _number(src["alpha"], context) if "alpha" in src else default.alpha
        ref = (
            _number(src["reference_distance_m"], context)
            if "reference_distance_m" in src
            else (default.reference_distance if default else 1.0)
        )
        try:
            return PropagationModel(alpha=alpha, reference_distance=ref)
        except ValueError as exc:
            raise ScenarioError(f"{context}: {exc}") from exc

    propagation = _model(propdoc, "propagation")
    band_models: dict[int, PropagationModel] = {}
    for key, override in _require_mapping(propdoc.get("band_overrides", {}), "propagation.band_overrides").items():
        _index(key, "propagation.band_overrides")
        override = _require_mapping(override, f"propagation.band_overrides[{key}]")
        _check_keys(override, {"alpha", "reference_distance_m"}, set(), f"propagation.band_overrides[{key}]")
        band_models[key] = _model(override, f"propagation.band_overrides[{key}]", propagation)

    griddoc = _require_mapping(doc["grid"], "grid")
    _check_keys(
        griddoc,
        {
            "width_m",
            "height_m",
            "hex_side_m",
            "time_quantum_s",
            "time_quanta",
            "bands",
            "sample_point_policy",
            "worst_case_placement",
        },
        {"width_m", "height_m", "hex_side_m", "bands"},
        "grid",
    )
    bands = []
    if not isinstance(griddoc["bands"], (list, tuple)) or not griddoc["bands"]:
        raise ScenarioError("grid.bands: expected a non-empty list")
    for k, banddoc in enumerate(griddoc["bands"]):
        banddoc = _require_mapping(banddoc, f"grid.bands[{k}]")
        _check_keys(banddoc, {"center_mhz", "bandwidth_mhz"}, {"center_mhz", "bandwidth_mhz"}, f"grid.bands[{k}]")
        bands.append(
            Band(
                center_hz=_number(banddoc["center_mhz"], f"grid.bands[{k}]") * 1e6,
                bandwidth_hz=_number(banddoc["bandwidth_mhz"], f"grid.bands[{k}]") * 1e6,
            )
        )
    policy = griddoc.get("sample_point_policy", "centroid")
    sample_offset = None
    policy_name = policy
    if isinstance(policy, Mapping):
        _check_keys(policy, {"offset_m"}, {"offset_m"}, "grid.sample_point_policy")
        sample_offset = _position(policy["offset_m"], "grid.sample_point_policy.offset_m")
        policy_name = "offset"
    elif policy not in ("centroid",):
        raise ScenarioError(f"grid.sample_point_policy: expected 'centroid' or an offset mapping, got {policy!r}")
    horizon = _index(griddoc.get("time_quanta", 1), "grid.time_quanta")
    worst_case = _bool(griddoc.get("worst_case_placement", False), "grid.worst_case_placement")
    try:
        grid_spec = GridSpec(
            region_width=_number(griddoc["width_m"], "grid.width_m"),
            region_height=_number(griddoc["height_m"], "grid.height_m"),
            hex_side=_number(griddoc["hex_side_m"], "grid.hex_side_m"),
            time_quantum=_number(griddoc.get("time_quantum_s", 1.0), "grid.time_quantum_s"),
            horizon=horizon,
            bands=tuple(bands),
            sample_point_policy=policy_name,
            sample_offset=sample_offset,
            worst_case_placement=worst_case,
        )
    except ValueError as exc:
        raise ScenarioError(f"grid: {exc}") from exc

    if isinstance(ambient, tuple) and len(ambient) != len(bands):
        raise ScenarioError("system.noise_dbm: per-band list length does not match grid.bands")

    networks = []
    for netdoc in _list(doc["networks"], "networks"):
        netdoc = _require_mapping(netdoc, "networks[]")
        net_context = f"network {netdoc.get('id')}"
        _check_keys(netdoc, {"id", "orthogonal", "links"}, {"id", "links"}, net_context)
        links = []
        for linkdoc in _list(netdoc["links"], f"{net_context}: links"):
            linkdoc = _require_mapping(linkdoc, "links[]")
            context = f"link {linkdoc.get('id')}"
            _check_keys(linkdoc, {"id", "transmitter", "transmitters", "receivers"}, {"id"}, context)
            txdocs = []
            if "transmitter" in linkdoc and linkdoc["transmitter"] is not None:
                txdocs.append(linkdoc["transmitter"])
            txdocs.extend(_list(linkdoc.get("transmitters", ()), f"{context}: transmitters"))
            transmitters = tuple(_parse_tx(t, context) for t in txdocs)
            rxdocs = _list(linkdoc.get("receivers", ()), f"{context}: receivers")
            receivers = tuple(_parse_rx(r, context) for r in rxdocs)
            links.append(RFLink(id=_id(linkdoc["id"], context), transmitters=transmitters, receivers=receivers))
        orthogonal = _bool(netdoc.get("orthogonal", False), f"{net_context}: orthogonal")
        networks.append(RFNetwork(id=_id(netdoc["id"], net_context), links=tuple(links), orthogonal=orthogonal))

    return RFSystem(
        params=params,
        propagation=propagation,
        grid_spec=grid_spec,
        networks=tuple(networks),
        band_propagation=band_models,
        noise_cell_overrides=noise_overrides,
    )


def _noise_overrides(obj) -> dict[tuple[int, int], float]:
    """``system.noise_overrides`` as {(region, band): watts}; ranges are left to ``validate_system``."""
    overrides = {}
    for k, item in enumerate(_list(obj, "system.noise_overrides")):
        ctx = f"system.noise_overrides[{k}]"
        _check_keys(_require_mapping(item, ctx), {"region", "band", "noise_dbm"}, {"region", "band", "noise_dbm"}, ctx)
        key = (_index(item["region"], ctx), _index(item["band"], ctx))
        if key in overrides:
            raise ScenarioError(f"{ctx}: region {key[0]}, band {key[1]} overridden twice")
        overrides[key] = _number(item["noise_dbm"], ctx, dbm_to_watts)
    return overrides


def _parse_tx(obj, context: str) -> Transmitter:
    return _parse_transceiver(obj, context, Transmitter, {"power_dbm": ("tx_power", dbm_to_watts)})


def _parse_rx(obj, context: str) -> Receiver:
    own = {"beta_db": ("beta", db_to_linear), "margin_dbm": ("explicit_margin", dbm_to_watts)}
    return _parse_transceiver(obj, context, Receiver, own)


def _parse_transceiver(obj, context: str, cls, own: dict[str, tuple[str, Any]]):
    """A transmitter or receiver: the shared keys plus ``own``, the kind's
    dB keys as {key: (field, conversion to linear)}.  The first own key is
    required and read after the position, the others after the bands."""
    kind = cls.__name__.lower()
    obj = _require_mapping(obj, f"{context}: {kind}")
    ctx = f"{context}: {kind} {obj.get('id')}"
    first, *rest = own
    _check_keys(obj, {"id", "position", "antenna", "active", "bands", *own}, {"id", "position", first}, ctx)

    def linear(keys):
        return {own[k][0]: _number(obj[k], ctx, own[k][1]) for k in keys if k in obj}

    fields = dict(  # read before the constructor runs, so a reader's error names its context once
        id=_id(obj["id"], ctx),
        position=_position(obj["position"], ctx),
        **linear([first]),
        antenna=_antenna(obj.get("antenna"), ctx),
        active_intervals=_activity(obj.get("active"), ctx),
        bands=_activity(obj.get("bands"), ctx),
        **linear(rest),
    )
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ScenarioError(f"{ctx}: {exc}") from exc


# ---------------------------------------------------------------------------
# serialization


def _antenna_doc(antenna: AntennaPattern):
    if antenna.kind == "omni":
        return "omni"
    return {
        "kind": "sector",
        "boresight_deg": math.degrees(antenna.boresight),
        "beamwidth_deg": math.degrees(antenna.beamwidth),
        "main_gain_db": linear_to_db(antenna.main_gain),
        "back_gain_db": linear_to_db(antenna.back_gain),
    }


def _activity_doc(value: frozenset[int] | None):
    return "all" if value is None else sorted(value)


def serialize_scenario(sys: RFSystem) -> str:
    params = sys.params
    if isinstance(params.ambient_noise, tuple):
        noise_doc: Any = [watts_to_dbm(w) for w in params.ambient_noise]
    else:
        noise_doc = watts_to_dbm(params.ambient_noise)
    spec = sys.grid_spec
    doc: dict[str, Any] = {
        "muse_scenario": SCHEMA_VERSION,
        "system": {
            "p_max_dbm": watts_to_dbm(params.p_max),
            "p_min_dbm": watts_to_dbm(params.p_min),
            "noise_dbm": noise_doc,
        },
        "propagation": {
            "alpha": sys.propagation.alpha,
            "reference_distance_m": sys.propagation.reference_distance,
        },
        "grid": {
            "width_m": spec.region_width,
            "height_m": spec.region_height,
            "hex_side_m": spec.hex_side,
            "time_quantum_s": spec.time_quantum,
            "time_quanta": spec.horizon,
            "bands": [{"center_mhz": b.center_hz / 1e6, "bandwidth_mhz": b.bandwidth_hz / 1e6} for b in spec.bands],
            "sample_point_policy": (
                "centroid" if spec.sample_point_policy == "centroid" else {"offset_m": list(spec.sample_offset)}
            ),
            "worst_case_placement": spec.worst_case_placement,
        },
        "networks": [],
    }
    if sys.noise_cell_overrides:
        doc["system"]["noise_overrides"] = [
            {"region": int(chi), "band": int(nu), "noise_dbm": watts_to_dbm(w)}
            for (chi, nu), w in sorted(sys.noise_cell_overrides.items())
        ]
    if sys.band_propagation:
        doc["propagation"]["band_overrides"] = {
            k: {"alpha": m.alpha, "reference_distance_m": m.reference_distance}
            for k, m in sorted(sys.band_propagation.items())
        }
    for net in sys.networks:
        netdoc: dict[str, Any] = {"id": net.id, "links": []}
        if net.orthogonal:
            netdoc["orthogonal"] = True
        for link in net.links:
            linkdoc: dict[str, Any] = {"id": link.id}
            if len(link.transmitters) == 1:
                linkdoc["transmitter"] = _tx_doc(link.transmitters[0])
            elif link.transmitters:
                linkdoc["transmitters"] = [_tx_doc(t) for t in link.transmitters]
            if link.receivers:
                linkdoc["receivers"] = [_rx_doc(r) for r in link.receivers]
            netdoc["links"].append(linkdoc)
        doc["networks"].append(netdoc)
    return yaml.safe_dump(doc, sort_keys=False)


def _tx_doc(tx: Transmitter) -> dict[str, Any]:
    return _transceiver_doc(tx, {"power_dbm": watts_to_dbm(tx.tx_power)})


def _rx_doc(rx: Receiver) -> dict[str, Any]:
    out = _transceiver_doc(rx, {"beta_db": linear_to_db(rx.beta)})
    if rx.explicit_margin is not None:
        out["margin_dbm"] = watts_to_dbm(rx.explicit_margin)
    return out


def _transceiver_doc(e: Transmitter | Receiver, own: dict[str, Any]) -> dict[str, Any]:
    """The shared keys in schema order, the kind's ``own`` keys after the position."""
    out: dict[str, Any] = {"id": e.id, "position": list(e.position), **own}
    if e.antenna != OMNI:
        out["antenna"] = _antenna_doc(e.antenna)
    if e.active_intervals is not None:
        out["active"] = _activity_doc(e.active_intervals)
    if e.bands is not None:
        out["bands"] = _activity_doc(e.bands)
    return out


def load_scenario(path) -> RFSystem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"scenario is not UTF-8 text: {exc}") from exc
    return parse_scenario(text)


def save_scenario(sys: RFSystem, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_scenario(sys))


# ---------------------------------------------------------------------------
# map CSV

_MAP_FIELDS = ("occupancy", "opportunity", "raw_opportunity", "liability")
_MAP_DTYPE = np.dtype(
    [("region", np.int64), ("time", np.int64), ("band", np.int64), ("centroid_x", np.float64), ("centroid_y", np.float64)]
    + [(name, np.float64) for name in _MAP_FIELDS]
)
# One map CSV row from (region prefix, "tau,nu," prefix, centroid prefix, four fields).
_MAP_ROW = "%s%s%s%.17e,%.17e,%.17e,%.17e\n"
_CSV_CHUNK_ROWS = 4096  # rows formatted per write; bounds the text held in memory


def _map_csv_chunks(maps: ConsumptionMaps) -> Iterator[str]:
    """The map CSV as text chunks of at most ``_CSV_CHUNK_ROWS`` rows.

    Each chunk is one ``%`` call over Python floats, so every value is
    formatted exactly as ``f"{v:.17e}"`` would format it; the region and
    centroid prefixes are formatted once per region.
    """
    grid = maps.grid
    slots = [f"{tau},{nu}," for tau in range(grid.horizon) for nu in range(grid.band_count)]
    fields = [getattr(maps, name).reshape(grid.region_count, len(slots)) for name in _MAP_FIELDS]
    step = max(1, _CSV_CHUNK_ROWS // len(slots))
    yield MAP_CSV_HEADER + "\n"
    for lo in range(0, grid.region_count, step):
        hi = min(lo + step, grid.region_count)
        regions = [f"{chi}," for chi in range(lo, hi)]
        centroids = ["%.17e,%.17e," % (x, y) for x, y in grid.centroids[lo:hi].tolist()]
        columns = (
            [p for p in regions for _ in slots],
            slots * (hi - lo),
            [p for p in centroids for _ in slots],
            *(f[lo:hi].ravel().tolist() for f in fields),
        )
        yield (_MAP_ROW * (len(slots) * (hi - lo))) % tuple(chain.from_iterable(zip(*columns)))


def write_map_csv(path, maps: ConsumptionMaps):
    """Stream the map CSV to ``path`` chunk by chunk."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_map_csv_chunks(maps))


def read_map_csv(path) -> dict[str, np.ndarray | OpportunityMap]:
    """Load a map CSV back into arrays plus an OpportunityMap.

    The header must match, every row must hold three integer indices and
    six numbers (no comment lines; empty lines are skipped), every
    (region, time, band) index triple must appear exactly once and every
    value must be finite; anything else raises ScenarioError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != MAP_CSV_HEADER:
            raise ScenarioError(f"unexpected map CSV header: {header!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                rows = np.loadtxt(fh, dtype=_MAP_DTYPE, delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            # numpy reports a row of the wrong width by its column count
            if "columns" in str(exc):
                raise ScenarioError(f"map CSV has a row without {len(_MAP_DTYPE)} fields: {exc}") from exc
            raise ScenarioError(f"map CSV has a malformed number: {exc}") from exc
    if not rows.size:
        raise ScenarioError("map CSV has no data rows")
    chis, taus, nus = rows["region"], rows["time"], rows["band"]
    if min(chis.min(), taus.min(), nus.min()) < 0:
        raise ScenarioError("map CSV has a negative index")
    n_regions = int(chis.max()) + 1
    horizon = int(taus.max()) + 1
    n_bands = int(nus.max()) + 1
    if len(rows) != n_regions * horizon * n_bands:
        raise ScenarioError("map CSV row count does not match its index ranges")
    if np.any(np.bincount((chis * horizon + taus) * n_bands + nus, minlength=len(rows)) != 1):
        raise ScenarioError("map CSV has duplicate or missing (region, time, band) rows")
    if not all(np.isfinite(rows[name]).all() for name in _MAP_DTYPE.names[3:]):
        raise ScenarioError("map CSV has a non-finite value")

    shape = (n_regions, horizon, n_bands)
    centroids = np.zeros((n_regions, 2))
    centroids[chis, 0] = rows["centroid_x"]
    centroids[chis, 1] = rows["centroid_y"]
    data = {}
    for name in _MAP_FIELDS:
        data[name] = np.zeros(shape)
        data[name][chis, taus, nus] = rows[name]
    result: dict[str, Any] = dict(data)
    result["centroids"] = centroids
    result["opportunity_map"] = OpportunityMap(values=data["opportunity"], centroids=centroids, provenance="ground-truth")
    return result


def heatmap_text(maps: ConsumptionMaps, quantity: str, time_index: int, band_index: int) -> str:
    """Gnuplot-compatible matrix of one quantity for one (time, band) slice.

    Rows follow the hexagon rows bottom-up; short rows are padded with nan.
    The slice is formatted in one ``%`` call, as ``f"{v:.17e}"`` would.
    """
    grid = maps.grid
    values = getattr(maps, quantity)[:, time_index, band_index]
    width = int(max(grid._row_counts))
    row_fmt = {n: " ".join(["%.17e"] * n + ["nan"] * (width - n)) for n in set(grid._row_counts.tolist())}
    text_fmt = "\n".join(row_fmt[n] for n in grid._row_counts.tolist()) + "\n"
    return text_fmt % tuple(values.tolist())
