"""Scenario files and result export.

Scenario files are YAML with an explicit schema version.  Powers, SINR
thresholds and antenna gains are written in dB units and converted to
linear on load; angles are degrees in files, radians in memory.  Unknown
keys are rejected so typos fail loudly.  The schema is written once, as one
ordered table of keys per mapping (a ``_Section`` of ``_Key`` entries):
``parse_scenario`` reads a document by walking it and ``serialize_scenario``
writes one by walking it in the same order.

Map export is CSV, one row per unit spectrum space in canonical order
(region-major, then time, then band), floats in full-precision
scientific notation so output is byte-stable across runs.
"""

from __future__ import annotations

import math
import warnings
from itertools import chain
from types import SimpleNamespace
from typing import Any, Callable, Iterator, NamedTuple

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


# ---------------------------------------------------------------------------
# readers, (document value, context) -> model value, and their inverse writers


def _number(obj, ctx: str, convert=float, positive=False) -> float:
    """A finite number after ``convert`` (e.g. dBm to watts); overflow is not finite."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ScenarioError(f"{ctx}: expected a number, got {obj!r}")
    try:
        value = convert(float(obj))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{ctx}: expected a finite number, got {obj!r}")
    if positive and not value > 0.0:
        raise ScenarioError(f"{ctx}: expected a positive number, got {obj!r}")
    return value


def _as_is(value, ctx=None):
    """A value read or written as it is."""
    return value


def _unit(read, write):
    """(file unit -> model unit, model unit -> file unit): the writer gives the shortest
    decimal that ``read`` takes back to the same value, else ``write``'s own value."""

    def exact(value):
        converted = write(value)
        for digits in range(1, 18):
            short = float(f"{converted:.{digits}g}")
            try:
                if read(short) == value:
                    return short
            except OverflowError:  # a rounded-up dB value beyond the float range
                pass
        return converted

    return read, exact


_DBM, _DB = _unit(dbm_to_watts, watts_to_dbm), _unit(db_to_linear, linear_to_db)
_DEG, _MHZ = _unit(math.radians, math.degrees), _unit(lambda mhz: mhz * 1e6, lambda hz: hz / 1e6)


def _num(unit=(float, _as_is), positive=False):
    """The reader and writer of a finite number, converted by ``unit``."""
    return (lambda obj, ctx: _number(obj, ctx, unit[0], positive)), unit[1]


def _bool(obj, ctx: str) -> bool:
    """A YAML boolean; a quoted "no" or a 0 is not one."""
    if not isinstance(obj, bool):
        raise ScenarioError(f"{ctx}: expected true or false, got {obj!r}")
    return obj


def _id(obj, ctx: str) -> str:
    if obj is None or isinstance(obj, (list, dict)):
        raise ScenarioError(f"{ctx}: expected a scalar id, got {obj!r}")
    return str(obj)


def _index(obj, ctx: str) -> int:
    if type(obj) is not int:
        raise ScenarioError(f"{ctx}: expected an integer, got {obj!r}")
    return obj


def _position(obj, ctx: str) -> tuple[float, float]:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ScenarioError(f"{ctx}: position must be [x_m, y_m]")
    return (_number(obj[0], ctx), _number(obj[1], ctx))


def _activity(obj, ctx: str) -> frozenset[int] | None:
    if obj is None or obj == "all":
        return None
    if not isinstance(obj, list) or not all(type(i) is int for i in obj):
        raise ScenarioError(f"{ctx}: expected 'all' or a list of indices")
    return frozenset(obj)


def _activity_doc(value: frozenset[int] | None):
    return None if value is None else sorted(value)


def _version(obj, ctx: str) -> dict:
    if type(obj) is not int or obj != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema version {obj!r} (expected {SCHEMA_VERSION})")
    return {}


def _noise(obj, ctx: str) -> float | tuple[float, ...]:
    """One ambient noise for all bands, or a list of one per band."""
    if isinstance(obj, list):
        return tuple(_number(v, ctx, dbm_to_watts) for v in obj)
    return _number(obj, ctx, dbm_to_watts)


def _noise_doc(watts: float | tuple[float, ...]):
    return [_DBM[1](w) for w in watts] if isinstance(watts, tuple) else _DBM[1](watts)


def _antenna(obj, ctx: str) -> AntennaPattern:
    return OMNI if obj is None or obj == "omni" else _ANTENNA(obj, ctx)


def _antenna_doc(antenna: AntennaPattern):
    if antenna == OMNI:
        return None
    return "omni" if antenna.kind == "omni" else _ANTENNA.write(antenna)


_CENTROID = dict(sample_point_policy="centroid", sample_offset=None)


def _policy(obj, ctx: str) -> dict:
    """A hexagon's sample point: its centroid, or a fixed offset from it."""
    if obj == "centroid":
        return _CENTROID
    if isinstance(obj, dict):
        return _OFFSET(obj, ctx)
    raise ScenarioError(f"{ctx}: expected 'centroid' or an offset mapping, got {obj!r}")


def _policy_doc(spec: GridSpec):
    return "centroid" if spec.sample_point_policy == "centroid" else _OFFSET.write(spec)


def _list_of(section, item, nonempty=False, least=0):
    """The reader and writer of a list of ``section``'s mappings, a tuple of models;
    ``item(ctx, k)`` is the k-th mapping's context.  A list of fewer than
    ``least`` models is not written."""

    def read(obj, ctx: str) -> tuple:
        if not isinstance(obj, list) or (nonempty and not obj):
            raise ScenarioError(f"{ctx}: expected {'a non-empty list' if nonempty else 'a list'}")
        return tuple(section(v, item(ctx, k)) for k, v in enumerate(obj))

    return read, lambda models: [section.write(m) for m in models] if len(models) >= least else None


def _nth(ctx: str, k) -> str:
    return f"{ctx}[{k}]"


def _one_of(ctx: str, k) -> str:
    return ctx[:-1]  # "link l-1: receiver" of "link l-1: receivers"


def _unnumbered(ctx: str, k) -> str:
    return ctx.rpartition(" ")[2] + "[]"  # "networks[]"; "links[]" of "network n-1: links"


def _band_overrides(obj, ctx: str) -> dict:
    """{band: (override mapping, its context)}; ``_propagation`` reads each over the base model."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{ctx}: expected a mapping, got {type(obj).__name__}")
    return {_index(k, ctx): (v, _nth(ctx, k)) for k, v in obj.items()}


def _noise_overrides(obj, ctx: str) -> dict[tuple[int, int], float]:
    """{(region, band): watts}; ranges are left to ``validate_system``."""
    overrides = {}
    for k, (cell, watts) in enumerate(_NOISE_OVERRIDES[0](obj, ctx)):
        if cell in overrides:
            raise ScenarioError(f"{ctx}[{k}]: region {cell[0]}, band {cell[1]} overridden twice")
        overrides[cell] = watts
    return overrides


def _noise_overrides_doc(overrides: dict[tuple[int, int], float]):
    return _NOISE_OVERRIDES[1](sorted(overrides.items()))


def _band_overrides_doc(models: dict[int, PropagationModel]):
    return {k: _BAND_OVERRIDE.write(m) for k, m in sorted(models.items())} or None


# ---------------------------------------------------------------------------
# the schema: one table of keys per mapping, walked in both directions

_REQUIRED = object()  # the default of a key that must be present


class _Key(NamedTuple):
    """A key of a mapping and the model field it fills: ``read`` gives the field,
    ``write`` the key's value or None to leave the key out, and ``default`` the
    field of an absent key.  With ``field`` None the key fills several fields:
    ``read`` returns them as a dict and ``write`` gets the whole model.  ``at``
    joins the section's context and the key into the context of ``read``'s
    errors: None gives the section's alone, "" the key alone."""

    key: str
    field: str | None
    read: Callable[[Any, str], Any]
    write: Callable[[Any], Any]
    default: Any = _REQUIRED
    at: str | None = None


class _Section:
    """A mapping: ``build``, which makes its model of the fields its keys fill,
    and its keys in file order.  ``name(ctx, mapping)`` names a mapping by its id;
    ``view(model)`` is what the keys are written from, if not the model itself."""

    def __init__(self, build, *keys: _Key, name=None, view=None):
        self.build, self.keys, self.name, self.view = build, keys, name, view
        self.allowed = frozenset(e.key for e in keys)
        self.required = frozenset(e.key for e in keys if e.default is _REQUIRED)

    def __call__(self, obj, ctx: str):
        """Read the mapping ``obj`` found at ``ctx`` into its model."""
        if not isinstance(obj, dict):
            raise ScenarioError(f"{ctx}: expected a mapping, got {type(obj).__name__}")
        if self.name is not None:
            ctx = self.name(ctx, obj)
        unknown = obj.keys() - self.allowed
        if unknown:  # sorted by type first: YAML keys need not be strings
            raise ScenarioError(f"{ctx}: unknown key(s) {sorted(unknown, key=lambda k: (type(k).__name__, k))}")
        missing = self.required - obj.keys()
        if missing:
            raise ScenarioError(f"{ctx}: missing key(s) {sorted(missing)}")
        fields = {}
        for key, field, read, _, default, at in self.keys:
            value = obj.get(key, _REQUIRED)
            if value is _REQUIRED:  # absent, so not required
                value = default
            else:
                value = read(value, ctx if at is None else f"{ctx}{at}{key}" if at else key)
            if field is None:
                fields.update(value)
            elif field in fields:
                fields[field] += value  # a link's `transmitter`, then its `transmitters`
            else:
                fields[field] = value
        try:
            return self.build(**fields)
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"{ctx}: {exc}") from exc

    def write(self, model) -> dict[str, Any]:
        obj = model if self.view is None else self.view(model)
        doc = {}
        for key, field, _, write, _, _ in self.keys:
            value = write(obj if field is None else getattr(obj, field))
            if value is not None:
                doc[key] = value
        return doc


def _named(label: str | None = None):
    """Name a mapping by its unread id after ``label``, else after its context: "link l-1: transmitter t-1"."""
    return lambda ctx, obj: f"{label or ctx} {obj.get(_ID.key)}"


_ID = _Key("id", "id", _id, _as_is)
_ANTENNA = _Section(
    lambda kind, **pattern: OMNI if kind == "omni" else AntennaPattern(kind, **pattern),  # rejects other kinds
    _Key("kind", "kind", _as_is, _as_is),
    _Key("boresight_deg", "boresight", *_num(_DEG), 0.0),
    _Key("beamwidth_deg", "beamwidth", *_num(_DEG), math.radians(360.0)),
    _Key("main_gain_db", "main_gain", *_num(_DB), 1.0),
    _Key("back_gain_db", "back_gain", *_num(_DB), 1.0),
)
_TRANSCEIVER = (  # a transmitter's or receiver's own first key comes after the position
    _ID,
    _Key("position", "position", _position, list),
    _Key("antenna", "antenna", _antenna, _antenna_doc, OMNI),
    _Key("active", "active_intervals", _activity, _activity_doc, None),
    _Key("bands", "bands", _activity, _activity_doc, None),
)
_TX = _Section(
    Transmitter, *_TRANSCEIVER[:2], _Key("power_dbm", "tx_power", *_num(_DBM)), *_TRANSCEIVER[2:], name=_named()
)
_RX = _Section(
    Receiver,
    *_TRANSCEIVER[:2],
    _Key("beta_db", "beta", *_num(_DB)),
    *_TRANSCEIVER[2:],
    _Key("margin_dbm", "explicit_margin", _num(_DBM)[0], lambda w: None if w is None else _DBM[1](w), None),
    name=_named(),
)
_TRANSMITTERS = _Key("transmitters", "transmitters", *_list_of(_TX, _one_of, least=2), (), ": ")
_LINK = _Section(
    RFLink,
    _ID,
    _Key(  # a link of one transmitter writes it here, one of several under `transmitters`
        "transmitter",
        _TRANSMITTERS.field,
        lambda obj, ctx: () if obj is None else (_TX(obj, ctx),),
        lambda txs: _TX.write(txs[0]) if len(txs) == 1 else None,
        (),
        ": ",
    ),
    _TRANSMITTERS,
    _Key("receivers", "receivers", *_list_of(_RX, _one_of, least=1), (), ": "),
    name=_named("link"),
)
_NETWORK = _Section(
    RFNetwork,
    _ID,
    _Key("links", "links", *_list_of(_LINK, _unnumbered), at=": "),
    _Key("orthogonal", "orthogonal", _bool, lambda orthogonal: True if orthogonal else None, False, ": "),
    name=_named("network"),
)
_BAND = _Section(
    Band,
    _Key("center_mhz", "center_hz", *_num(_MHZ, positive=True)),
    _Key("bandwidth_mhz", "bandwidth_hz", *_num(_MHZ, positive=True)),
)
_OFFSET = _Section(
    lambda sample_offset: dict(sample_point_policy="offset", sample_offset=sample_offset),
    _Key("offset_m", "sample_offset", _position, list, at="."),
)
_GRID = _Section(
    GridSpec,
    _Key("width_m", "region_width", *_num(), at="."),
    _Key("height_m", "region_height", *_num(), at="."),
    _Key("hex_side_m", "hex_side", *_num(), at="."),
    _Key("time_quantum_s", "time_quantum", *_num(), 1.0, "."),
    _Key("time_quanta", "horizon", _index, _as_is, 1, "."),
    _Key("bands", "bands", *_list_of(_BAND, _nth, nonempty=True), at="."),
    _Key("sample_point_policy", None, _policy, _policy_doc, _CENTROID, "."),
    _Key("worst_case_placement", "worst_case_placement", _bool, _as_is, False, "."),
)
_PATH_LOSS = (_Key("alpha", "alpha", *_num()), _Key("reference_distance_m", "reference_distance", *_num(), 1.0))
_BAND_OVERRIDE = _Section(PropagationModel, *_PATH_LOSS)  # writes an override; ``_propagation`` reads them


def _propagation(band_propagation, **base) -> dict:
    """The base model, then each band's override, which inherits the keys it omits."""
    model = PropagationModel(**base)
    inherit = _Section(PropagationModel, *(e._replace(default=base[e.field]) for e in _PATH_LOSS))
    overrides = {k: inherit(obj, ctx) for k, (obj, ctx) in band_propagation.items()}
    return dict(propagation=model, band_propagation=overrides)


_PROPAGATION = _Section(
    _propagation,
    *_PATH_LOSS,
    _Key("band_overrides", "band_propagation", _band_overrides, _band_overrides_doc, {}, "."),
    view=lambda sys: SimpleNamespace(**vars(sys.propagation), band_propagation=sys.band_propagation),
)
_NOISE_OVERRIDE = _Section(  # one (region chi, band nu) cell's noise, as ((chi, nu), watts)
    lambda chi, nu, watts: ((chi, nu), watts),
    _Key("region", "chi", _index, int),
    _Key("band", "nu", _index, int),
    _Key("noise_dbm", "watts", *_num(_DBM)),
    view=lambda item: SimpleNamespace(chi=item[0][0], nu=item[0][1], watts=item[1]),
)
_NOISE_OVERRIDES = _list_of(_NOISE_OVERRIDE, _nth, least=1)
_SYSTEM = _Section(
    lambda noise_cell_overrides, **p: dict(params=SystemParams(**p), noise_cell_overrides=noise_cell_overrides),
    _Key("p_max_dbm", "p_max", *_num(_DBM), at="."),
    _Key("p_min_dbm", "p_min", *_num(_DBM), at="."),
    _Key("noise_dbm", "ambient_noise", _noise, _noise_doc, at="."),
    _Key("noise_overrides", "noise_cell_overrides", _noise_overrides, _noise_overrides_doc, {}, "."),
    view=lambda sys: SimpleNamespace(**vars(sys.params), noise_cell_overrides=sys.noise_cell_overrides),
)


_SCENARIO = _Section(
    RFSystem,
    _Key("muse_scenario", None, _version, lambda sys: SCHEMA_VERSION, at=""),
    _Key("system", None, _SYSTEM, _SYSTEM.write, at=""),
    _Key("propagation", None, _PROPAGATION, _PROPAGATION.write, at=""),
    _Key("grid", "grid_spec", _GRID, _GRID.write, at=""),
    _Key("networks", "networks", *_list_of(_NETWORK, _unnumbered), at=""),
)


def parse_scenario(text: str) -> RFSystem:
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an integer beyond int()'s digit limit
        raise ScenarioError("malformed YAML: " + " ".join(str(exc).split())) from exc
    return _SCENARIO(doc, "scenario")


def serialize_scenario(sys: RFSystem) -> str:
    return yaml.safe_dump(_SCENARIO.write(sys), sort_keys=False)


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
