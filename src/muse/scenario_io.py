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
import re
import reprlib
import warnings
from types import SimpleNamespace
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np
import yaml
from yaml.events import AliasEvent, DocumentStartEvent, MappingEndEvent, MappingStartEvent, ScalarEvent
from yaml.events import SequenceEndEvent, SequenceStartEvent
from yaml.nodes import ScalarNode

from . import consumption
from .consumption import MAP_FIELDS, ConsumptionMaps
from .grid import Band, GridSpec
from .model import Receiver, RFLink, RFNetwork, RFSystem, SystemParams, Transmitter
from .propagation import OMNI, AntennaPattern, PropagationModel
from .units import db_to_linear, dbm_to_watts, linear_to_db, watts_to_dbm

__all__ = [
    "ScenarioError",
    "parse_scenario",
    "serialize_scenario",
    "load_scenario",
    "save_scenario",
    "write_map_csv",
    "read_map_csv",
]

SCHEMA_VERSION = 1

MAP_CSV_HEADER = (
    "region_index,time_index,band_index,centroid_x_m,centroid_y_m,"
    "occupancy_w,opportunity_w,raw_opportunity_w,liability_w"
)
_HEADER_READ = 1024  # most characters of a map CSV's first line read; a longer line is an unexpected header


# libyaml's parser where pyyaml was built with it; both build the same documents.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_NOT_ID = (type(None), list, dict)  # what an id may not be; a mapping is not named by one


class ScenarioError(ValueError):
    """A scenario document is malformed."""


# ---------------------------------------------------------------------------
# readers, (document value, context) -> model value, and their inverse writers


def _shown(obj, text=repr) -> str:
    """``text(obj)`` (repr, or str for a label's id) in at most 40 characters, a string cut before it is quoted."""
    if isinstance(obj, str):
        return text(obj[:37] + "..." if len(obj) > 40 else obj)
    try:
        shown = reprlib.repr(obj)  # bounded at each level: a long list or mapping is never shown whole
    except ValueError:  # repr refuses an integer past 4,300 digits, also one inside a list or mapping
        shown = ("an int" if type(obj) is int else f"a {type(obj).__name__} with an int") + " of over 4300 digits"
    return shown if len(shown) <= 40 else shown[:37] + "..."


def _number(obj, ctx: str, convert=float, positive=False) -> float:
    """A finite number after ``convert`` (e.g. dBm to watts); overflow is not finite."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ScenarioError(f"{ctx}: expected a number, got {_shown(obj)}")
    try:
        value = convert(float(obj))
    except OverflowError:  # float() of an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{ctx}: expected a finite number, got {_shown(obj)}")
    if positive and not value > 0.0:
        raise ScenarioError(f"{ctx}: expected a positive number, got {_shown(obj)}")
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
            if read(short) == value:
                return short
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
        raise ScenarioError(f"{ctx}: expected true or false, got {_shown(obj)}")
    return obj


def _id(obj, ctx: str) -> str:
    try:
        if not isinstance(obj, _NOT_ID):
            return str(obj)
    except ValueError:  # str() refuses an integer past 4,300 digits
        pass
    raise ScenarioError(f"{ctx}: expected a scalar id, got {_shown(obj)}")


def _index(obj, ctx: str) -> int:
    if type(obj) is not int:
        raise ScenarioError(f"{ctx}: expected an integer, got {_shown(obj)}")
    return obj


def _position(obj, ctx: str) -> tuple[float, float]:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ScenarioError(f"{ctx}: expected [x_m, y_m], got {_shown(obj)}")
    return (_number(obj[0], f"{ctx}[0]"), _number(obj[1], f"{ctx}[1]"))


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
        raise ScenarioError(f"unsupported schema version {_shown(obj)} (expected {SCHEMA_VERSION})")
    return {}


def _noise(obj, ctx: str) -> float | tuple[float, ...]:
    """One ambient noise for all bands, or a list of one per band."""
    if isinstance(obj, list):
        return tuple(_number(v, f"{ctx}[{k}]", dbm_to_watts) for k, v in enumerate(obj))
    return _number(obj, ctx, dbm_to_watts)


def _noise_doc(watts: float | tuple[float, ...]):
    return [_DBM[1](w) for w in watts] if isinstance(watts, tuple) else _DBM[1](watts)


def _antenna(obj, ctx: str) -> AntennaPattern:
    """OMNI for none, "omni" or a mapping of kind omni alone, which is written as none; else a sector."""
    antenna = OMNI if obj is None or obj == "omni" else _ANTENNA(obj, ctx)
    if antenna.kind == "omni" and isinstance(obj, dict) and len(obj) > 1:
        raise ScenarioError(f"{ctx}: an omni antenna takes only a kind, not {_shown(sorted(obj.keys() - {'kind'}))}")
    return antenna


def _policy(obj, ctx: str) -> tuple[float, float] | None:
    """A hexagon's sample point as ``GridSpec.sample_offset``: None for its centroid, or a fixed offset from it."""
    if obj == "centroid":
        return None
    if isinstance(obj, dict):
        return _OFFSET(obj, ctx)
    raise ScenarioError(f"{ctx}: expected 'centroid' or an offset mapping, got {_shown(obj)}")


def _policy_doc(offset: tuple[float, float] | None):
    return "centroid" if offset is None else _OFFSET.write(SimpleNamespace(sample_offset=offset))


def _list_of(section, nonempty=False, least=0):
    """The reader and writer of a list of ``section``'s mappings, a tuple of models,
    the k-th read at ``<ctx>[k]``.  A list of fewer than ``least`` models is not written."""

    def read(obj, ctx: str) -> tuple:
        if not isinstance(obj, list) or (nonempty and not obj):
            raise ScenarioError(f"{ctx}: expected {'a non-empty list' if nonempty else 'a list'}")
        return tuple(section(v, f"{ctx}[{k}]") for k, v in enumerate(obj))

    return read, lambda models: [section.write(m) for m in models] if len(models) >= least else None


def _band_overrides(obj, ctx: str) -> dict:
    """{band: (override mapping, its context)}; ``_propagation`` reads each over the base model."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{ctx}: expected a mapping, got {type(obj).__name__}")
    return {_index(k, ctx): (v, f"{ctx}[{_shown(k)}]") for k, v in obj.items()}


def _noise_overrides(obj, ctx: str) -> dict[tuple[int, int], float]:
    """{(region, band): watts}; ranges are left to ``validate_system``."""
    overrides = {}
    for k, (cell, watts) in enumerate(_NOISE_OVERRIDES[0](obj, ctx)):
        if cell in overrides:
            raise ScenarioError(f"{ctx}[{k}]: region {_shown(cell[0])}, band {_shown(cell[1])} overridden twice")
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
    ``read`` returns them as a dict and ``write`` gets the whole model."""

    key: str
    field: str | None
    read: Callable[[Any, str], Any]
    write: Callable[[Any], Any]
    default: Any = _REQUIRED


class _Section:
    """A mapping: ``build``, which makes its model of the fields its keys fill, and its
    keys in file order.  A ``label`` names a mapping ``<label> <id>`` once its id is a
    scalar; ``view(model)`` is what the keys are written from, if not the model itself."""

    def __init__(self, build, *keys: _Key, label=None, view=None):
        self.build, self.keys, self.label, self.view = build, keys, label, view
        self.allowed = frozenset(e.key for e in keys)
        self.required = frozenset(e.key for e in keys if e.default is _REQUIRED)

    def __call__(self, obj, ctx: str):
        """Read the mapping ``obj`` found at ``ctx`` into its model, each key at
        ``<ctx>.<key>``; the document root's ``ctx`` is "", so its keys stand alone."""
        if not isinstance(obj, dict):
            raise ScenarioError(f"{ctx or 'scenario'}: expected a mapping, got {type(obj).__name__}")
        if self.label is not None and not isinstance(obj.get(_ID.key), _NOT_ID):
            ctx = f"{self.label} {_shown(obj[_ID.key], str)}"
        at, ctx = ctx and ctx + ".", ctx or "scenario"
        unknown = obj.keys() - self.allowed
        if unknown:  # sorted by type first: YAML keys need not be strings
            raise ScenarioError(f"{ctx}: unknown key(s) {_shown(sorted(unknown, key=lambda k: (type(k).__name__, k)))}")
        missing = self.required - obj.keys()
        if missing:
            raise ScenarioError(f"{ctx}: missing key(s) {sorted(missing)}")
        fields = {}
        for key, field, read, _, default in self.keys:
            value = obj.get(key, _REQUIRED)
            value = default if value is _REQUIRED else read(value, at + key)  # absent, so not required
            if field is None:
                fields.update(value)
            else:
                fields[field] = value
        try:
            return self.build(**fields)
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"{ctx}: {exc}") from exc

    def write(self, model) -> dict[str, Any] | None:
        if model is None:  # an optional mapping, left out
            return None
        obj = model if self.view is None else self.view(model)
        doc = {}
        for key, field, _, write, _ in self.keys:
            value = write(obj if field is None else getattr(obj, field))
            if value is not None:
                doc[key] = value
        return doc


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
    _Key("antenna", "antenna", _antenna, lambda antenna: None if antenna.kind == "omni" else _ANTENNA.write(antenna), OMNI),
    _Key("active", "active_intervals", _activity, _activity_doc, None),
    _Key("bands", "bands", _activity, _activity_doc, None),
)
_TX = _Section(
    Transmitter, *_TRANSCEIVER[:2], _Key("power_dbm", "tx_power", *_num(_DBM)), *_TRANSCEIVER[2:], label="transmitter"
)
_RX = _Section(
    Receiver,
    *_TRANSCEIVER[:2],
    _Key("beta_db", "beta", *_num(_DB)),
    *_TRANSCEIVER[2:],
    _Key("margin_dbm", "explicit_margin", _num(_DBM)[0], lambda w: None if w is None else _DBM[1](w), None),
    label="receiver",
)
_LINK = _Section(
    RFLink,
    _ID,
    _Key("transmitter", "transmitter", lambda obj, ctx: None if obj is None else _TX(obj, ctx), _TX.write, None),
    _Key("receivers", "receivers", *_list_of(_RX, least=1), ()),
    label="link",
)
_NETWORK = _Section(
    RFNetwork,
    _ID,
    _Key("links", "links", *_list_of(_LINK)),
    _Key("orthogonal", "orthogonal", _bool, lambda orthogonal: True if orthogonal else None, False),
    label="network",
)
_BAND = _Section(
    Band,
    _Key("center_mhz", "center_hz", *_num(_MHZ, positive=True)),
    _Key("bandwidth_mhz", "bandwidth_hz", *_num(_MHZ, positive=True)),
)
_OFFSET = _Section(
    lambda sample_offset: sample_offset,
    _Key("offset_m", "sample_offset", _position, list),
)
_GRID = _Section(
    GridSpec,
    _Key("width_m", "region_width", *_num()),
    _Key("height_m", "region_height", *_num()),
    _Key("hex_side_m", "hex_side", *_num()),
    _Key("time_quantum_s", "time_quantum", *_num(), 1.0),
    _Key("time_quanta", "horizon", _index, _as_is, 1),
    _Key("bands", "bands", *_list_of(_BAND, nonempty=True)),
    _Key("sample_point_policy", "sample_offset", _policy, _policy_doc, None),
    _Key("worst_case_placement", "worst_case_placement", _bool, _as_is, False),
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
    _Key("band_overrides", "band_propagation", _band_overrides, _band_overrides_doc, {}),
    view=lambda sys: SimpleNamespace(**vars(sys.propagation), band_propagation=sys.band_propagation),
)
_NOISE_OVERRIDE = _Section(  # one (region chi, band nu) cell's noise, as ((chi, nu), watts)
    lambda chi, nu, watts: ((chi, nu), watts),
    _Key("region", "chi", _index, int),
    _Key("band", "nu", _index, int),
    _Key("noise_dbm", "watts", *_num(_DBM)),
    view=lambda item: SimpleNamespace(chi=item[0][0], nu=item[0][1], watts=item[1]),
)
_NOISE_OVERRIDES = _list_of(_NOISE_OVERRIDE, least=1)
_SYSTEM = _Section(
    lambda noise_cell_overrides, **p: dict(params=SystemParams(**p), noise_cell_overrides=noise_cell_overrides),
    _Key("p_max_dbm", "p_max", *_num(_DBM)),
    _Key("p_min_dbm", "p_min", *_num(_DBM)),
    _Key("noise_dbm", "ambient_noise", _noise, _noise_doc),
    _Key("noise_overrides", "noise_cell_overrides", _noise_overrides, _noise_overrides_doc, {}),
    view=lambda sys: SimpleNamespace(**vars(sys.params), noise_cell_overrides=sys.noise_cell_overrides),
)


_SCENARIO = _Section(
    RFSystem,
    _Key("muse_scenario", None, _version, lambda sys: SCHEMA_VERSION),
    _Key("system", None, _SYSTEM, _SYSTEM.write),
    _Key("propagation", None, _PROPAGATION, _PROPAGATION.write),
    _Key("grid", "grid_spec", _GRID, _GRID.write),
    _Key("networks", "networks", *_list_of(_NETWORK)),
)


_DEPTH = 64  # collections open at once; the schema's deepest value, a transmitter's antenna, opens 8
_CORE = "tag:yaml.org,2002:"
_SCALARS = frozenset(_CORE + kind for kind in ("null", "bool", "int", "float", "str"))  # the loader's constructors read them
_MERGE = object()  # a ``<<`` key: the mappings of its value are merged into the mapping that holds it


def _malformed(what: str, event) -> ScenarioError:
    mark = event.start_mark
    return ScenarioError(f"malformed YAML: {what} (line {mark.line + 1}, column {mark.column + 1})")


def _document(text: str):
    """The one YAML document of ``text``, built from the parser's events as ``yaml.load`` builds it, without
    pyyaml's composer and constructor: null, boolean, number and string scalars (plain ones converted once per
    text), lists, mappings, anchors, aliases and ``<<`` merges.  All else raises ScenarioError, as do parser
    errors (pyyaml's text), collections nested deeper than ``_DEPTH`` (``yaml.load``'s composer recurses, in C
    for libyaml), a scalar key given twice in one mapping and aliases that expand it to more values than characters."""

    def scalar(event, start, top):  # ``start`` and ``top``, the open collection's, tell a ``<<`` key from a value
        tag = event.tag if event.tag not in (None, "!") else loader.resolve(ScalarNode, event.value, event.implicit)
        if tag not in _SCALARS:
            if tag == _CORE + "merge" and event.anchor is None and start.__class__ is MappingStartEvent and not len(top) % 2:
                return _MERGE
            raise _malformed(f"a {tag.replace(_CORE, '!!', 1)[:40]} value is not supported", event)
        try:
            value = loader.yaml_constructors[tag](loader, ScalarNode(tag, event.value))
        except (LookupError, ValueError):  # `!!bool maybe`: KeyError; past int()'s digit limit: ValueError
            raise _malformed(f"{_shown(event.value)} is not a valid !!{tag[len(_CORE):]}", event) from None
        if event.anchor is not None:
            anchor(event, (value, 0))
        return value

    def mapping(items, events):  # keys and values in turn: the slow path of a key a dict cannot take once
        value, merged = {}, {}  # explicit keys win, a later `<<` an earlier one, in a list the earlier mapping
        for k in range(0, len(items), 2):
            key, item = items[k], items[k + 1]
            if key is _MERGE:
                for source in [item] if isinstance(item, dict) else item[::-1] if isinstance(item, list) else [0]:
                    if not isinstance(source, dict):
                        raise _malformed("a << value that is not a mapping or a list of mappings", events[k + 1])
                    merged.update(source)
            elif isinstance(key, (dict, list)):
                raise _malformed("a collection key is not supported", events[k])
            elif key in value:
                raise _malformed(f"duplicate key {_shown(key)}", events[k])
            else:
                value[key] = item
        return {**merged, **value}

    def anchor(event, value):  # a new anchor: (its value, the values in it), or while it is open the values before it
        if event.anchor in anchors:
            raise _malformed(f"duplicate anchor {_shown(event.anchor)}", event)
        anchors[event.anchor] = value

    no, plain, anchors, stack, values = object(), {}, {}, [], 0  # values: mapping values and list items, aliases expanded
    top, events, start = [], [], None  # the open collection's items (a mapping's keys and values in turn), events, start
    try:  # a loader left by an error holds a reference cycle, which the collector frees; one that ends holds none
        loader = _YAML_LOADER(text)
        for event in iter(loader.get_event, None):
            kind = event.__class__
            if kind is ScalarEvent:
                value = event.value  # a quoted untagged scalar is the string itself
                if event.anchor is not None or event.tag is not None:
                    value = scalar(event, start, top)
                elif event.implicit[0]:
                    value = plain.get(value, no)
                    if value is no:
                        value = scalar(event, start, top)
                        if value is not _MERGE:  # each `<<` is placed again: a key merges, a value is malformed
                            plain[event.value] = value
            elif kind is MappingStartEvent or kind is SequenceStartEvent:
                if len(stack) == _DEPTH:
                    raise _malformed(f"collections nested deeper than {_DEPTH} levels", event)
                if event.tag is not None and event.tag not in ("!", _CORE + ("map" if kind is MappingStartEvent else "seq")):
                    raise _malformed(f"a {event.tag.replace(_CORE, '!!', 1)[:40]} collection is not supported", event)
                if event.anchor is not None:
                    anchor(event, values)
                stack.append((top, events, start))
                top, events, start = [], [], event
                continue
            elif kind is SequenceEndEvent or kind is MappingEndEvent:
                try:
                    value = top if kind is SequenceEndEvent else dict(zip(top[::2], top[1::2]))
                    if kind is MappingEndEvent and (2 * len(value) != len(top) or _MERGE in value):
                        raise TypeError
                except TypeError:  # a key given twice, an unhashable key or a `<<`
                    value = mapping(top, events)
                values += len(value)
                if start.anchor is not None:
                    anchors[start.anchor] = value, values - anchors[start.anchor]
                event, (top, events, start) = start, stack.pop()  # a collection is marked where it starts
            elif kind is AliasEvent:
                if type(anchors.get(event.anchor)) is not tuple:  # an int while its anchor is open
                    what = "recursive" if event.anchor in anchors else "undefined"
                    raise _malformed(f"{what} alias {_shown(event.anchor)}", event)
                value, size = anchors[event.anchor]
                values += size  # counted at aliases only, so that no alias-free document reaches the bound
                if values > len(text):
                    raise ScenarioError(f"scenario: aliases expand it to more values than its {len(text)} characters")
            elif kind is DocumentStartEvent and top:
                raise _malformed("a second document is not supported", event)
            else:
                continue
            top.append(value)
            events.append(event)
    except (yaml.YAMLError, UnicodeEncodeError) as exc:  # the parser's own errors keep pyyaml's text
        raise ScenarioError("malformed YAML: " + " ".join(str(exc).split())) from exc
    return top[0] if top else None


def parse_scenario(text: str) -> RFSystem:
    return _SCENARIO(_document(text), "")


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_scenario(sys))


# ---------------------------------------------------------------------------
# map CSV

_MAP_DTYPE = np.dtype(
    [("region", np.int64), ("time", np.int64), ("band", np.int64), ("centroid_x", np.float64), ("centroid_y", np.float64)]
    + [(name, np.float64) for name in MAP_FIELDS]
)


def _formatted(values: np.ndarray) -> np.ndarray:
    """``f"{v:.17e}"`` of each value, as an object array of ``values``' shape, each distinct bit
    pattern (so -0.0 apart from 0.0, and each NaN payload apart) formatted once, in one ``%`` call."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    texts = (("%.17e\n" * len(bits)) % tuple(bits.view(np.float64).tolist())).split("\n")
    return np.array(texts, dtype=object)[index.reshape(values.shape)]


def _map_rows(grid, fields: list[np.ndarray], slots: list[str], lo: int, hi: int) -> str:
    """The rows of regions [lo, hi): ``fields`` are (regions, slots), ``slots`` their "tau,nu," prefixes."""
    rows = np.empty((hi - lo, len(slots), 7), dtype=object)  # region, slot and centroid prefixes, four fields
    rows[..., 0] = np.array([f"{chi}," for chi in range(lo, hi)], dtype=object)[:, None]
    rows[..., 1] = slots
    centroids = _formatted(grid.region_centroids(lo, hi))
    rows[..., 2] = (centroids[:, 0] + "," + centroids[:, 1] + ",")[:, None]
    rows[..., 3:] = _formatted(np.stack([f[lo:hi] for f in fields], axis=-1, dtype=np.float64))  # of any real dtype
    return ("%s%s%s%s,%s,%s,%s\n" * (rows.size // 7)) % tuple(rows.ravel())


def map_csv_chunks(maps: ConsumptionMaps) -> Iterator[str]:
    """The map CSV as text chunks of at most ``consumption._TEXT_CHUNK`` rows, every value
    formatted as ``f"{v:.17e}"`` would format it.  A chunk formats each distinct value of its
    centroids and fields once (the clamps repeat about half of them); no lattice is built."""
    grid = maps.grid
    slots = [f"{tau},{nu}," for tau in range(grid.horizon) for nu in range(grid.band_count)]
    fields = [getattr(maps, name).reshape(grid.region_count, len(slots)) for name in MAP_FIELDS]
    step = max(1, consumption._TEXT_CHUNK // len(slots))
    yield MAP_CSV_HEADER + "\n"
    for lo in range(0, grid.region_count, step):
        yield _map_rows(grid, fields, slots, lo, min(lo + step, grid.region_count))


def write_map_csv(path, maps: ConsumptionMaps):
    """Stream the map CSV to ``path`` chunk by chunk."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(map_csv_chunks(maps))


def read_map_csv(path, fields=MAP_FIELDS) -> dict[str, np.ndarray]:
    """Load a map CSV back into the named ``fields`` (of ``MAP_FIELDS``, else
    ValueError) and the ``centroids``, in one ``np.loadtxt`` pass over all nine
    columns; other fields are read as 1-byte strings, not converted.

    The file must be UTF-8 text, the header must match in a first line of
    under ``_HEADER_READ`` characters, every row must hold three integer
    indices and six numbers (no comment lines; empty lines are skipped), every
    (region, time, band) index triple must appear exactly once, every value
    read must be finite and the rows of a region must agree on its centroid;
    anything else raises ScenarioError.
    """
    if not set(fields) <= set(MAP_FIELDS):
        raise ValueError(f"map CSV fields must be of {MAP_FIELDS}, got {tuple(fields)}")
    kinds = [(n, _MAP_DTYPE[n] if n in fields or n not in MAP_FIELDS else "S1") for n in _MAP_DTYPE.names]
    with open(path, "r", encoding="utf-8") as fh:
        try:
            line = fh.readline(_HEADER_READ)
            header = line.strip() if len(line) < _HEADER_READ else line  # a cut line is never the header
            if header == MAP_CSV_HEADER:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                    rows = np.loadtxt(fh, dtype=kinds, delimiter=",", comments=None, ndmin=1)
        except UnicodeDecodeError as exc:  # a ValueError, raised in the header or in any later block read
            raise ScenarioError(f"map CSV is not UTF-8 text: {exc}") from exc
        except ValueError as exc:  # numpy's row R counts after the header, blank lines not; its usecols advice goes
            row = re.search(r"(\d+) were found at (row \d+)", str(exc))
            if row:
                raise ScenarioError(f"map CSV has a row without 9 fields: data {row[2]} has {row[1]} fields") from exc
            raise ScenarioError(f"map CSV has a malformed number: {exc}") from exc
    if header != MAP_CSV_HEADER:
        raise ScenarioError(f"unexpected map CSV header: {_shown(header)}")
    if not rows.size:
        raise ScenarioError("map CSV has no data rows")
    chis, taus, nus = rows["region"], rows["time"], rows["band"]
    if min(chis.min(), taus.min(), nus.min()) < 0:
        raise ScenarioError("map CSV has a negative index")
    shape = (int(chis.max()) + 1, int(taus.max()) + 1, int(nus.max()) + 1)
    if len(rows) != math.prod(shape):
        raise ScenarioError("map CSV row count does not match its index ranges")
    if not all(np.isfinite(rows[name]).all() for name in ("centroid_x", "centroid_y", *fields)):
        raise ScenarioError("map CSV has a non-finite value")
    centroids = np.zeros((shape[0], 2))
    centroids[chis, 0], centroids[chis, 1] = rows["centroid_x"], rows["centroid_y"]
    if np.any(centroids[chis, 0] != rows["centroid_x"]) or np.any(centroids[chis, 1] != rows["centroid_y"]):
        raise ScenarioError("map CSV rows of one region disagree on its centroid")
    cells = chis * shape[1]  # each row's place in a (region, time, band) map, in place: no temporary
    cells += taus
    cells *= shape[2]
    cells += nus
    if np.any(np.bincount(cells, minlength=len(rows)) != 1):
        raise ScenarioError("map CSV has duplicate or missing (region, time, band) rows")
    result: dict[str, Any] = {"centroids": centroids}
    for name in fields:
        result[name] = np.zeros(shape)
        result[name].reshape(-1)[cells] = rows[name]
    return result


def heatmap_chunks(maps: ConsumptionMaps, quantity: str, time_index: int, band_index: int) -> Iterator[str]:
    """Gnuplot-compatible matrix of one quantity for one (time, band) slice,
    as text chunks of whole hexagon rows, at most ``consumption._TEXT_CHUNK``
    values each (or one row), each formatted in one ``%`` call, as
    ``f"{v:.17e}"`` would.  Rows follow the hexagon rows bottom-up; short rows
    are padded with nan.  ValueError for a quantity outside ``MAP_FIELDS``,
    IndexError for a time or band outside the grid."""
    if quantity not in MAP_FIELDS:
        raise ValueError(f"heatmap quantity must be one of {MAP_FIELDS}, got {quantity!r}")
    maps.grid.cell(0, time_index, band_index)  # IndexError for a time or band outside the grid
    counts = maps.grid._row_counts.tolist()
    values = getattr(maps, quantity)[:, time_index, band_index]
    width = max(counts)
    row_fmt = {n: " ".join(["%.17e"] * n + ["nan"] * (width - n)) + "\n" for n in set(counts)}
    lo = hi = 0  # the chunk's values
    rows = []
    for n in counts:
        if rows and hi + n - lo > consumption._TEXT_CHUNK:
            yield "".join(rows) % tuple(values[lo:hi].tolist())
            lo, rows = hi, []
        rows.append(row_fmt[n])
        hi += n
    yield "".join(rows) % tuple(values[lo:hi].tolist())
