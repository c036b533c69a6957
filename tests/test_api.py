"""The public API, pinned: ``muse.__all__``, the signature of each public
callable, the field order of each public dataclass and the public members
of each other public class.  Each name is declared once, in its module's
``__all__``; the package exports the union of those lists.

An intended API change updates ``public_api.txt`` in the same commit:

    PYTHONPATH=src python tests/test_api.py > tests/public_api.txt
"""

import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import muse

from helpers import assert_same_text

SNAPSHOT = Path(__file__).resolve().parent / "public_api.txt"


def describe(name: str) -> str:
    obj = getattr(muse, name)
    if inspect.isclass(obj) and issubclass(obj, BaseException):
        return f"{name}: exception({', '.join(base.__name__ for base in obj.__bases__)})"
    if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
        return f"{name}: dataclass fields {[f.name for f in dataclasses.fields(obj)]}; signature {inspect.signature(obj)}"
    if inspect.isclass(obj):
        return f"{name}: class signature {inspect.signature(obj)}; members {sorted(m for m in vars(obj) if not m.startswith('_'))}"
    if callable(obj):
        return f"{name}: function signature {inspect.signature(obj)}"
    return f"{name}: {type(obj).__name__} instance"


def api_text() -> str:
    return "".join(describe(name) + "\n" for name in muse.__all__)


def test_public_api_matches_snapshot():
    assert_same_text(api_text(), SNAPSHOT.read_text())


# every module of the package but the command line, found on disk, so a new module joins these checks
MODULES = tuple(
    importlib.import_module(f"muse.{info.name}") for info in pkgutil.iter_modules(muse.__path__) if info.name != "cli"
)

# module-level helpers that the package does not export: the CLI, the tests and README reach them by module path
MODULE_HELPERS = {
    "consumption": ("MAP_FIELDS", "thread_budget", "ReceiverPointMetrics"),
    "propagation": ("link_gain", "pattern_gain"),
    "scenario_io": ("map_csv_chunks", "heatmap_chunks", "MAP_CSV_HEADER"),
    "smf": ("check_grid",),
}


def test_package_exports_the_modules_lists():
    """``muse.__all__`` is the disjoint union of the modules' ``__all__``, each name defined in its module."""
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)), sorted(n for n in set(declared) if declared.count(n) > 1)
    assert sorted(muse.__all__) == sorted(declared)
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(obj, "__module__", module.__name__) == module.__name__, (module.__name__, name)
            assert getattr(muse, name) is obj


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from muse import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(muse.__all__)


def test_module_helpers_import_from_their_modules():
    for module_name, names in MODULE_HELPERS.items():
        module = importlib.import_module(f"muse.{module_name}")
        for name in names:
            assert hasattr(module, name), (module_name, name)
            assert name not in module.__all__ and name not in muse.__all__, (module_name, name)


if __name__ == "__main__":
    print(api_text(), end="")
