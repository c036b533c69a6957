"""The public API, pinned: ``muse.__all__``, the signature of each public
callable, the field order of each public dataclass and the public members
of each other public class.

An intended API change updates ``public_api.txt`` in the same commit:

    PYTHONPATH=src python tests/test_api.py > tests/public_api.txt
"""

import dataclasses
import inspect
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


if __name__ == "__main__":
    print(api_text(), end="")
