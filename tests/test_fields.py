"""Every public dataclass field and public property under src/ is read by some code under src/,
scripts/ or perfbench/ (its tests aside): a field that only tests read is a value kept for them."""

import ast

from test_options import CALLERS, DEFINITIONS

# (module.Class, name) read only outside those files, with the reason it stays
ALLOWED = {
    ("measurement.SliceSet", "observations"):
        "the targets Y that the oracles in tests/ fit and check the package against",
    ("embedding.EmbeddingResult", "basis"):
        "the documented factor U, with U @ coordinates the fitted matrix",
    ("measurement.MeasurementSlice", "target"):
        "perfbench/test_perfbench.py reads it; the view goes with ROADMAP item 9's benchmark change",
}


def _named(decorator, *names) -> bool:
    """Whether decorator is one of names, bare, called or reached as an attribute."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "id", getattr(decorator, "attr", None)) in names


def public_fields(name: str, source: str) -> list:
    """(name.Class, field) of each public field of a public dataclass, and of each public
    property or cached property of a public class."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        dataclass = any(_named(d, "dataclass") for d in node.decorator_list)
        for item in node.body:
            if (dataclass and isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    and "ClassVar" not in ast.unparse(item.annotation)):
                field = item.target.id
            elif (isinstance(item, ast.FunctionDef)
                  and any(_named(d, "property", "cached_property") for d in item.decorator_list)):
                field = item.name
            else:
                continue
            if not field.startswith("_"):
                found.append((f"{name}.{node.name}", field))
    return found


def attribute_reads(source: str) -> set:
    """The name of each attribute the source loads, whatever object it is loaded from."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(definitions: dict, readers: list) -> list:
    """(name.Class, field) of each field that no reader loads by name. definitions maps
    module names to their source."""
    read = set().union(*map(attribute_reads, readers))
    return [(owner, field) for module, source in definitions.items()
            for owner, field in public_fields(module, source) if field not in read]


def test_the_check_finds_an_unread_field():
    definitions = {"m": (
        "from dataclasses import dataclass, field\n"
        "from functools import cached_property\n"
        "from typing import ClassVar\n"
        "@dataclass(frozen=True)\n"
        "class Fit:\n"
        "    data: list\n"
        "    rank: int\n"
        "    _cache: dict = field(default_factory=dict)\n"
        "    LIMIT: ClassVar[int] = 3\n"
        "    @property\n"
        "    def size(self):\n        return len(self.data)\n"
        "    @cached_property\n"
        "    def norm(self):\n        return 0.0\n"
        "class Plain:\n"
        "    width: int\n"
        "    @property\n"
        "    def area(self):\n        return 1\n"
        "@dataclass\n"
        "class _Private:\n"
        "    hidden: int\n"
    )}
    readers = ["fit.norm\nshape.area\nFit(data=[1], rank=2)\nfit.size = 3\n",
               *definitions.values()]
    assert unread_fields(definitions, readers) == [("m.Fit", "rank"), ("m.Fit", "size")]


def package():
    """The sources under src/ by module name, and the sources of every reader."""
    definitions = {path.stem: path.read_text(encoding="utf-8") for path in DEFINITIONS}
    return definitions, [path.read_text(encoding="utf-8") for path in CALLERS]


def test_the_check_finds_a_field_planted_in_the_package():
    definitions, readers = package()
    definitions["solver"] += "\n\n@dataclass\nclass Planted:\n    knob: int\n"
    readers.append("Planted(knob=1)\n")
    assert set(unread_fields(definitions, readers)) - set(ALLOWED) == {("solver.Planted", "knob")}


def test_every_field_has_a_reader():
    assert sorted(set(unread_fields(*package())) - set(ALLOWED)) == []


def test_every_allowed_field_is_still_public_and_unread():
    assert set(ALLOWED) <= set(unread_fields(*package()))
