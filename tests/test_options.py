"""Every optional parameter of a public function or method under src/ is passed by some call
under src/, scripts/ or perfbench/ (its tests aside): an option no caller sets is a constant."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = sorted((ROOT / "src").rglob("*.py"))
CALLERS = DEFINITIONS + sorted((ROOT / "scripts").glob("*.py")) + sorted(
    path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_")
)

# (module.function, parameter) that only a caller outside those files sets, with the reason
ALLOWED = {
    ("encoders.build_huffman", "arity"):
        "acceptance criterion 10 builds codes of arity 2, 3 and 4; the CLI uses HUFFMAN_ARITY",
    ("field.EmpiricalField.field", "step"):
        "the mirror solvers pass it by position through their field_fn(data, step)",
}


def optional_parameters(name: str, source: str) -> list:
    """(name.qualname, parameter, position or None) of each optional parameter of a public
    module-level function or public method of a public class; position counts the arguments
    a call passes, so a method's self or cls is not counted."""
    found = []

    def scan(qualname, fn, skip):
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        for i, arg in enumerate(args[first:], first):
            found.append((f"{name}.{qualname}", arg.arg, i - skip))
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                found.append((f"{name}.{qualname}", arg.arg, None))

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(source).body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            scan(node.name, node, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    scan(f"{node.name}.{item.name}", item, 0 if static else 1)
    return found


def calls(source: str) -> list:
    """(callee name, positional count, keywords, spreads **) of each call; a call through
    *args counts as passing every position."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            found.append((callee, float("inf") if starred else len(node.args),
                          {k.arg for k in node.keywords if k.arg is not None},
                          any(k.arg is None for k in node.keywords)))
    return found


def unused_options(definitions: dict, callers: list) -> list:
    """(name.qualname, parameter) of each optional parameter that no call passes by name,
    by position or through **. definitions maps module names to their source; calls are
    matched to a definition by the called name alone."""
    made = [call for source in callers for call in calls(source)]
    unused = []
    for module, source in definitions.items():
        for qualname, param, position in optional_parameters(module, source):
            callee = qualname.rsplit(".", 1)[1]
            if not any(name == callee and (param in keywords or spread
                                           or position is not None and position < count)
                       for name, count, keywords, spread in made):
                unused.append((qualname, param))
    return unused


def test_the_check_finds_an_unset_option():
    definitions = {"m": (
        "def fit(x, rounds=3, *, tol=1e-3, scale=1.0):\n    pass\n"
        "def _private(x, knob=1):\n    pass\n"
        "class Model:\n"
        "    def score(self, x, weight=1.0):\n        pass\n"
        "    def rank(self, x, cut=0.5):\n        pass\n"
        "    @staticmethod\n"
        "    def make(size=2):\n        pass\n"
    )}
    callers = ["fit(1, 5, tol=1e-2)\nmodel.score(1, 2.0)\nmodel.rank(x)\nModel.make(**sizes)\n"]
    assert unused_options(definitions, callers) == [("m.fit", "scale"), ("m.Model.rank", "cut")]


def package():
    """The sources under src/ by module name, and the sources of every caller."""
    definitions = {path.stem: path.read_text(encoding="utf-8") for path in DEFINITIONS}
    return definitions, [path.read_text(encoding="utf-8") for path in CALLERS]


def test_the_check_finds_an_option_planted_in_the_package():
    definitions, callers = package()
    definitions["solver"] += "\n\ndef planted(x, knob=1):\n    return x\n"
    callers.append("planted(2)\n")
    assert set(unused_options(definitions, callers)) - set(ALLOWED) == {("solver.planted", "knob")}


def test_every_option_has_a_caller():
    assert sorted(set(unused_options(*package())) - set(ALLOWED)) == []


def test_every_allowed_option_is_still_optional_and_unset():
    assert set(ALLOWED) <= set(unused_options(*package()))
