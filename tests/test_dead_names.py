"""No dead names: every function, class and method of the package is used by package code.

The scan parses src/kaczmarz/*.py, collects the top-level functions and
classes and the methods of those classes, and takes away every identifier
that package code references: names, attributes, imported names and string
constants (the `__all__` entries among them). Dunder methods are called by
the language and are not collected. What remains must be exactly the
allow-list, each entry with the reason it stays.
"""

import ast
import pathlib

import kaczmarz

PACKAGE = pathlib.Path(kaczmarz.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

ALLOWED = {
    "verify.rek_checkpoint_errors": "the benchmark's tracer patches it; the tests read REK runs",
    "verify.rk_checkpoint_errors": "the benchmark's tracer patches it; the tests read RK runs",
    "verify.rop_checkpoint_errors": "the benchmark's tracer patches it; the tests read ROP runs",
    "sampling.reconstructed_mass": "ROADMAP item 1 weights verify's enumeration by it",
    "sampling.mix64": "the tests' scalar reference for _mix64_array",
}


def _unreferenced():
    defined, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        module = path.stem
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                defined["%s.%s" % (module, node.name)] = node.name
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, FUNCTIONS) and not (
                            method.name.startswith("__") and method.name.endswith("__")):
                        defined["%s.%s.%s" % (module, node.name, method.name)] = method.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    return {qualified for qualified, name in defined.items() if name not in referenced}


def test_every_unreferenced_name_is_allowed_with_its_reason():
    assert _unreferenced() == set(ALLOWED)
