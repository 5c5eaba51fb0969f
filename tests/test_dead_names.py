"""No dead names: every function, class, method and field of the package is used by package code.

The scan parses src/kaczmarz/*.py, collects the top-level functions and
classes, the methods of those classes and their annotated class-body fields
(those of dataclasses and NamedTuples), and takes away every identifier that
package code references: names, attributes, imported names and string
constants (the `__all__` entries among them). A field counts as used only
where it is read, as a loaded name or an attribute: its own declaration and a
keyword at construction do not count. Dunder methods are called by the
language and are not collected. What remains must be exactly the allow-list,
each entry with the reason it stays.
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
    "solvers.TheoryBounds.worst_flops": "ROADMAP item 5 deletes it if its sweep finds no use",
    "solvers.TheoryBounds.expected_flops": "ROADMAP item 5's gate holds runs under it",
}


def _unreferenced():
    defined, fields, referenced, read = {}, {}, set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        module = path.stem
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                defined["%s.%s" % (module, node.name)] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    qualified = "%s.%s.%%s" % (module, node.name)
                    if isinstance(item, FUNCTIONS) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        defined[qualified % item.name] = item.name
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        fields[qualified % item.target.id] = item.target.id
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    return ({qualified for qualified, name in defined.items() if name not in referenced}
            | {qualified for qualified, name in fields.items() if name not in read})


def test_every_unreferenced_name_is_allowed_with_its_reason():
    assert _unreferenced() == set(ALLOWED)
