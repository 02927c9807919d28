"""Module boundaries: no module of the package imports a private name
(one starting with an underscore) from a sibling module, and what the
builtin arithmetic functors mean is written only in ``arith.OPS``."""

import ast
import pathlib

from micromizar.arith import OPS

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "micromizar"


def private_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("micromizar"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                out.append(f"{path.name}:{node.lineno} imports {alias.name} from {node.module}")
    return out


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in private_imports(path)] == []


def test_checker_modules_do_not_name_arithmetic_requirements():
    # they read ``req.arith`` or call ``req.term_value`` instead
    hits = []
    for name in ("equalizer.py", "unifier.py", "flex.py", "prechecker.py"):
        path = PACKAGE / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and node.value in OPS:
                hits.append(f"{name}:{node.lineno} names {node.value}")
    assert hits == []
