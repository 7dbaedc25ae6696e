import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tropibound"
BENCH = ROOT / "bench"

# functions that nothing in the package or the benchmark reaches: matrix
# helpers only the tests call, and the hook argparse calls on a usage error
ALLOWED = {
    "RationalMatrix.identity",
    "RationalMatrix.row_list",
    "RationalMatrix.apply",
    "RationalMatrix.submatrix_columns",
    "_Parser.error",
}


def defined(tree: ast.AST, prefix: str = "") -> dict[str, str]:
    """Qualified name -> name of every function and method below ``tree``,
    nested ones included.  Special methods (``__init__`` and the like)
    are left out: the language calls them, not a name."""
    out = {}
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = prefix + node.name
            if not isinstance(node, ast.ClassDef) and not node.name.startswith("__"):
                out[qualified] = node.name
            out.update(defined(node, qualified + "."))
        else:
            out.update(defined(node, prefix))
    return out


def loaded(tree: ast.AST) -> set[str]:
    """Every name loaded, as a plain name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def bench_names() -> set[str]:
    """Every name and attribute in ``bench/*.py``, and the function names
    ``bench/tracing.py`` lists as strings in ``GROUPS`` to wrap them."""
    names = set()
    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "GROUPS" for t in node.targets
            ):
                names |= {
                    c.value
                    for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                }
    return names


def unreached(paths, reached: set[str]) -> set[str]:
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in paths]
    reached = reached | {name for tree in trees for name in loaded(tree)}
    return {
        qualified
        for tree in trees
        for qualified, name in defined(tree).items()
        if name not in reached
    }


def test_every_function_is_reached():
    assert unreached(sorted(PACKAGE.glob("*.py")), bench_names()) == ALLOWED


def test_unreached_scan_sees_methods_nested_functions_and_attributes(tmp_path):
    # g is called inside f, K.m as an attribute and h from outside; f, the
    # special method and the property p, read as an attribute, are reached
    # or exempt, and K.n and f.dead are not
    path = tmp_path / "sample.py"
    path.write_text(
        "def f():\n"
        "    def g():\n"
        "        return 0\n"
        "    def dead():\n"
        "        return 1\n"
        "    return g() + K().m() + K().p\n"
        "def h():\n"
        "    return f()\n"
        "class K:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def m(self):\n"
        "        return 0\n"
        "    def n(self):\n"
        "        return 0\n"
        "    @property\n"
        "    def p(self):\n"
        "        return 0\n",
        encoding="utf-8",
    )
    assert unreached([path], {"h"}) == {"K.n", "f.dead"}
    assert unreached([path], set()) == {"K.n", "f.dead", "h"}
