import ast
from pathlib import Path

from tropibound import cli

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tropibound"

# (module, function, parameter) that may go unread: each CLI handler
# takes the parsed arguments whether or not it reads them, and
# ``__setattr__`` refuses every write without looking at it
ALLOWED = {("cli.py", handler.__name__, "args") for _, handler, _ in cli.COMMANDS.values()}
ALLOWED |= {(p.name, "__setattr__", a) for p in PACKAGE.glob("*.py") for a in ("name", "value")}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def parameters(node) -> list[str]:
    a = node.args
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    return names + [p.arg for p in (a.vararg, a.kwarg) if p is not None]


def reads(node, name: str) -> bool:
    """Whether ``name`` is loaded anywhere below ``node``, except inside a
    nested function or lambda that takes a parameter of that name, where
    only its decorators and defaults still see the outer one."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCTIONS) and name in parameters(child):
            outer = [*getattr(child, "decorator_list", []), *child.args.defaults]
            outer += [d for d in child.args.kw_defaults if d is not None]
            if any(reads(ast.Expression(d), name) for d in outer):
                return True
        elif isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load):
            return True
        elif reads(child, name):
            return True
    return False


def unread_parameters(path: Path) -> list[tuple[str, str, str]]:
    """(file name, function name, parameter) for each parameter of a
    function or lambda in ``path`` that its body never reads.  A method's
    receiver, the first parameter of a function in a class body, is
    bound by the method protocol, not passed, and is not checked."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    classes = [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
    methods = {id(f) for c in classes for f in c.body if isinstance(f, FUNCTIONS)}
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            body = node.body if isinstance(node.body, list) else [ast.Expr(node.body)]
            for name in parameters(node)[id(node) in methods :]:
                if not reads(ast.Module(body, []), name):
                    unread.append((path.name, getattr(node, "name", "<lambda>"), name))
    return unread


def test_every_parameter_is_read():
    found = [u for path in sorted(PACKAGE.glob("*.py")) for u in unread_parameters(path)]
    assert [u for u in found if u not in ALLOWED] == []


def test_unread_parameter_scan_sees_through_scopes(tmp_path):
    # a nested function's own parameter a hides the outer a, a default
    # reads the outer b, a comprehension reads c, and d is never read
    path = tmp_path / "sample.py"
    path.write_text(
        "def f(a, b, c, d):\n"
        "    def g(a):\n"
        "        return a\n"
        "    h = lambda b=b: b\n"
        "    return [c for _ in ()], g, h, lambda e: 0\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        return 0\n",
        encoding="utf-8",
    )
    assert sorted(unread_parameters(path)) == [
        ("sample.py", "<lambda>", "e"),
        ("sample.py", "f", "a"),
        ("sample.py", "f", "d"),
        ("sample.py", "m", "x"),
    ]
