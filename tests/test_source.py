"""Source hygiene of the package: every import in src/g2calc is used, every
public function has a caller, and every parameter of one is read."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "g2calc"


def _unused_imports(path):
    """Names bound by the module's imports (``__future__`` aside) that no
    expression in the module reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


#: public functions and methods that no code in src/g2calc calls, with the
#: reason each one stays
NO_CALLER_IN_SRC = {
    # waiting for the self-check of a supplied model (ROADMAP item 3)
    "liecdga.verify_primitive": "to certify each witness primitive of a model",
    # waiting for the exact cohomology checks (ROADMAP item 7)
    "liecdga.InvariantModel.involution_pullback": "to compute invariant classes",
    # waiting for the certified cutoff (ROADMAP item 9)
    "catalog.CutoffFn.deriv_bound": "the bound the certified cutoff proves",
    "catalog.CutoffFn.certify": "the grid check the certified cutoff replaces",
    # hitchin_scaling_law validates lambda once and calls the shared body
    "scaling.solve_scaling": "the frame scales alone, for a caller outside src",
}


def _public_defs(tree, module):
    """(qualified name, def node) of each public module-level function and
    each public method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{module}.{node.name}.{sub.name}", sub


def _without_a_caller(trees):
    """Public functions and methods (of the modules name -> ast tree) whose
    name no expression reads outside their own body.  A function is read as
    `f` or as `x.f`; a method only as `x.f`, so a local variable of the same
    name does not count."""
    reads = []                              # (module, line, name, is attribute)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.append((module, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                reads.append((module, node.lineno, node.attr, True))
    lonely = []
    for module, tree in trees.items():
        for qualname, fn in _public_defs(tree, module):
            method = qualname.count(".") == 2
            if not any(n == fn.name and (attr or not method)
                       and not (m == module and fn.lineno <= line <= fn.end_lineno)
                       for m, line, n, attr in reads):
                lonely.append(qualname)
    return sorted(lonely)


def test_every_public_function_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _without_a_caller(trees) == sorted(NO_CALLER_IN_SRC)


def test_a_method_is_called_only_through_an_attribute_read():
    tree = ast.parse("class P:\n"
                     "    def subs(self): pass\n"
                     "    def diff(self): pass\n"
                     "def lone(): pass\n"
                     "def used(): pass\n"
                     "for subs in range(3): used()\n"
                     "lone_value = P().diff\n")
    assert _without_a_caller({"m": tree}) == ["m.P.subs", "m.lone"]


def _unread_parameters(trees):
    """(qualified name, parameter) for each parameter of a public function
    or method (of the modules name -> ast tree) that its body never reads."""
    unread = []
    for module, tree in trees.items():
        for qualname, fn in _public_defs(tree, module):
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg)
                                                              if p]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            unread += [(qualname, p.arg) for p in params if p.arg not in read]
    return sorted(unread)


def test_every_parameter_of_a_public_function_is_read():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _unread_parameters(trees) == []
