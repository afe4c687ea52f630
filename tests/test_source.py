"""Source hygiene of the package: every import in src/g2calc is used, every
public function has a caller, every parameter of one is read, and every
default of one, or of a public class's constructor, has two values in use:
some call in src/g2calc overrides it with another value, and some call
relies on it by omitting the argument or passing the default's text."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "g2calc"


def _src_trees():
    """Module name -> ast tree of each module of the package."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_names_numpy_random(path):
    # every sampled quantity draws from a seeded random.Random: numpy's
    # generators hold about 5 MiB of a verify pass and 17 ms of a cold start
    text = path.read_text()
    assert [n for n, line in enumerate(text.splitlines(), 1)
            if "np.random" in line or "numpy.random" in line] == []


#: public functions and methods that no code in src/g2calc calls, with the
#: reason each one stays
NO_CALLER_IN_SRC = {}


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
    assert _without_a_caller(_src_trees()) == sorted(NO_CALLER_IN_SRC)


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
    assert _unread_parameters(_src_trees()) == []


#: defaulted parameters of public functions and methods that no call in
#: src/g2calc passes with another value, with the reason each one stays
#: settable
NO_SETTER_IN_SRC = {
    "cli.main.argv": "the console script calls main() and argparse reads sys.argv",
}

#: the text of an argument that a spread *args or **kwargs may pass
SPREAD = object()


def _calls(trees):
    """(module, line, callee name, read as an attribute, positional
    argument texts, keyword name -> argument text) of each call in the
    modules (name -> ast tree), each text as ast.unparse writes it; a
    functools.partial(f, ...) counts as a call of f with the arguments
    after f.  A spread *args ends the positional texts with SPREAD, and a
    spread **kwargs adds the keyword None, whose text is SPREAD."""
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn, args = node.func, node.args
            if getattr(fn, "id", getattr(fn, "attr", None)) == "partial" and args:
                fn, args = args[0], args[1:]
            if isinstance(fn, ast.Name):
                name, attr = fn.id, False
            elif isinstance(fn, ast.Attribute):
                name, attr = fn.attr, True
            else:
                continue
            texts = []
            for a in args:
                if isinstance(a, ast.Starred):
                    texts.append(SPREAD)
                    break
                texts.append(ast.unparse(a))
            kws = {k.arg: SPREAD if k.arg is None else ast.unparse(k.value)
                   for k in node.keywords}
            out.append((module, node.lineno, name, attr, texts, kws))
    return out


def _callables(tree, module):
    """(qualified name, def node, the name a call reads, whether only an
    attribute read of it counts, receiver slots) of each public function
    and method, as _public_defs, and of each public class's `__init__`,
    which a call reads by the class name."""
    for qualname, fn in _public_defs(tree, module):
        method = qualname.count(".") == 2
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        yield qualname, fn, fn.name, method, int(method and not static)
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and sub.name == "__init__":
                    yield f"{module}.{node.name}.__init__", sub, node.name, False, 1


def _passed(slot, name, texts, kws):
    """The text that one call passes for the parameter `name` (positional
    slot `slot`, None if keyword-only): None if the call omits it, SPREAD
    if a spread argument may pass it."""
    if slot is not None and slot < len(texts):
        return texts[slot]
    if slot is not None and texts and texts[-1] is SPREAD:
        return SPREAD
    return kws.get(name, kws.get(None))


def _default_uses(trees, skip=()):
    """(`f.p`, the default's text, the texts that the calls of f pass for
    p) for each defaulted parameter p of a public function, method or
    constructor f (of the modules name -> ast tree, f not in skip), over
    the calls outside f's own body; a text is None where a call omits p.
    A call is matched by name as in _without_a_caller, a constructor's by
    its class name read either way; the first parameter of a method or
    constructor is its receiver unless it is a staticmethod."""
    calls = _calls(trees)
    for module, tree in trees.items():
        for qualname, fn, callee, attr_only, receiver in _callables(tree, module):
            if qualname in skip:
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            defaulted = [(i - receiver, p.arg, d)
                         for i, (p, d) in enumerate(zip(positional[first:], a.defaults), first)]
            defaulted += [(None, p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            mine = [(texts, kws) for m, line, name, attr, texts, kws in calls
                    if name == callee and (attr or not attr_only)
                    and not (m == module and fn.lineno <= line <= fn.end_lineno)]
            for slot, p, d in defaulted:
                yield (f"{qualname}.{p}", ast.unparse(d),
                       [_passed(slot, p, texts, kws) for texts, kws in mine])


def _never_overridden(trees, skip=()):
    """Defaults (as _default_uses) that no call passes with a text other
    than the default's own: each call omits the parameter or passes the
    default's text, so the parameter has one value in use."""
    return sorted(name for name, default, passed in _default_uses(trees, skip)
                  if all(t is None or t == default for t in passed))


def _never_relied_on(trees, skip=()):
    """Defaults (as _default_uses) that every call passes, each with a text
    other than the default's own, so the default is never used.  A spread
    argument may pass the parameter, and it does not rely on the default."""
    return sorted(name for name, default, passed in _default_uses(trees, skip)
                  if not any(t is None or t == default for t in passed))


def test_every_default_of_a_public_function_is_passed_by_a_caller_in_src():
    # passed with another value than the default's: a setting with one
    # value in use is a constant
    assert _never_overridden(_src_trees(), skip=NO_CALLER_IN_SRC) == sorted(NO_SETTER_IN_SRC)


def test_every_default_of_a_public_function_is_relied_on_by_a_caller_in_src():
    # a default that every caller overrides is a required parameter
    assert _never_relied_on(_src_trees(), skip=NO_CALLER_IN_SRC) == []


def test_a_default_counts_as_passed_by_keyword_partial_or_position():
    tree = ast.parse("import functools\n"
                     "def f(a, pos=1, kw=2, part=3, never=4):\n"
                     "    return f(a, never=never)\n"
                     "class P:\n"
                     "    def m(self, pos=1, never=2): pass\n"
                     "    @staticmethod\n"
                     "    def s(pos=1, never=2): pass\n"
                     "f(0, 5)\n"
                     "f(0, kw=6)\n"
                     "g = functools.partial(f, part=7)\n"
                     "m(1, 2)\n"
                     "P().m(8)\n"
                     "P.s(9)\n")
    # f's own recursive call does not pass `never`; a bare m(1, 2) is not a
    # call of the method; the receiver takes m's first slot, not s's
    assert _never_overridden({"m": tree}) == ["m.P.m.never", "m.P.s.never", "m.f.never"]
    # a spread *args or **kwargs may pass any default
    spread = ast.parse("def h(a=1, b=2): pass\n"
                       "def k(a=1, *, b=2): pass\n"
                       "h(*xs)\n"
                       "k(**kw)\n")
    assert _never_overridden({"m": spread}) == []


def test_a_default_passed_with_its_own_text_is_not_overridden():
    tree = ast.parse("def f(ring=RAT, seed=0, n=3, *, grid=400): pass\n"
                     "f(RAT, seed=0, grid=400)\n"
                     "f(ring=FLT, n=3)\n"
                     "f(n=4)\n")
    # seed and grid are passed only as their defaults' text, or omitted
    assert _never_overridden({"m": tree}) == ["m.f.grid", "m.f.seed"]


def test_a_default_is_relied_on_by_omitting_it_or_passing_its_text():
    tree = ast.parse("def f(a, omit=1, same=2, never=3, *, kw=4, kwnever=5): pass\n"
                     "def g(x=1):\n"
                     "    return g()\n"
                     "class C:\n"
                     "    def __init__(self, knob=1): pass\n"
                     "def h(a=1, *, b=2): pass\n"
                     "f(0, 7, 2, 8, kwnever=9)\n"
                     "f(0, same=3, never=6, kwnever=5.0)\n"
                     "g(2)\n"
                     "C(2)\n"
                     "h(*xs)\n"
                     "h(**kw)\n")
    # 5.0 is not the text 5; g's own call does not count; a spread passes
    # a, and *xs cannot pass the keyword-only b, which h(*xs) omits
    assert _never_relied_on({"m": tree}) == ["m.C.__init__.knob", "m.f.kwnever",
                                              "m.f.never", "m.g.x", "m.h.a"]


def test_a_constructor_default_counts_as_passed_by_a_call_of_its_class():
    tree = ast.parse("class C:\n"
                     "    def __init__(self, a, knob=1, kw=2): pass\n"
                     "class D:\n"
                     "    def __init__(self, pos=1): pass\n"
                     "class _Hidden:\n"
                     "    def __init__(self, knob=1): pass\n"
                     "C(0, kw=3)\n"
                     "mod.D(4)\n")
    # the receiver takes no slot of a call, and a private class is not read
    assert _never_overridden({"m": tree}) == ["m.C.__init__.knob"]
