"""Print the size tallies of ROADMAP aim 2 for the source tree.

- lines: the lines of every ``src/lidarscene/*.py`` file (``cat | wc -l``);
- code lines: those lines less docstrings (string statements), comments
  and blank lines: the lines that hold a token of anything else;
- defaulted settings: every parameter default (positional and keyword-only)
  of every function and lambda, plus every field default of every
  ``@dataclass`` class, counted from the syntax tree;
- config keys: ``len(config.SCHEMA)``;
- test-only names: the public top-level functions and classes, and the
  public methods, of ``src/lidarscene/*.py`` that no file of the package or
  of the ``perfbench/`` harness (its tests left out) names as a name, an
  attribute, an import or a whole string constant (``perfbench`` wraps some
  functions by string).

``unused_defaults()`` lists, apart from these tallies, the parameter defaults
of the package's functions, methods and constructors that every call site
passes anyway: a default that nothing omits is a setting that nothing uses.
``unused_imports()`` lists the module-level imports of the package's modules
that their own module never names.

Run from anywhere: ``python3 tools/tally.py``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "lidarscene"
PERFBENCH = SRC.parent / "perfbench"
TESTS = SRC.parent / "tests"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def defaulted_settings(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def code_lines(text: str) -> int:
    """Lines holding a token other than a comment or a string statement's
    strings (``tokenize`` and ``ast`` agree on line numbers)."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in skip or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _public_defs(tree: ast.Module):
    """(name, dotted name) of each public top-level function and class and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield item.name, f"{node.name}.{item.name}"


def _referenced(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def unreferenced_names(modules: dict, callers: list) -> list:
    """Dotted names (``module.name``) of the public definitions in
    ``modules`` (module name -> source text) that no text of ``callers``
    references."""
    used = set()
    for text in callers:
        used.update(_referenced(ast.parse(text)))
    return [f"{mod}.{dotted}" for mod, text in modules.items()
            for name, dotted in _public_defs(ast.parse(text)) if name not in used]


def names_only_tests_call() -> list:
    """``unreferenced_names`` of the package, with the package and the
    ``perfbench/*.py`` harness as callers."""
    modules = {f.stem: f.read_text(encoding="utf-8") for f in sorted(PACKAGE.glob("*.py"))}
    harness = [f.read_text(encoding="utf-8") for f in sorted(PERFBENCH.glob("*.py"))]
    return unreferenced_names(modules, [*modules.values(), *harness])


def _defaults(tree: ast.Module):
    """(dotted name, callee name, parameter, position in a call or None) of
    each parameter default of each top-level function and each method. A
    constructor's callee is its class; other dunder methods are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _parameter_defaults(node.name, node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                callee = node.name if item.name == "__init__" else item.name
                if not callee.startswith("__"):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                    yield from _parameter_defaults(f"{node.name}.{item.name}", callee, item, 0 if static else 1)


def _parameter_defaults(dotted, callee, fn, bound):
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i in range(first, len(positional)):
        yield dotted, callee, positional[i].arg, i - bound
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield dotted, callee, arg.arg, None


def _passes(call: ast.Call, position, param) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return False  # *args or **kwargs may leave the parameter out
    return (position is not None and len(call.args) > position) or any(k.arg == param for k in call.keywords)


def defaults_every_call_passes(modules: dict, callers: list) -> list:
    """``module.name(parameter)`` of each parameter default in ``modules``
    (module name -> source text) that every call in ``callers`` of a callee
    of that name passes, by position or keyword; a default whose callee no
    caller calls is left out."""
    calls = {}
    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                f = node.func
                calls.setdefault(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None), []).append(node)
    return [f"{mod}.{dotted}({param})" for mod, text in modules.items()
            for dotted, callee, param, position in _defaults(ast.parse(text))
            if calls.get(callee) and all(_passes(c, position, param) for c in calls[callee])]


def unused_defaults() -> list:
    """``defaults_every_call_passes`` of the package, with the package,
    ``perfbench/`` (its tests too) and ``tests/`` as callers."""
    modules = {f.stem: f.read_text(encoding="utf-8") for f in sorted(PACKAGE.glob("*.py"))}
    others = [*sorted(PERFBENCH.rglob("*.py")), *sorted(TESTS.rglob("*.py"))]
    return defaults_every_call_passes(modules, [*modules.values(), *(f.read_text(encoding="utf-8") for f in others)])


def imports_never_named(modules: dict) -> list:
    """``module:line: name`` of each name bound by a module-level import of
    ``modules`` (module name -> source text) that its module never names;
    ``from __future__`` imports bind no name and are left out."""
    found = []
    for mod, text in modules.items():
        tree = ast.parse(text)
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                found += [f"{mod}:{node.lineno}: {name}" for name in bound if name not in named]
    return found


def unused_imports() -> list:
    """``imports_never_named`` of the package's modules."""
    return imports_never_named({f.stem: f.read_text(encoding="utf-8") for f in sorted(PACKAGE.glob("*.py"))})


def main() -> None:
    texts = [f.read_text(encoding="utf-8") for f in sorted(PACKAGE.glob("*.py"))]
    lines = sum(t.count("\n") for t in texts)
    code = sum(code_lines(t) for t in texts)
    settings = sum(defaulted_settings(ast.parse(t)) for t in texts)
    test_only = names_only_tests_call()
    sys.path.insert(0, str(SRC))
    from lidarscene import config

    print(f"source lines: {lines:,}")
    print(f"code lines: {code:,}")
    print(f"defaulted settings: {settings}")
    print(f"config keys: {len(config.SCHEMA)}")
    print(f"test-only names: {len(test_only)}")


if __name__ == "__main__":
    main()
