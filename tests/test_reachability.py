"""Every public name of the package is reached by a caller.

A public module-level function or class of ``src/spheredim``, or a public
method or property of a public class, counts as reached when its name
appears somewhere other than its own definition:

- as an identifier (a name, an attribute or an imported name) or as an
  exact string constant in another part of the package (``cli.DIMENSIONS``
  reaches ``ClassAnalysis`` fields through ``getattr``);
- as an identifier or an exact string constant in ``bench/*.py``, whose
  tracer looks names up by string;
- in ``spheredim.__all__``.

``cmd_*`` functions are reached, since ``cli.main`` looks them up by name.
A name that only tests reach belongs in ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spheredim"
SOURCES = sorted(PACKAGE.glob("*.py"))
BENCH_SOURCES = sorted((ROOT / "bench").glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions(tree: ast.Module):
    """(qualified name, name, node) for each public module-level function or
    class, and each public method or property of a public class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, item


def mentions(tree: ast.AST):
    """(name, line) for each identifier and each string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def exported(package: Path) -> set[str]:
    """The names in the package's ``__all__``."""
    for node in parse(package / "__init__.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unreached(package: Path, bench_sources) -> list[str]:
    """The public names of ``package`` that nothing outside their own
    definition reaches, as ``module.qualname``."""
    trees = {path.name: parse(path) for path in sorted(package.glob("*.py"))}
    # name -> [(file, line)] of each mention in the package
    package_mentions: dict[str, list[tuple[str, int]]] = {}
    for name, tree in trees.items():
        for word, line in mentions(tree):
            package_mentions.setdefault(word, []).append((name, line))
    outside = exported(package)
    for path in bench_sources:
        outside.update(word for word, _line in mentions(parse(path)))

    missing = []
    for name, tree in trees.items():
        for qualname, word, node in public_definitions(tree):
            if word.startswith("cmd_") or word in outside:
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not any(
                where != name or not first <= line <= node.end_lineno
                for where, line in package_mentions.get(word, ())
            ):
                missing.append(f"{name[:-3]}.{qualname}")
    return missing


def test_every_module_is_read():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "concepts.py", "disamb.py"}
    assert {p.name for p in BENCH_SOURCES} >= {"ops.py", "tracing.py"}


def test_every_public_name_is_reached_outside_the_tests():
    missing = unreached(PACKAGE, BENCH_SOURCES)
    assert not missing, "no caller outside the tests reaches " + ", ".join(missing)


def test_a_name_used_only_in_its_own_definition_is_unreached(tmp_path):
    # a recursive call and a use inside the class's own methods do not count
    (tmp_path / "__init__.py").write_text("__all__ = []\n")
    (tmp_path / "mod.py").write_text(
        "def lonely(n):\n"
        "    return lonely(n - 1) if n else Box()\n"
        "\n"
        "class Box:\n"
        "    def make(self):\n"
        "        return Box()\n"
        "\n"
        "def caller():\n"
        "    return Box().make()\n"
        "\n"
        "def cmd_run():\n"
        "    return caller\n"
    )
    assert unreached(tmp_path, []) == ["mod.lonely"]
