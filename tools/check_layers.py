"""Check that the package groups of ``src/repro`` form layers.

Every ``import`` / ``from ... import`` statement under ``src/repro`` is
read with :mod:`ast`, wherever it sits: at module level, inside a
function, under ``if TYPE_CHECKING:``.  Each side is reduced to its
*package group*: the first package under ``repro`` (``sources``,
``server``, ...), or the second under ``repro.core`` (``core.store``;
``core`` alone is the facade, ``core/__init__.py``), or ``repro`` for the
package root.  A group may import groups in its own layer or in layers
below it (``LAYERS``, bottom to top, as docs/architecture.md "Layers"
states it); an import of a higher layer fails, as does a group that no
layer declares and any cycle among the groups.

Run from the repository root: ``python tools/check_layers.py``.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path("src")
PACKAGE = "repro"

#: Bottom to top; the paper's Figure 1 read downwards.
LAYERS = [
    ("errors", "_version", "clock", "lexing", "like", "ids", "obs"),
    ("xmlkit", "htmlkit", "webl", "rdf"),
    ("ontology",),
    ("sources",),
    ("baselines",),
    ("core.resilience",),
    ("core.mapping",),
    ("core.extractor",),
    ("core.instances",),
    ("core.store",),
    ("core.query",),
    ("core.cluster",),
    ("core.ingest",),
    ("core.middleware",),
    ("core",),
    ("server",),
    ("config",),
    ("workloads", "bench", "cli", "__main__"),
    (PACKAGE,),
]
LAYER_OF = {group: rank for rank, groups in enumerate(LAYERS)
            for group in groups}


def group_of(module: str) -> str:
    parts = module.split(".")[1:]
    if not parts:
        return PACKAGE
    if parts[0] == "core" and len(parts) > 1:
        return f"core.{parts[1]}"
    return parts[0]


def modules(root: pathlib.Path) -> dict[str, pathlib.Path]:
    """Dotted module name -> file, for every module of the package."""
    found = {}
    for path in sorted((root / PACKAGE).rglob("*.py")):
        parts = list(path.relative_to(root).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


def imported(module: str, path: pathlib.Path,
             known: dict[str, pathlib.Path]):
    """(line, imported module) for every import of the package's own
    modules in ``path``.  ``from A import b`` names the module ``A.b``
    when there is one, else ``A``."""
    package = module.split(".")
    if path.name != "__init__.py":
        package.pop()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                   str(path))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level \
                else []
            source = ".".join(base + ([node.module] if node.module else []))
            targets = [f"{source}.{alias.name}"
                       if f"{source}.{alias.name}" in known else source
                       for alias in node.names]
        else:
            continue
        for target in targets:
            if target == PACKAGE or target.startswith(PACKAGE + "."):
                yield node.lineno, target


def cycles(edges: set[tuple[str, str]]) -> list[list[str]]:
    """The strongly connected components of more than one group."""
    graph: dict[str, set[str]] = {}
    for source, dest in edges:
        graph.setdefault(source, set()).add(dest)
    reach: dict[str, set[str]] = {}
    for start in graph:
        seen, todo = set(), [start]
        while todo:
            for dest in graph.get(todo.pop(), ()):
                if dest not in seen:
                    seen.add(dest)
                    todo.append(dest)
        reach[start] = seen
    components = {frozenset(other for other in reach[group]
                            if group in reach.get(other, ()))
                  for group in reach if group in reach[group]}
    return sorted(sorted(component) for component in components)


def main() -> int:
    found = modules(SRC)
    groups = {group_of(module) for module in found}
    problems = [f"package group {group!r} is in no layer"
                for group in sorted(groups - LAYER_OF.keys())]
    edges: set[tuple[str, str]] = set()
    for module, path in found.items():
        source = group_of(module)
        for line, target in imported(module, path, found):
            dest = group_of(target)
            if dest == source:
                continue
            edges.add((source, dest))
            if LAYER_OF.get(dest, -1) > LAYER_OF.get(source, len(LAYERS)):
                problems.append(f"{path}:{line}: {source} imports {dest}, "
                                f"a higher layer")
    loops = cycles(edges)
    problems += [f"import cycle among {', '.join(loop)}" for loop in loops]
    for problem in problems:
        print(problem)
    print(f"{len(groups)} package groups in {len(LAYERS)} layers, "
          f"{len(edges)} imports between groups, {len(loops)} cycles, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
