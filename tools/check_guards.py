"""Prove that every guard of the CI workflow can fail.

A guard is a CI step whose ``run`` script starts with ``!`` (``! grep
...``), which passes while the pattern is absent from ``src/``, or runs
a checker under ``tools/`` (``python tools/check_layers.py``), which
passes while ``src/`` keeps its rule.  A guard that can never fail
guards nothing — ``bash -e`` does not stop on a failed ``! grep`` that
is not the last command of its script, so two of them on separate lines
check only the second.  This script copies ``src/`` and ``tools/`` to a
scratch directory, runs each guard there (it must pass), then plants
each of that guard's violations in turn and runs the guard again (it
must fail).  A violation is a line appended to a file, which is created
when it does not exist.  Every guard step must have at least one
violation below, and every violation a guard step.

Run from the repository root: ``python tools/check_guards.py``.
"""

import pathlib
import shutil
import subprocess
import sys
import tempfile

WORKFLOW = pathlib.Path(".github/workflows/ci.yml")

#: step name -> (file under the copy, line appended to it), one per grep
#: or per rule of a checker
VIOLATIONS = {
    "No self-deprecations in src/": [
        ("src/repro/__init__.py", "# DeprecationWarning"),
    ],
    "One writer for the semantic store": [
        ("src/repro/core/query/executor.py", '# store.slices["s"] = x'),
        ("src/repro/core/store/delta.py",
         "# self.store.mark_slice_stale(key, source_id)"),
        ("src/repro/core/store/refresh.py", "# keep_last_known_good"),
        ("src/repro/core/store/view.py", "# add_triple"),
    ],
    "Stored entities are shared, not copied": [
        ("src/repro/core/query/executor.py", "# entity.clone()"),
    ],
    "One entity codec": [
        ("src/repro/server/codec.py", '# "record_index"'),
    ],
    "The wire carries rows": [
        ("src/repro/core/store/snapshot.py", "# entity_from_json(data)"),
    ],
    "One scanner, one token cursor": [
        ("src/repro/xmlkit/xpath/lexer.py", "# match.lastgroup"),
    ],
    "XPath steps walk node.children, not element_children()": [
        ("src/repro/xmlkit/xpath/engine.py", "# node.element_children()"),
    ],
    "WebL runs compiled closures, and a run owns its state": [
        ("src/repro/webl/interpreter.py", "# def _eval(node):"),
    ],
    "Instances are validated per shape, not per individual": [
        ("src/repro/core/instances/generator.py",
         "# validate_individual(x)"),
        ("src/repro/core/query/executor.py", "# def _check(x):"),
    ],
    "One in-process fan-out": [
        ("src/repro/core/query/executor.py", "# aextract"),
        ("src/repro/core/extractor/manager.py", "# RunRule"),
    ],
    "One client": [
        ("src/repro/server/client.py", "# AsyncS2SClient"),
    ],
    "One cache": [
        ("src/repro/core/extractor/manager.py", "# FragmentCache"),
    ],
    "Asyncio leaves src/": [
        ("src/repro/server/server.py", "import asyncio"),
    ],
    "Ingest has two stages": [
        ("src/repro/core/ingest/jobs.py", 'CLEAN = "CLEAN"'),
    ],
    "Packages form layers": [
        ("src/repro/sources/web/pagegen.py",
         "from ...workloads.catalog import ProductRecord"),
        ("src/repro/sources/base.py",
         "def _planted():\n    from ..server import protocol"),
    ],
}


def is_guard(script: str) -> bool:
    script = script.lstrip()
    return script.startswith("!") or (
        script.startswith("python tools/check_")
        and not script.startswith("python tools/check_guards.py"))


def guard_steps(workflow: str) -> dict[str, str]:
    """name -> run script of every guard step (see :func:`is_guard`).
    Reads the two ``run:`` forms the workflow uses: a double-quoted
    scalar on the key's line, and a ``|`` block."""
    steps: dict[str, str] = {}
    lines = workflow.splitlines()
    name = None
    for number, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("- name:"):
            name = stripped[len("- name:"):].strip()
        if not stripped.startswith("run:") or name is None:
            continue
        value = stripped[len("run:"):].strip()
        if value == "|":
            indent = len(line) - len(line.lstrip())
            body = []
            for following in lines[number + 1:]:
                if following.strip() and (len(following)
                                          - len(following.lstrip())) <= indent:
                    break
                body.append(following)
            margin = min(len(b) - len(b.lstrip()) for b in body if b.strip())
            script = "\n".join(b[margin:] for b in body).strip() + "\n"
        else:
            script = value[1:-1] if value.startswith('"') else value
        if is_guard(script):
            steps[name] = script
        name = None
    return steps


def guard_passes(script: str, tree: pathlib.Path) -> bool:
    """Run ``script`` as the workflow's default shell does (``bash -e``)
    in ``tree``."""
    return subprocess.run(["bash", "-e", "-c", script], cwd=tree,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    steps = guard_steps(WORKFLOW.read_text(encoding="utf-8"))
    problems = [f"guard step without a planted violation: {name!r}"
                for name in steps if name not in VIOLATIONS]
    problems += [f"violation for a step that is not a guard: {name!r}"
                 for name in VIOLATIONS if name not in steps]
    with tempfile.TemporaryDirectory() as scratch:
        tree = pathlib.Path(scratch)
        for directory in ("src", "tools"):
            shutil.copytree(directory, tree / directory,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name, script in steps.items():
            if not guard_passes(script, tree):
                problems.append(f"{name!r} fails on the clean tree")
                continue
            for path, line in VIOLATIONS.get(name, ()):
                target = tree / path
                original = (target.read_text(encoding="utf-8")
                            if target.exists() else None)
                target.write_text((original or "") + line + "\n",
                                  encoding="utf-8")
                if guard_passes(script, tree):
                    problems.append(f"{name!r} passes with {line!r} "
                                    f"planted in {path}")
                if original is None:
                    target.unlink()
                else:
                    target.write_text(original, encoding="utf-8")
    for problem in problems:
        print(problem)
    print(f"{len(steps)} guards, "
          f"{sum(map(len, VIOLATIONS.values()))} planted violations, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
