"""Guard against stale ``python -m repro...`` commands in the docs.

Every command quoted in the user-facing documents, the CI workflow and
the ``src/`` docstrings must name a module that runs (a package with a
``__main__.py`` or a module with a ``__main__`` guard), and a
``python -m repro.telemetry`` command followed by a word must name one
of its four subcommands (a bare mention of the entry point is fine).
CHANGES.md is history and is not scanned.
"""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TELEMETRY_SUBCOMMANDS = {"report", "fleet", "tail", "regress"}

#: ``python -m <module>`` plus the first word after it, across line
#: breaks and shell continuations
COMMAND = re.compile(
    r"python3?\s+-m\s+(repro(?:\.\w+)*)(?:[\s\\]+([A-Za-z][\w-]*))?"
)


def _documents():
    paths = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
             ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"]
    paths += sorted(
        os.path.relpath(p, ROOT) for p in glob.glob(os.path.join(ROOT, "docs", "*.md"))
    )
    for rel in paths:
        path = os.path.join(ROOT, rel)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                yield rel, fh.read()


def _docstrings():
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        nodes = [tree] + [
            n for n in ast.walk(tree)
            if isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        text = "\n".join(filter(None, (ast.get_docstring(n) for n in nodes)))
        yield os.path.relpath(path, ROOT), text


def _runnable(module):
    path = os.path.join(SRC, *module.split("."))
    if os.path.isfile(os.path.join(path, "__main__.py")):
        return True
    if not os.path.isfile(path + ".py"):
        return False
    with open(path + ".py", encoding="utf-8") as fh:
        return re.search(r"^if __name__ == .__main__.:", fh.read(), re.M) is not None


def _commands():
    for where, text in list(_documents()) + list(_docstrings()):
        for match in COMMAND.finditer(text):
            yield where, match.group(1), match.group(2)


def test_scan_finds_commands():
    modules = {module for _, module, _ in _commands()}
    assert {"repro.telemetry", "repro.analysis.report"} <= modules


def test_quoted_commands_run():
    stale = []
    for where, module, word in _commands():
        if not _runnable(module):
            stale.append(f"{where}: python -m {module} does not run")
        elif (module == "repro.telemetry" and word is not None
              and word not in TELEMETRY_SUBCOMMANDS):
            stale.append(f"{where}: python -m repro.telemetry {word} is not "
                         f"a subcommand")
    assert stale == []
