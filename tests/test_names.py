"""Every module-level name of the package is used besides where it is defined."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "afslab"


def defined_names(path):
    """(name, line) of each function, class and assigned name at module level."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def test_every_module_level_name_is_used():
    sources = [
        *PACKAGE.glob("*.py"),
        *(ROOT / "tests").rglob("*.py"),
        *(ROOT / "perfbench").rglob("*.py"),
        *(ROOT / "perfbench").rglob("*.md"),
        ROOT / "README.md",
    ]
    texts = {path: path.read_text() for path in sources}
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        lines = texts[module].splitlines()
        others = [text for path, text in texts.items() if path != module]
        for name, line in defined_names(module):
            # the module without the defining line, then every other file
            rest = "\n".join(lines[: line - 1] + lines[line:])
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for text in (rest, *others)):
                unused.append(f"{module.stem}.{name}")
    assert unused == []
