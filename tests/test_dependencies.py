import ast
import re
import sys
from pathlib import Path

import phonesim

PACKAGE = Path(phonesim.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def third_party_imports() -> set[str]:
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"phonesim"}


def test_the_program_imports_only_yaml_outside_the_standard_library():
    """`yaml` is the `pyyaml` entry of pyproject.toml; the chat client runs on
    `urllib.request`, so no HTTP library is a dependency."""
    assert third_party_imports() == {"yaml"}


def test_pyproject_declares_only_pyyaml():
    text = PYPROJECT.read_text("utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, flags=re.M | re.S).group(1)
    assert re.findall(r'"([^"]+)"', block) == ["pyyaml>=6.0"]
