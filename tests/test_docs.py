"""The code that README.md, DESIGN.md and EXPERIMENTS.md name exists.

Every backticked repository path (``repro/…``, ``src/repro/…``,
``tests/…``, ``jobs/…``, ``perfbench/…`` ending in ``.py`` or ``.c``) must
be a file, and every backticked dotted ``repro.…`` name must resolve by
import plus ``getattr``. ROADMAP.md and CHANGES.md are history and may
name code that is gone.
"""
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

_PATH = re.compile(r"(?<![\w/.])(?:src/)?(?:repro|tests|jobs|perfbench)/[\w/.-]*?\.(?:py|c)\b")
_NAME = re.compile(r"(?<![\w/.])repro(?:\.[A-Za-z_]\w*)+")


def _references(pattern: re.Pattern) -> dict[str, str]:
    """Each match of ``pattern`` inside a backticked span -> the doc naming it."""
    refs = {}
    for doc in DOCS:
        for span in re.findall(r"`([^`\n]+)`", (ROOT / doc).read_text()):
            for ref in pattern.findall(span):
                refs.setdefault(ref, doc)
    return refs


def _resolves(dotted: str) -> bool:
    """Whether the longest importable module prefix has the remaining attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_backticked_paths_exist():
    refs = _references(_PATH)
    # The pattern sees paths the docs are known to name, so it is not vacuous.
    assert {"repro/diffusion/_kernel.c", "jobs/table1.py"} <= refs.keys()
    missing = [
        f"{doc}: {path}"
        for path, doc in refs.items()
        if not (ROOT / ("src/" + path if path.startswith("repro/") else path)).is_file()
    ]
    assert not missing, missing


def test_backticked_names_resolve():
    refs = _references(_NAME)
    assert "repro.oracle.assert_equivalent" in refs
    missing = [f"{doc}: {name}" for name, doc in refs.items() if not _resolves(name)]
    assert not missing, missing
