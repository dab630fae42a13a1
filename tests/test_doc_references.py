"""Every markdown file a program file points readers at must exist.

Scans the comments and string literals (docstrings included) of every
Python file under ``src/``, ``benchmarks/`` and ``examples/`` for
``*.md`` paths and resolves each one against the repository root, so a
doc that is renamed or deleted cannot leave dangling "see X.md"
pointers behind.
"""

from __future__ import annotations

import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples")
MD_PATH = re.compile(r"(?<![\w./-])[\w./-]*\w\.md\b")
# Python 3.12+ tokenizes f-string text separately from plain strings.
TEXT_TOKENS = {
    tokenize.COMMENT,
    tokenize.STRING,
    getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING),
}


def _md_mentions(path: Path):
    """(line, mention) for each ``*.md`` path in comments and strings."""
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in TEXT_TOKENS:
                for match in MD_PATH.finditer(token.string):
                    offset = token.string.count("\n", 0, match.start())
                    yield token.start[0] + offset, match.group(0)


def _all_mentions():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for line, mention in _md_mentions(path):
                yield path.relative_to(ROOT), line, mention


def test_scanner_sees_known_references():
    mentions = {mention for _, _, mention in _all_mentions()}
    assert "docs/runtime.md" in mentions


def test_markdown_references_exist():
    missing = [
        f"{path}:{line}: {mention}"
        for path, line, mention in _all_mentions()
        if not (ROOT / mention).is_file()
    ]
    assert not missing, "dangling *.md references:\n" + "\n".join(missing)


def test_scanner_reads_comments_and_docstrings_only(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module doc: see docs/one.md."""\n'
        "# comment naming\n"
        "# GONE.md on its second line\n"
        "value = notes.md  # and docs/two.md\n"
    )
    assert list(_md_mentions(source)) == [
        (1, "docs/one.md"),
        (3, "GONE.md"),
        (4, "docs/two.md"),
    ]
