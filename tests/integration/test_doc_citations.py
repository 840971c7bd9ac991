"""Every ``*.md`` document named in ``src/`` exists at the repository
root, so a comment that sends the reader to a document never points
at nothing."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CITATION = re.compile(r"\b[A-Za-z_][\w-]*\.md\b")


def test_every_document_src_cites_exists():
    cited: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for name in CITATION.findall(path.read_text()):
            cited.setdefault(name, []).append(str(path.relative_to(ROOT)))
    assert "DESIGN.md" in cited  # the scan sees the citations
    missing = {name: files for name, files in cited.items() if not (ROOT / name).is_file()}
    assert not missing, f"src/ cites documents that do not exist: {missing}"
