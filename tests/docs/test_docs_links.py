"""The docs health-check, exposed to the tier-1 suite.

``tools/check_docs.py`` verifies that every module named in ``README.md`` and
``docs/*.md`` imports, that every ``path:line`` anchor points into an
existing file, that every relative markdown link resolves, and that the
engine-layer packages carry full public docstrings (which feeds the
generated ``docs/api.md``).  CI runs the tool standalone; this test runs
the same checks under pytest so a stale doc reference fails the ordinary
test run too.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_references_resolve():
    tool = _load_tool()
    failures = tool.collect_failures()
    assert not failures, "\n".join(f"{doc.name}: {problem}" for doc, problem in failures)


def test_docs_exist():
    tool = _load_tool()
    names = {path.name for path in tool.doc_files()}
    assert "README.md" in names
    assert "paper_map.md" in names
    assert "performance.md" in names
    assert "architecture.md" in names
    assert "api.md" in names


def test_engine_layers_fully_docstringed():
    tool = _load_tool()
    missing = tool.check_docstrings()
    assert not missing, "\n".join(missing)


def test_generated_api_reference_is_current():
    """``docs/api.md`` must match a fresh generation (line anchors included).

    Signature rendering can differ in detail between interpreter versions,
    so only the version the CI docs job generates with (3.11) enforces
    byte-for-byte freshness here; other versions rely on the docs job.
    """
    if sys.version_info[:2] != (3, 11):
        import pytest

        pytest.skip("docs/api.md is generated and checked under Python 3.11")
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", REPO_ROOT / "tools" / "gen_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    on_disk = (REPO_ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    assert module.generate() == on_disk, (
        "docs/api.md is stale; regenerate with: python tools/gen_api_docs.py"
    )


def test_line_anchor_must_land_on_a_definition(tmp_path):
    tool = _load_tool()
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        "LIMIT = 3\n"
        "\n"
        "@staticmethod\n"
        "def kernel(x):\n"
        "    y = x + 1\n"
        "    return y\n"
        "\n"
        "class Tree:\n"
        "    size: int\n",
        encoding="utf-8",
    )
    for line in ("1", "3", "4", "5", "8", "9"):
        assert tool.check_file_anchor("src/mod.py", line, root=tmp_path) == ""
    for line in ("2", "6"):
        problem = tool.check_file_anchor("src/mod.py", line, root=tmp_path)
        assert "does not land on a def" in problem
    assert "only 9 lines" in tool.check_file_anchor("src/mod.py", "12", root=tmp_path)
