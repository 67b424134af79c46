"""Documentation health: internal links resolve, doctests pass.

Two failure modes this guards against:

* a Markdown document linking to a file that was moved/renamed (the
  docs set cross-references README, DESIGN, EXPERIMENTS and docs/);
* the executable examples in the distribution docstrings drifting from
  the code they document (they double as the worked examples referenced
  by docs/LOAD_BALANCE.md).
"""
import doctest
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Every tracked Markdown document with intra-repo links worth checking.
DOCS = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/ARCHITECTURE.md",
    "docs/LOAD_BALANCE.md",
    "docs/OBSERVABILITY.md",
    "docs/SERVICE.md",
]

_LINK = re.compile(r"\[[^\]]*\]\(([^)]+)\)")


def _internal_targets(markdown: str):
    """Link targets pointing inside the repo (skip web URLs/anchors)."""
    for target in _LINK.findall(markdown):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0]


@pytest.mark.parametrize("doc", DOCS)
def test_internal_links_resolve(doc):
    path = REPO / doc
    assert path.exists(), f"documentation file {doc} is missing"
    for target in _internal_targets(path.read_text()):
        resolved = (path.parent / target).resolve()
        assert resolved.exists(), f"{doc} links to missing {target!r}"


@pytest.mark.parametrize("doc", DOCS)
def test_referenced_repo_paths_exist(doc):
    """Paths like ``src/repro/parallel/distribution.py`` quoted in the docs
    (the pointer tables) must exist — they are how readers navigate."""
    text = (REPO / doc).read_text()
    for quoted in re.findall(r"`((?:src|tests|benchmarks|docs|examples)/[\w./-]+)`", text):
        assert (REPO / quoted).exists(), f"{doc} references missing {quoted!r}"


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.parallel.distribution",
        "repro.simmachine.costmodel",
        "repro.simmachine.machine",
        "repro.obs.prometheus",
        "repro.serve.pool",
    ],
)
def test_doctests(module_name):
    module = __import__(module_name, fromlist=["_"])
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module_name} lost its doctests"
    assert result.failed == 0


_FENCED_PYTHON = re.compile(r"```python\n(.*?)```", re.S)


@pytest.mark.timeout(300)
def test_service_handbook_examples_run():
    """Execute every ``>>>`` example in docs/SERVICE.md, in order, with
    shared globals: the first block builds the in-process service the
    later blocks drive, and the last block stops it.  This keeps the
    operator's handbook honest the same way module doctests keep the
    distribution docstrings honest."""
    text = (REPO / "docs" / "SERVICE.md").read_text()
    blocks = [b for b in _FENCED_PYTHON.findall(text) if ">>>" in b]
    assert len(blocks) >= 3, "SERVICE.md lost its executable examples"

    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE
    )
    globs: dict = {}
    try:
        for i, block in enumerate(blocks):
            test = doctest.DocTest(
                parser.get_examples(block), globs,
                f"docs/SERVICE.md[{i}]", "docs/SERVICE.md", None, block,
            )
            runner.run(test, clear_globs=False)
            globs.update(test.globs)  # DocTest copies globs; carry state forward
    finally:
        service = globs.get("service")
        if service is not None:
            service.stop()
    assert runner.failures == 0, "docs/SERVICE.md examples drifted from the code"
    assert runner.tries > 0


def test_readme_indexes_every_docs_page():
    """The README docs index must link all four docs/ pages."""
    readme = (REPO / "README.md").read_text()
    for page in sorted(p.name for p in (REPO / "docs").glob("*.md")):
        assert f"docs/{page}" in readme, f"README does not link docs/{page}"
