"""The README's Python snippets must actually run (docs rot otherwise)."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def python_snippets():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks, "README has no python snippets?"
    return blocks


@pytest.mark.parametrize("index,snippet",
                         list(enumerate(python_snippets())),
                         ids=lambda v: v if isinstance(v, int) else "code")
def test_readme_snippet_executes(index, snippet):
    namespace: dict = {}
    exec(compile(snippet, f"README.md:block{index}", "exec"), namespace)


def test_readme_mentions_current_test_count_loosely():
    """Keep the README's headline numbers from drifting absurdly: it must
    quote *some* pytest invocation and the five key artifacts."""
    text = README.read_text()
    for needle in ("pytest tests/", "pytest benchmarks/test_disabled_overhead.py",
                   "DESIGN.md", "EXPERIMENTS.md", "python -m repro"):
        assert needle in text
