"""The README's Python snippets must actually run (docs rot otherwise)."""

import re
from pathlib import Path

import pytest

from repro.tensor import abstract, apply
from repro.tensor import functions as F

README = Path(__file__).resolve().parent.parent / "README.md"
EXTENDING = README.parent / "docs" / "extending.md"


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


def test_extending_op_example_executes():
    """docs/extending.md §1: the Swish op and its verify block run as
    written, and the op runs forward and backward on abstract shards at
    world 2."""
    text = EXTENDING.read_text()
    section = text[text.index("## 1. "):text.index("## 2. ")]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 2, "extending.md §1 has the op and its verify block"
    namespace: dict = {}
    for index, block in enumerate(blocks):
        exec(compile(block, f"extending.md:1.block{index}", "exec"), namespace)
    x = abstract((4, 8), world=2, requires_grad=True)
    F.sum_all(apply(namespace["Swish"](), x)).backward()
    assert [g.shape for g in x.grad] == [(4, 8)] * 2


def test_readme_mentions_current_test_count_loosely():
    """Keep the README's headline numbers from drifting absurdly: it must
    quote *some* pytest invocation and the five key artifacts."""
    text = README.read_text()
    for needle in ("pytest tests/", "pytest benchmarks/test_disabled_overhead.py",
                   "DESIGN.md", "EXPERIMENTS.md", "python -m repro"):
        assert needle in text
