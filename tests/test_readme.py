"""The Python examples of README.md run and print what their comments say.

Every ``print(...)`` line of a ```` ```python ```` block ends with a comment
holding the line it prints.  Each block runs on its own, in a fresh
namespace, so an example that uses a removed name fails here.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

import tsplinedim

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
RESULT = re.compile(r"^print\(.*\)\s+# (.*)$")


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_a_readme_example_prints_its_result_comments(index):
    block = BLOCKS[index]
    expected = [match[1] for match in map(RESULT.match, block.splitlines()) if match]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, f"README.md python block {index + 1}", "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


def test_the_readme_lists_exactly_the_exported_certificates():
    table = re.search(r"^\| certificate \|.*\n((?:\|.*\n)+)", README.read_text(encoding="utf-8"), re.M)
    listed = re.findall(r"^\| `([^`]+)` \|", table[1], re.M)
    exported = {getattr(tsplinedim, name) for name in dir(tsplinedim) if name.startswith("CERT_")}
    assert sorted(listed) == sorted(exported)
