"""The README's "Library sketch" runs as written, so the documented API cannot drift."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md (Library sketch)", "exec"), namespace)
    claims = [line for line in code.splitlines() if line.partition("#")[2].strip().startswith("True")]
    assert claims
    for line in claims:  # a line commented "# True" evaluates to True
        assert eval(line.partition("#")[0], namespace), line
