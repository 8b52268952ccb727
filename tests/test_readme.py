"""README's Library block runs as written and shows what its comments say.

The block is taken from README.md, run statement by statement in a
temporary directory, and each commented expression is checked against its
comment.  A comment with no check here fails the test, so a new claim in
the block gets one.
"""

import ast
import os
import re

import numpy as np

from matdist.errors import DomainError

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

CLAIMS = {
    "2, 5": lambda value: value == (2, 5),
    "(3, 2), DomainError(...)": lambda value: (value[0] == (3, 2)
                                               and isinstance(value[1], DomainError)),
    "stays on the sphere": lambda value: 0.0 <= value < 1e-8,
    "True": lambda value: value is True,
}


def library_block():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_states_its_values(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    block = library_block()
    lines = block.splitlines()
    namespace, checked = {}, []
    for node in ast.parse(block).body:
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            assert comment in CLAIMS, f"no check for the README comment {comment!r}"
            assert CLAIMS[comment](value), f"{ast.unparse(node)} gave {value!r}, not {comment}"
            checked.append(comment)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert sorted(checked) == sorted(CLAIMS)
    assert isinstance(namespace["field"].grade, np.ndarray)
