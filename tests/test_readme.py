"""README's Library, Python models and CLI blocks run as written and show what they say.

The Library block is taken from README.md, run statement by statement in a
temporary directory, and each commented expression is checked against its
comment.  A comment with no check here fails the test, so a new claim in
the block gets one.  The Python models block must build the model its
comment states.  Each ``matdist`` line of the CLI block runs in a
temporary directory, split as a POSIX shell splits it, and must exit with
the code its ``# exits N`` comment states, or 0.
"""

import ast
import contextlib
import io
import os
import re
import shlex

import numpy as np

from matdist import cli
from matdist.distribution import material_fibre
from matdist.errors import DomainError
from matdist.response import evaluate_at_samples

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

CLAIMS = {
    "2, 5": lambda value: value == (2, 5),
    "(3, 2), DomainError(...)": lambda value: (value[0] == (3, 2)
                                               and isinstance(value[1], DomainError)),
    "stays on the sphere": lambda value: 0.0 <= value < 1e-8,
    "True": lambda value: value is True,
}


def block(heading, fence):
    """The first ``fence`` block under the README heading that starts ``heading``."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index(f"\n{heading}"):]
    return re.search(f"```{fence}\n(.*?)```", section, re.S).group(1)


def library_block():
    return block("## Library", "python")


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


def test_python_models_block_builds_its_model():
    namespace = {}
    exec(compile(block("### Python models", "python"), "README", "exec"), namespace)
    body = namespace["body"]
    rng = np.random.default_rng(3)
    Xs, Fs = rng.uniform(-0.9, 0.9, (5, 3)), rng.standard_normal((5, 3, 3))
    want = [[np.linalg.norm(F @ X) ** 2] for X, F in zip(Xs, Fs)]  # W = |F X|^2
    np.testing.assert_allclose(evaluate_at_samples(body, Xs, Fs), want, rtol=1e-12)
    # uniform away from the origin; the symmetries are the A with A X = 0
    fibre = material_fibre(body, [0.3, 0.2, 0.1])
    assert (fibre.grade, fibre.sym_dim, fibre.validated) == (3, 6, True)


def shell_words(line):
    """``line`` split into words as a POSIX shell splits it, comment dropped."""
    lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    words = list(lexer)
    # an unquoted <, >, |, & or ; is an operator to the shell, not a word
    operators = [word for word in words if not word.strip("();<>|&")]
    assert not operators, f"the shell reads {operators} in {line!r} as operators"
    return words


def test_cli_block_runs_with_its_exit_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mymodel.mdl").write_text(block("## Model files", ""), encoding="utf-8")
    lines = block("## CLI", "").replace("\\\n", " ").splitlines()
    assert lines and all(line.startswith("matdist ") for line in lines)
    for line in lines:
        stated = re.search(r"#\s*exits (\d+)", line)
        words = shell_words(line)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(words[1:])
        assert code == (int(stated.group(1)) if stated else 0), line
    assert all((tmp_path / name).stat().st_size for name in ("map.json", "slice.svg", "trace.csv"))
