"""README's console examples, run through the CLI and compared with their output.

An example is a `$ icl ...` line in a console block, followed by its
output lines.  Those lines must be stdout's lines in order; a `...` line
stands for any number of lines.
"""

import re
import shlex
from pathlib import Path

import pytest

from icl.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# These run the example1 hull, whose values criterion 1 and test_cli pin.
SKIPPED = {
    "icl composite-rate --instance example1",
    "icl sandwich --instance example1 --scheme example2",
}


def _examples() -> list[tuple[str, list[str]]]:
    examples: list[tuple[str, list[str]]] = []
    for block in re.findall(r"```console\n(.*?)```", README.read_text(), re.S):
        for line in block.splitlines():
            if line.startswith("$ "):
                examples.append((line[2:], []))
            elif line:
                examples[-1][1].append(line)
    return examples


def _matches(expected: list[str], actual: list[str]) -> bool:
    """Whether actual is expected with each `...` line standing for any lines."""
    if not expected:
        return not actual
    if expected[0] == "...":
        return any(_matches(expected[1:], actual[i:]) for i in range(len(actual) + 1))
    return bool(actual) and actual[0] == expected[0] and _matches(expected[1:], actual[1:])


EXAMPLES = _examples()


def test_skipped_examples_are_in_readme():
    assert SKIPPED <= {command for command, _ in EXAMPLES}


@pytest.mark.parametrize(
    "command, expected",
    [(c, e) for c, e in EXAMPLES if c not in SKIPPED],
    ids=[c for c, _ in EXAMPLES if c not in SKIPPED],
)
def test_readme_example(capsys, command, expected):
    argv = shlex.split(command)
    assert argv[0] == "icl"
    assert main(argv[1:]) == 0
    actual = capsys.readouterr().out.splitlines()
    assert _matches(expected, actual), "\n".join(["stdout was:", *actual])


@pytest.mark.parametrize(
    "expected, actual, ok",
    [
        (["a", "b"], ["a", "b"], True),
        (["a", "b"], ["a", "b", "c"], False),
        (["a", "...", "c"], ["a", "b", "b", "c"], True),
        (["a", "...", "c"], ["a", "c"], True),
        (["a", "...", "c"], ["a", "b"], False),
        (["a", "..."], ["a", "b"], True),
        (["b"], ["a", "b"], False),
    ],
)
def test_ellipsis_matching(expected, actual, ok):
    assert _matches(expected, actual) is ok
