"""README against what it describes: its certify table against the
declaration ode._COMPARISONS (the same kinds in the same order, and per
kind the same required parameters, domain conditions and hypotheses, by
name and in order, with every optional parameter given a default), and
the --flags it names against the CLI's parser."""

import argparse
import re
from pathlib import Path

import pytest

from curvlab import ode
from curvlab.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
HEADER = ("| kind | required | defaults | domain (else `DomainError`) "
          "| hypothesis (else inconclusive) |")


def certify_table(text):
    """{kind: (required, defaults, domain, hypotheses)} from the table that
    follows HEADER, each column a list of its comma-separated items, with
    backticks and notes in parentheses dropped."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == HEADER)
    rows = {}
    for line in lines[start + 2:]:
        line = line.strip()
        if not line.startswith("|"):
            break
        kind, *columns = [cell.strip() for cell in line.strip("|").split("|")]
        rows[kind.strip("`")] = tuple(
            [re.sub(r"\s*\(.*?\)", "", item).replace("`", "").strip()
             for item in cell.split(",")] if cell else []
            for cell in columns)
    return rows


def default_names(items):
    """The parameter each default names: the first word of `name = value`
    or of `name sized from ...`."""
    return [item.split()[0] for item in items]


def test_table_reader(tmp_path):
    text = ("intro\n\n  " + HEADER + "\n  |---|---|---|---|---|\n"
            "  | `k` | `a`, `f` (a warp) | `n = 3`, `T` sized from `a` | "
            "`a > 0` | `n >= 3`, positive constants |\n"
            "  | `j` | | `t0 = 3` | | |\n\nafter\n")
    assert certify_table(text) == {
        "k": (["a", "f"], ["n = 3", "T sized from a"], ["a > 0"],
              ["n >= 3", "positive constants"]),
        "j": ([], ["t0 = 3"], [], [])}
    assert default_names(["n = 3", "T sized from a"]) == ["n", "T"]


ROWS = certify_table(README.read_text())


def test_the_table_lists_every_kind_in_order():
    assert list(ROWS) == list(ode.CERTIFICATE_KINDS)


@pytest.mark.parametrize("kind", ode.CERTIFICATE_KINDS)
def test_row_matches_the_declaration(kind):
    required, defaults, domain, hypotheses = ROWS[kind]
    declared = ode._COMPARISONS[kind]
    assert required == list(declared.required)
    assert default_names(defaults) == list(declared.defaults)
    assert domain == list(declared.domain)
    assert hypotheses == list(declared.hypotheses)
    for item in defaults:    # a default stated as a number is the declared one
        name, _, value = item.partition(" = ")
        if re.fullmatch(r"-?[0-9.e+-]+", value):
            assert float(value) == declared.defaults[name], item


# flags README names that are not curvlab's, each with why it is there
NOT_PARSER_FLAGS = {
    "--no-build-isolation": "pip's, in the install line",
    "--base-vol": "named as a flag that does not exist",
    "--conf": "named as an abbreviation that is refused",
}


def parser_flags(parser):
    """Every --flag of parser and its subcommands, argparse's --help
    included."""
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= parser_flags(sub)
    return flags


def readme_flags(text):
    return set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text))


def test_flag_reader():
    assert readme_flags("`--n` and `--base-R`, e.g. `a --x0=-inf`, x--y, "
                        "`--kappa-sq 6`") == {"--n", "--base-R", "--x0",
                                              "--kappa-sq"}


def test_readme_names_every_flag_and_no_other():
    named = readme_flags(README.read_text())
    flags = parser_flags(build_parser())
    assert sorted(flags - named) == [], "parser flags README does not name"
    assert sorted(named - flags - set(NOT_PARSER_FLAGS)) == [], \
        "README flags the parser lacks"
    assert set(NOT_PARSER_FLAGS) <= named - flags
