"""README against what it describes: its certify table against the
declaration ode._COMPARISONS (the same kinds in the same order, and per
kind the same required parameters, domain conditions and hypotheses, by
name and in order, with every optional parameter given a default), its
echo sentences against each kind's declared echo, the --flags it names
against the CLI's parser, and the code names it cites, dotted, capitalised
or snake_case, against src/curvlab."""

import argparse
import ast
import builtins
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

from curvlab import ode
from curvlab.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = README.parent / "src" / "curvlab"
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


def echo_sentences(text):
    """{kind: names} from each "`kind` echoes `a`, `b` (a note) and `c`" in
    text, the backticked names in order, over line breaks."""
    return {kind: re.findall(r"`(\w+)`", names) for kind, names in re.findall(
        r"`(\w+)` echoes ((?:`\w+`(?: \([^)]*\))?(?:, and |, | and )?)+)",
        " ".join(text.split()))}


def test_echo_reader():
    text = ("`k` echoes `a` and\n  `b` only, and `j` echoes `c`, `d` (its\n"
            "default) and `e`. `m` echoes the caller's.")
    assert echo_sentences(text) == {"k": ["a", "b"], "j": ["c", "d", "e"]}


def test_echo_sentences_match_the_declaration():
    # every kind that declares what it echoes has its sentence, in order
    assert echo_sentences(README.read_text()) == {
        kind: list(cert.echo) for kind, cert in ode._COMPARISONS.items()
        if cert.echo is not None}


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


MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
# {class name: module} over src/curvlab
CLASSES = {node.name: path.stem for path in PACKAGE.glob("*.py")
           for node in ast.walk(ast.parse(path.read_text()))
           if isinstance(node, ast.ClassDef)}


def cited_names(text):
    """The names README cites in backticks outside code blocks: (dotted,
    capitalised).  Dotted are the a.b.c names in a span, and capitalised
    the spans that are one name, or one call, starting with a capital and
    holding a lowercase letter (so not `T` or `C1`), less Python's own
    (`False`)."""
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text,
                                           flags=re.S))
    dotted = {name for span in spans for name in re.findall(
        r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)}
    capitalised = {m.group(1) for m in (
        re.fullmatch(r"([A-Z]\w*)(?:\(.*\))?", span.strip(), flags=re.S)
        for span in spans) if m and re.search("[a-z]", m.group(1))}
    return dotted, capitalised - set(dir(builtins))


def test_citation_reader():
    text = ("`curvlab.ode` and `Field.coords`, `np.gradient(u, t)`, "
            "`tests/test_x.py`, `from curvlab.cli import main`\n"
            "```sh\ncurvlab `Fenced.name`\n```\n`SubSuperPair` "
            "`DomainError(f\"{m}\")`, `T`, `C1`, `False`, `a Verdict`")
    assert cited_names(text) == (
        {"curvlab.ode", "Field.coords", "np.gradient", "curvlab.cli"},
        {"SubSuperPair", "DomainError"})


def instance_attribute(cls, name):
    """A dataclass field, or self.<name> set in the body of the class or
    of a base in src/curvlab."""
    return (dataclasses.is_dataclass(cls)
            and name in {f.name for f in dataclasses.fields(cls)}
            or any(re.search(rf"\bself\.{name}\s*=", inspect.getsource(c))
                   for c in cls.__mro__ if c.__name__ in CLASSES))


def resolves(name):
    """Whether a dotted name headed by curvlab, a curvlab module (`ode`,
    `curvlab.ode`) or class (`BaseGrid`) names something that exists;
    None for any other head."""
    parts = name.split(".")
    if parts[0] == "curvlab" and parts[1] in MODULES:
        parts = parts[1:]
    head, *rest = parts
    if head == "curvlab":
        obj = importlib.import_module("curvlab")
    elif head in MODULES:
        obj = importlib.import_module(f"curvlab.{head}")
    elif head in CLASSES:
        obj = getattr(importlib.import_module(f"curvlab.{CLASSES[head]}"),
                      head)
    else:
        return None
    for i, attr in enumerate(rest):
        if not hasattr(obj, attr):
            # an attribute each instance sets may end the name
            return (inspect.isclass(obj) and i == len(rest) - 1
                    and instance_attribute(obj, attr))
        obj = getattr(obj, attr)
    return True


def test_resolver():
    assert resolves("curvlab.ode") and resolves("ode._COMPARISONS")
    assert resolves("Field.coords") and resolves("BaseGrid.laplacian_at")
    assert resolves("RayLengthReport.to_json")
    assert resolves("np.gradient") is None
    assert resolves("ode.no_such_name") is False
    assert resolves("curvlab.__version__") and resolves("Field.source")
    assert resolves("curvlab.nope") is False
    assert resolves("Field.volume") is False
    assert resolves("Field.coords.real") is False


def test_readme_cites_only_code_that_exists():
    dotted, capitalised = cited_names(README.read_text())
    assert sorted(n for n in dotted if resolves(n) is False) == [], \
        "README cites names that do not resolve"
    assert sorted(capitalised - set(CLASSES)) == [], \
        "README names classes that src/curvlab lacks"


# snake_case names README cites that src/curvlab does not hold, each with why
NOT_CODE_NAMES = {
    "max_step": "named as absent: rk45 caps no step",
}
FILE_PATH = re.compile(r"/|\.(py|json|md|toml)$")


def snake_names(text):
    """The snake_case identifiers in README's backticked spans outside code
    blocks, less the spans that are file paths."""
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text,
                                           flags=re.S))
    return {name for span in spans if not FILE_PATH.search(span)
            for name in re.findall(r"\b_?[a-z][a-z0-9]*(?:_[a-z0-9]+)+\b",
                                   span)}


def code_names():
    """Every name src/curvlab holds: each def, class, parameter (its own,
    or a callee's it passes by keyword) and attribute, and each word of its
    strings (its docstrings name the math, such as f_tt)."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.arg, ast.keyword)):
                names.add(node.arg)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(re.findall(r"\w+", node.value))
    return names


def test_snake_reader():
    text = ("`ode.solve_ivp(t_eval=ts)`, `_second_order`, `g_ab Γ^b_il`, "
            "`tests/test_docs.py`, `oracle_golden.json`, `--domain-min`, "
            "`BLOCK_DOUBLES`, `x1`\n```sh\n`fenced_name`\n```\n`rel_err`")
    assert snake_names(text) == {"solve_ivp", "t_eval", "_second_order",
                                 "g_ab", "b_il", "rel_err"}


def test_readme_snake_case_names_exist():
    # a name README still cites after the code dropped it (chart_for) shows
    # here, which the dotted and capitalised checks above cannot see
    cited, held = snake_names(README.read_text()), code_names()
    assert sorted(cited - held - set(NOT_CODE_NAMES)) == [], \
        "README cites snake_case names src/curvlab lacks"
    assert set(NOT_CODE_NAMES) <= cited - held
