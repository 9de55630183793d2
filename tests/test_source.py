"""Checks on the source tree of ``groundcap`` itself."""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groundcap
from groundcap.cli import build_parser
from groundcap.config import PipelineConfig

SOURCE = Path(groundcap.__file__).parent


def test_every_module_level_definition_is_exported_or_used():
    # a def, class or module-level name that nothing reads is a second copy
    # waiting to drift; a name only assigned to, or only imported, is not read
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in sorted(SOURCE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)

    def defined(node: ast.stmt) -> list[str]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [node.name]
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            return []
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        return [name for name in names if not (name.startswith("__") and name.endswith("__"))]

    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in defined(node)
        if name not in groundcap.__all__ and name not in read
    ]
    assert unused == []


def test_every_flag_is_a_config_field_or_a_name_the_runner_reads():
    # main applies a flag only when its dest is a config field, so a dest
    # that is neither a field nor one of these would be dropped without a word
    files = {"input", "captions", "pred", "gt"}  # read through the subcommand's ``inputs``
    handled = files | {"out", "rejected", "config", "manifest", "fixtures", "host", "port"}
    allowed = handled | set(PipelineConfig._fields)
    actions = build_parser()._actions
    (subparsers,) = (a for a in actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        dests = {action.dest for action in parser._actions if action.dest != "help"}
        assert sorted(dests - allowed) == [], command
        assert sorted(dests & files) == sorted(parser.get_default("inputs") or ()), command


def test_no_broad_except_unless_it_reraises():
    # a broad handler would swallow a bug as if it were an expected fault;
    # BaseException is caught only to clean up on the way out
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {c.id for c in caught if isinstance(c, ast.Name)} if node.type else {"(bare)"}
            reraises = any(
                isinstance(sub, ast.Raise)
                and (sub.exc is None or isinstance(sub.exc, ast.Name) and sub.exc.id == node.name)
                for statement in node.body
                for sub in ast.walk(statement)
            )
            broad = names & {"(bare)", "Exception"} or ("BaseException" in names and not reraises)
            if broad:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_input_schemas_ship_with_the_package():
    # ingest reads them to explain a refused line, so an installed groundcap needs them
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text("utf-8"))
    assert "schemas/*.json" in pyproject["tool"]["setuptools"]["package-data"]["groundcap"]
    for name in ("frame_grounding.schema.json", "video_annotation.schema.json"):
        assert (SOURCE / "schemas" / name).is_file()


def test_no_module_imports_dataclasses():
    # the records are named tuples; dataclasses, and the inspect it loads, would
    # add their import and the decorating of every record class to each process
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.partition(".")[0] == "dataclasses" for module in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    loaded = (
        "import sys; before = set(sys.modules); import groundcap.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (sys.modules.keys() - before)))"
    )
    child = subprocess.run(
        [sys.executable, "-c", loaded],
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert child.stdout == "[]\n"


def test_only_ingest_calls_check_annotation():
    # the reader's builder is the one acceptor; check_annotation only explains
    # a line it refused, so a call anywhere else would be a second rule set
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "ingest.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Call):
                func = node.func
                names = [func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")]
            else:
                continue
            if "check_annotation" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_records_raise_nothing_and_cli_writes_no_frame_line():
    # each JSON form is checked and written by one module: the reader of SVO
    # lines checks their values, so records holds values only, and frame
    # lines are written by ingest.frame_to_dict, beside their reader
    records = ast.parse((SOURCE / "records.py").read_text("utf-8"))
    assert [node.lineno for node in ast.walk(records) if isinstance(node, ast.Raise)] == []
    cli = ast.parse((SOURCE / "cli.py").read_text("utf-8"))
    frame_dicts = [
        node.lineno
        for node in ast.walk(cli)
        if isinstance(node, ast.Dict)
        and any(isinstance(key, ast.Constant) and key.value == "objects" for key in node.keys)
    ]
    assert frame_dicts == []
