"""Static checks on the sources and docs: no module imports a name it never
uses, nothing in the package imports scipy (a test-only oracle), the
README's run-config block is the default config, the docs name exactly
the CLI's subcommands, README's layout table exactly the package modules
and tools, every repo path README names exists, and only the checkpoint
module spells the optimizer's stored tensor names."""

import argparse
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from eqmatch import cli, model
from eqmatch.config import RunConfig, to_dict
from eqmatch.objective import OBJECTIVES
from eqmatch.sampler import METHODS

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "eqmatch").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py")) \
    + sorted((ROOT / "tools").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names that only appear in string annotations, e.g. -> "Graph | None"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def imported_modules(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_package_does_not_import_scipy():
    """numpy is the only runtime dependency: no source under src/ imports
    scipy, and importing the CLI loads no scipy module."""
    offenders = [f"{path.relative_to(ROOT)}: {name}"
                 for path in sorted((ROOT / "src").rglob("*.py"))
                 for name in sorted(imported_modules(ast.parse(path.read_text())))
                 if name == "scipy" or name.startswith("scipy.")]
    assert offenders == []
    probe = ("import sys; import eqmatch.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"


# an eqmatch command in a fresh interpreter, then its Python threads and
# whether it left a child process, running or unreaped
RUN_THEN_COUNT_THREADS = """
import os, sys, threading
from eqmatch.cli import main
assert main(sys.argv[1:]) == 0
try:
    os.waitpid(-1, os.WNOHANG)
    print(threading.active_count(), "child")
except ChildProcessError:
    print(threading.active_count(), "none")
"""

FIXTURE = ROOT / "bench" / "fixture" / "checkpoint.eqmckpt"


@pytest.mark.parametrize("command, blas_threads", [
    ("train", "1"), ("sample", None), ("sample", "1")],
    ids=["train, one BLAS thread", "sample, no BLAS variable", "sample, one BLAS thread"])
def test_threads_a_command_starts(tmp_path, command, blas_threads):
    """Every command runs on one Python thread and leaves no child process.
    `sample` splits its 1000 rows over a process per core where one BLAS
    thread is set (7 at most, INFERENCE_ROWS each), and its summary line
    says how many it sampled on."""
    env = {k: v for k, v in os.environ.items() if k not in model.BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    if command == "train":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"hidden": [4]}, "train": {"steps": 2}}))
        argv = ["train", "--config", cfg, "--out", tmp_path / "run"]
    else:
        argv = ["sample", "--checkpoint", FIXTURE, "--n", "1000", "--steps", "3",
                "--out", tmp_path / "samples.csv"]
    proc = subprocess.run([sys.executable, "-c", RUN_THEN_COUNT_THREADS, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *output, threads, children = proc.stdout.split()
    assert (threads, children) == ("1", "none")
    if command == "sample":
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count()
        processes = min(cores, 7) if blas_threads == "1" and hasattr(os, "fork") else 1
        assert f"on {processes} process{'es' if processes > 1 else ''};" in " ".join(output)


def test_only_the_checkpoint_spells_the_optimizer_tensor_prefix():
    """The stored names of the AdamW moments, opt.m.<param> and
    opt.v.<param>, are the checkpoint's format: no other package module
    spells the "opt." prefix in a string."""
    offenders = [path.name for path in sorted((ROOT / "src" / "eqmatch").glob("*.py"))
                 if path.name != "checkpoint.py"
                 and re.search(r"[\"']opt\.", path.read_text())]
    assert offenders == []


def test_readme_run_config_block_is_every_default():
    """With its // comments stripped, the README's run-config block is
    to_dict(RunConfig()), and its comments on `objective` and `method` list
    exactly OBJECTIVES and METHODS."""
    section = (ROOT / "README.md").read_text().split("## Run config (JSON)")[1]
    block = section.split("```json")[1].split("```")[0]
    assert json.loads(re.sub(r"//[^\n]*", "", block)) == to_dict(RunConfig())
    # the comment after a key's scalar value, e.g. "method": "gd",  // gd | ...
    comments = dict(re.findall(r'"([a-z_]+)": "[^"]*",\s*// ([^\n]*)', block))
    for key, names in (("objective", OBJECTIVES), ("method", METHODS)):
        assert tuple(c.strip() for c in comments[key].split("|")) == names, key


def test_docs_name_exactly_the_subcommands():
    """The `eqmatch <command>` lines of README's CLI block and the
    `Subcommands:` list of the cli module docstring name exactly the
    subcommands build_parser() defines."""
    parser = cli.build_parser()
    commands = {name for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)
                for name in action.choices}
    section = (ROOT / "README.md").read_text().split("## CLI")[1]
    block = section.split("```bash")[1].split("```")[0]
    assert set(re.findall(r"^eqmatch (\S+)", block, flags=re.M)) == commands
    listed = re.search(r"Subcommands: ([^.]*)\.", " ".join(cli.__doc__.split())).group(1)
    assert {c.strip() for c in listed.split(",")} == commands


def test_readme_layout_names_exactly_the_modules_and_tools():
    """The first column of README's layout table names every module of
    src/eqmatch (but `__init__`) and every script in tools/, and no other."""
    section = (ROOT / "README.md").read_text().split("## Layout")[1].split("\n## ")[0]
    named = set(re.findall(r"^\| `([^`]+)` \|", section, flags=re.M))
    modules = {f"eqmatch.{p.stem}" for p in (ROOT / "src" / "eqmatch").glob("*.py")
               if p.name != "__init__.py"}
    tools = {f"tools/{p.name}" for p in (ROOT / "tools").glob("*.py")}
    assert {n for n in named if n.startswith(("eqmatch.", "tools/"))} == modules | tools


def test_readme_names_only_paths_that_exist():
    """Every repo path that README.md names in backticks, inline or in a code
    block, exists: one with a directory part under bench/, src/, tests/ or
    tools/, or a top-level BENCH_<n>.json."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    inline = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", text,
                                               flags=re.M | re.S))
    named = {word for word in inline + " ".join(blocks).split()
             if re.fullmatch(r"(bench|src|tests|tools)/\S*|BENCH_\d+\.json", word)}
    assert "tools/run_digests.py" in named
    assert sorted(p for p in named if not (ROOT / p).exists()) == []
