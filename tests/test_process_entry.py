"""The process entry and its collector policy.

`python -m bicomplex` and the `bicomplex` script run `cli.run()`, which
turns the cyclic collector off for the whole short-lived process.  That is
safe only while nothing a command runs leaves reference cycles behind: the
guard tests below make a check or command that starts making them fail
here, before it can grow a CLI process's memory.  `cli.main()` is the same
command line for a host process and leaves its collector alone.
"""

import contextlib
import gc
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bicomplex import CHECK_IDS, Bicomplex, Submodule, TFunctional, TMatrix, TVector, cli, verifier

ROOT = Path(__file__).resolve().parents[1]


def cyclic_garbage(fn) -> int:
    """Objects that only the cyclic collector frees, left by one call of fn."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def quiet_main(argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(argv)
            except SystemExit:
                pass
    return call


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_no_check_leaves_cyclic_garbage(check_id):
    for trials in (3, 300):
        config = verifier.default_config(check_id, seed=42, trials=trials)
        assert cyclic_garbage(lambda: verifier.run_check(config)) == 0, trials


@pytest.fixture
def command_files(tmp_path):
    files = {}

    def write(name, value):
        files[name] = str(tmp_path / name)
        (tmp_path / name).write_text(value)

    write("mat.json", json.dumps(TMatrix.scalar(2, Bicomplex.from_idempotent(2, 1)).to_json()))
    write("sing.json", json.dumps(TMatrix.scalar(2, Bicomplex(0.5, 0, 0, 0.5)).to_json()))
    write("vec.json", json.dumps(TVector.from_scalars([Bicomplex(1.0), Bicomplex(2.0)]).to_json()))
    write("vec.csv", TVector.from_scalars([Bicomplex(1.0), Bicomplex(2.0)]).to_csv())
    write("sub.json", json.dumps(Submodule.span(TVector.basis(2, 0)).to_json()))
    write("sub2.json", json.dumps(Submodule.span(TVector.basis(2, 0), TVector.basis(2, 1)).to_json()))
    write("fun.json", json.dumps(TFunctional.coordinate(2, 0).to_json()))
    return files


def test_every_command_leaves_only_the_parser_graph_whatever_its_input(command_files):
    f = command_files
    commands = {
        "calc": [["calc", "1 2 3 4", "mul", "0.5 0 0 -0.5"], ["calc", "0.5 0 0 0.5", "inverse"],
                 ["calc", "1 2 3", "add", "0 0 0 0"]],
        "decompose": [["decompose", "0 0 0 1"], ["decompose", "0.5 0 0 0.5"]],
        "solve": [["solve", f["mat.json"], f["vec.json"]], ["solve", f["mat.json"], f["vec.csv"], "--format", "csv"],
                  ["solve", f["sing.json"], f["vec.json"]]],
        "norm": [["norm", f["mat.json"]], ["norm", f["sing.json"]], ["norm", f["fun.json"]]],
        "extend": [["extend", f["sub.json"], f["fun.json"]], ["extend", f["sub2.json"], f["fun.json"]],
                   ["extend", f["fun.json"], f["fun.json"]]],
        "verify": [["verify", "--check", "hahn-banach", "--trials", "3"], ["verify", "--all", "--trials", "3"]],
    }
    parser_graph = cyclic_garbage(cli._build_parser)
    assert parser_graph > 0
    counts = {name: [cyclic_garbage(quiet_main(argv)) for argv in runs] for name, runs in commands.items()}
    assert counts == {name: [parser_graph] * len(runs) for name, runs in commands.items()}
    # A usage error also leaves the help formatter that wrote the usage line.
    usage_graph = cyclic_garbage(lambda: cli._build_parser().format_usage())
    usage_errors = [["calc", "1 0 0 0", "mul"], ["calc", "1 0 0 0", "frobnicate"], ["norm"],
                    ["verify", "--check", "no-such-check"], ["extend", f["sub.json"], f["fun.json"], "--tol", "1"]]
    assert [cyclic_garbage(quiet_main(argv)) for argv in usage_errors] == [usage_graph] * len(usage_errors)


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, command_files):
    frozen = gc.get_freeze_count()
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv in (["calc", "1 2 3 4", "mul", "0.5 0 0 -0.5"], ["calc", "0.5 0 0 0.5", "inverse"],
                     ["calc", "1 0 0 0", "mul"], ["norm", command_files["mat.json"]]):
            quiet_main(argv)()
            assert gc.isenabled() is enabled and gc.get_freeze_count() == frozen, argv
    finally:
        (gc.enable if was else gc.disable)()


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv, code", [
    (["calc", "0.5 0 0 0.5", "mul", "0.5 0 0 -0.5"], 0),
    (["calc", "0.5 0 0 0.5", "inverse"], 1),
    (["calc", "1 0 0 0", "mul"], 2),
])
def test_a_fresh_process_exits_and_prints_as_main_does(argv, code, capsys):
    done = run_fresh("-m", "bicomplex", *argv)
    with pytest.raises(SystemExit) if code == 2 else contextlib.nullcontext():
        assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)
    if code == 1:
        assert json.loads(done.stderr)["error"] == "SingularElement"


def test_run_turns_the_collector_off_and_freezes_before_it_returns():
    code = (
        "import gc, sys\nfrom bicomplex import cli\n"
        "sys.argv = ['bicomplex', 'calc', '1 0 0 0', 'add', '0 0 0 1']\n"
        "status = cli.run()\nprint(status, gc.isenabled(), gc.get_freeze_count() > 0)"
    )
    done = run_fresh("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1 0 0 1\n0 False True\n"


def test_python_dash_m_and_the_script_both_enter_through_run():
    code = (
        "import runpy, sys\nfrom bicomplex import cli\n"
        "cli.run = lambda: print('run') or 7\nsys.argv = ['bicomplex']\n"
        "runpy.run_module('bicomplex', run_name='__main__')"
    )
    done = run_fresh("-c", code)
    assert (done.returncode, done.stdout) == (7, "run\n")
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n")[1].split("\n[")[0]
    entries = dict(line.replace('"', "").split(" = ") for line in scripts.splitlines() if line)
    module, name = entries["bicomplex"].split(":")
    assert getattr(importlib.import_module(module), name) is cli.run
