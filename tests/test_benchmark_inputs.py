"""The benchmark's op argv lists still parse.

``bench/workloads.py`` builds every op as a ``weylcount.cli.main`` argv
list and imports the library names its oracles use.  Loading it checks
those imports; parsing each op's argv with the CLI's own parser checks the
commands and options it names, and no op is run.
"""

import importlib.util
import pathlib
import sys

import pytest

from weylcount import cli

WORKLOADS_PATH = (pathlib.Path(__file__).resolve().parent.parent
                  / "bench" / "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # read only: no bytecode is written beside the benchmark's sources
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_workload_op_parses(workloads, tmp_path, seed):
    assert workloads.WORKLOADS
    parser = cli.build_parser()
    for name, workload in workloads.WORKLOADS.items():
        ops = workload.ops(workload.inputs(seed), str(tmp_path))
        assert ops, name
        for argv in ops:
            args = parser.parse_args(argv)
            assert args.command == argv[0], (name, argv)
