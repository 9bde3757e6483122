"""Golden --json reports of every CLI subcommand on the shipped catalog.

cli_golden.json holds one record per call: the arguments, the exit code,
and either the report with timing_ms removed or, for a failing call, its
stderr.  info, search-ext, lambda4 and conj62 of G16384 are kept although
they take about 1 s each.  sk1 of G16384 (about 0.4 s) runs in a child
process with a 60 s timeout, so that a slower route fails the test instead
of hanging it.  selftest_golden.json holds the selftest --json report with
its timings ("seconds", "elapsed_s") removed.  covers_sk1_golden.json holds
the sk1 reports of the frozen benchmark covers (perfbench/covers.cat), all
on the generic collector, with timing_ms removed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twogroups.cli import main

HERE = Path(__file__).parent
SRC = HERE.parent / "src"
GOLDEN = json.loads((HERE / "cli_golden.json").read_text())
COVERS_GOLDEN = json.loads((HERE / "covers_sk1_golden.json").read_text())
COVERS_CAT = HERE.parent / "perfbench" / "covers.cat"
TIMINGS = ("seconds", "elapsed_s")
IN_CHILD = [["sk1", "G16384"]]
CHILD_TIMEOUT_S = 60


def _run_in_child(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [str(SRC), os.environ.get("PYTHONPATH")] if p))
    proc = subprocess.run(
        [sys.executable, "-m", "twogroups.cli", *argv],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("record", GOLDEN, ids=lambda r: " ".join(r["argv"]))
def test_cli_report_matches_golden(record, capsys):
    argv = record["argv"] + ["--json"]
    if record["argv"] in IN_CHILD:
        code, out, err = _run_in_child(argv)
    else:
        code = main(argv)
        out, err = capsys.readouterr()
    assert code == record["code"], err
    if code == 0:
        report = json.loads(out)
        report.pop("timing_ms")
        assert report == record["report"]
    else:
        assert err.strip() == record["stderr"]


@pytest.mark.parametrize("record", COVERS_GOLDEN, ids=lambda r: " ".join(r["argv"]))
def test_cover_sk1_report_matches_golden(record, capsys):
    code = main(record["argv"] + ["--catalog", str(COVERS_CAT), "--json"])
    out, err = capsys.readouterr()
    assert code == record["code"], err
    report = json.loads(out)
    report.pop("timing_ms")
    assert report == record["report"]


def _without_timings(value):
    if isinstance(value, dict):
        return {k: _without_timings(v) for k, v in value.items() if k not in TIMINGS}
    if isinstance(value, list):
        return [_without_timings(v) for v in value]
    return value


def test_selftest_report_matches_golden(capsys):
    code = main(["selftest", "--json"])
    out, err = capsys.readouterr()
    assert code == 0, err
    golden = json.loads((HERE / "selftest_golden.json").read_text())
    assert _without_timings(json.loads(out)) == golden
