"""Golden --json reports of every CLI subcommand on the shipped catalog.

cli_golden.json holds one record per call: the arguments, the exit code,
and either the report with timing_ms removed or, for a failing call, its
stderr.  Left out are sk1 of SG256_8129, SG256_8177 and SG256_9039, which
take more than about 0.3 s each.  info, search-ext, lambda4 and conj62 of
G16384 are kept although they take about 1 s each.  selftest_golden.json
holds the selftest --json report with its timings ("seconds", "elapsed_s")
removed.
"""

import json
from pathlib import Path

import pytest

from twogroups.cli import main

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "cli_golden.json").read_text())
TIMINGS = ("seconds", "elapsed_s")


@pytest.mark.parametrize("record", GOLDEN, ids=lambda r: " ".join(r["argv"]))
def test_cli_report_matches_golden(record, capsys):
    code = main(record["argv"] + ["--json"])
    out, err = capsys.readouterr()
    assert code == record["code"], err
    if code == 0:
        report = json.loads(out)
        report.pop("timing_ms")
        assert report == record["report"]
    else:
        assert err.strip() == record["stderr"]


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
