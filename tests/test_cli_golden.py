"""Golden --json reports of every CLI subcommand on the shipped catalog.

cli_golden.json holds one record per call: the arguments, the exit code,
and either the report with timing_ms removed or, for a failing call, its
stderr.  Left out are sk1 of SG256_8129, SG256_8177 and SG256_9039, which
take more than about 0.3 s each, conj62 G16384, and selftest, whose
report carries timings.  info, search-ext and lambda4 of G16384 are kept although they
take about 1 s.
"""

import json
from pathlib import Path

import pytest

from twogroups.cli import main

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


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
