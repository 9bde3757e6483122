import json
import time

import pytest

from twogroups import cli
from twogroups.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_json(argv, capsys):
    code, out, err = run_cli(argv + ["--json"], capsys)
    assert code == 0, err
    return json.loads(out)


def test_h1whp_json(capsys):
    report = run_json(["h1whp", "SG128_1377"], capsys)
    assert report["value"] == {"rank": 0}
    assert report["tool"] == "twogroups"
    assert "input_digest" in report


def test_unknown_group_is_usage_error(capsys):
    code, out, err = run_cli(["h1whp", "NOSUCH"], capsys)
    assert code == 2
    assert "unknown group" in err


def test_unknown_cover_is_usage_error(capsys):
    code, out, err = run_cli(
        ["compat", "SG128_1376", "--cover", "NOSUCH", "--theta", "0", "--z", "0"], capsys
    )
    assert code == 2
    assert "unknown group 'NOSUCH'" in err


def test_internal_key_error_is_not_unknown_group(monkeypatch, capsys):
    # a KeyError raised inside a computation is a fault, not a usage error
    def broken(group):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "h1_wh_prime", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["h1whp", "D8"])


def test_conj62_scale_bound_is_exit_1(capsys):
    # G16384: 2^14 elements x 1920 surjective tuples, far above the bound
    start = time.perf_counter()
    code, out, err = run_cli(["conj62", "G16384"], capsys)
    assert code == 1
    assert "conj62 bound" in err and "16384 x 1920" in err
    assert time.perf_counter() - start < 30


def test_missing_subcommand_is_usage_error(capsys):
    code, out, err = run_cli([], capsys)
    assert code == 2


def test_precondition_failure_is_exit_1(capsys):
    # schur cover scale bound: |G| = 2^14 > 2^10
    code, out, err = run_cli(["cover", "G16384"], capsys)
    assert code == 1
    assert "2^10" in err


def test_info_text_mode(capsys):
    code, out, err = run_cli(["info", "Q8"], capsys)
    assert code == 0
    assert "order: 8" in out


def test_sk1_and_cover(capsys):
    report = run_json(["sk1", "SG128_1377"], capsys)
    assert report["value"]["invariants"] == [2]
    report = run_json(["cover", "C2xC2"], capsys)
    assert report["value"]["h2_invariants"] == [2]


def test_lambda4(capsys):
    report = run_json(["lambda4", "SG256_9039"], capsys)
    assert report["value"]["verdict"] == "zero"


def test_lhs_report_page4(capsys):
    report = run_json(["lhs-report", "SG256_9039", "--page4"], capsys)
    value = report["value"]
    assert value["d2"]["zeta7"] == "X1^2+X2*X3"
    assert value["survivors_deg4"] == ["X2^4", "X3^4", "X4^4"]
    assert "X1^4" in value["dead_quartics"]


def test_search_ext(capsys):
    report = run_json(["search-ext", "SG256_8177"], capsys)
    assert report["value"]["count"] == 1
    assert report["value"]["entries"][0]["thm42"] is True
    assert report["value"]["entries"][0]["sigma"] == [7, 8]


def test_compat(capsys):
    report = run_json(
        [
            "compat", "SG128_1376", "--cover", "SG256_8129",
            "--images", "1 2 3 4 5 6 7 5",
            "--theta", "X1*X2+X1*X3", "--z", "X3*X4",
        ],
        capsys,
    )
    assert report["value"]["verdict"] == "compatible"


def test_conj62(capsys):
    report = run_json(["conj62", "C8"], capsys)
    parities = sorted(s["parity"] for s in report["value"]["sequences"])
    assert parities == ["even", "odd"]
    assert report["value"]["homological_filters_applied"] is False


def test_determinism_excluding_timing(capsys):
    a = run_json(["h1whp", "SG256_9039"], capsys)
    b = run_json(["h1whp", "SG256_9039"], capsys)
    a.pop("timing_ms")
    b.pop("timing_ms")
    assert a == b


def test_custom_catalog(tmp_path, capsys):
    path = tmp_path / "extra.cat"
    path.write_text(
        "group M16\nngens 4\npow 2 = 3\npow 3 = 4\ncomm 1 2 = 4\nend\n"
    )
    report = run_json(["info", "M16", "--catalog", str(path)], capsys)
    assert report["value"]["order"] == 16
    report = run_json(["conj62", "M16", "--catalog", str(path)], capsys)
    assert report["value"]["sequences"]


def test_bad_catalog_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.cat"
    path.write_text("group X\nngens 2\npow 2 = 1\nend\n")
    code, out, err = run_cli(["info", "X", "--catalog", str(path)], capsys)
    assert code == 2


def test_absurd_ngens_is_usage_error(tmp_path, capsys):
    # rejected before the n x n commutator table is allocated
    path = tmp_path / "huge.cat"
    path.write_text("group X\nngens 100000\nend\n")
    code, out, err = run_cli(["info", "X", "--catalog", str(path)], capsys)
    assert code == 2
    assert "line 2" in err and "ngens" in err


def test_selftest_fault_injection_catalog(capsys):
    code, out, err = run_cli(["selftest", "--inject-fault", "catalog-corrupt"], capsys)
    assert code == 1
    assert "parse" in out.lower() or "catalog" in out.lower()
