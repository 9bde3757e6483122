import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import twogroups.ktheory
from conftest import element_walk, rkm
from twogroups import cli
from twogroups.catalog import serialize_catalog
from twogroups.cli import main
from twogroups.f2poly import PolyError
from twogroups.homology import cover_presentation
from twogroups.lhs import LhsError
from twogroups.ooze import OozeError
from twogroups.pcgroup import (ELEMENT_WALK_BOUND, PcError, PcGroup, ScaleError, abelianization,
                               central_tail)

SRC = Path(__file__).resolve().parents[1] / "src"


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

    monkeypatch.setattr(twogroups.ktheory, "h1_wh_prime", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["h1whp", "D8"])


@pytest.mark.parametrize("error, code", [
    (ScaleError, 1), (PcError, 1), (LhsError, 1), (OozeError, 1),
    (PolyError, 2), (cli.UsageError, 2), ("bad-catalog", 2),
])
def test_domain_errors_keep_their_exit_codes(error, code, tmp_path, monkeypatch, capsys):
    # the error classes are looked up only once one is raised; a KeyError
    # still propagates (test above)
    argv = ["h1whp", "D8"]
    if error == "bad-catalog":
        path = tmp_path / "bad.cat"
        path.write_text("group X\nngens 2\npow 2 = 1\nend\n")
        argv += ["--catalog", str(path)]
    else:
        def broken(group):
            raise error("boom")

        monkeypatch.setattr(twogroups.ktheory, "h1_wh_prime", broken)
    got, out, err = run_cli(argv, capsys)
    assert (got, out) == (code, "")
    assert err.startswith("error: ")


def test_conj62_scale_bound_is_exit_1(tmp_path, capsys):
    # C4^6 x C2: 8064 surjective tuples x |pi^ab| = 2^13, far above the bound
    path = tmp_path / "wide.cat"
    pows = "".join(f"pow {i} = {i + 1}\n" for i in range(1, 13, 2))
    path.write_text(f"group C4x6xC2\nngens 13\n{pows}end\n")
    start = time.perf_counter()
    code, out, err = run_cli(["conj62", "C4x6xC2", "--catalog", str(path)], capsys)
    assert code == 1
    assert "conj62 bound" in err and "8064 x 8192" in err
    assert time.perf_counter() - start < 30


def test_conj62_g16384(capsys):
    # the paper's group: pi^ab = C2^3 x C4^4 has 1920 surjections onto C4,
    # two per kernel; the element-set scan, run without a bound, gives the same
    report = run_json(["conj62", "G16384"], capsys)
    seqs = report["value"]["sequences"]
    assert len(seqs) == 960
    histogram = Counter((s["cyclic_quotient_order"], s["classes_in_T_minus_N"], s["parity"])
                        for s in seqs)
    assert histogram == {(4, 1040, "even"): 576, (4, 1200, "even"): 384}


def test_missing_subcommand_is_usage_error(capsys):
    code, out, err = run_cli([], capsys)
    assert code == 2


def test_precondition_failure_is_exit_1(tmp_path, capsys):
    # cover presentation scale bound: n = 21 > 20 pc generators
    path = tmp_path / "c2x21.cat"
    path.write_text("group C2x21\nngens 21\nend\n")
    code, out, err = run_cli(["cover", "C2x21", "--catalog", str(path)], capsys)
    assert code == 1
    assert "bound is n <= 20 pc generators, got 21" in err


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


COMPAT = ["compat", "SG128_1376", "--cover", "SG256_8129"]
IMAGES = ["--images", "1 2 3 4 5 6 7 5"]
QUADRATICS = ["--theta", "X1*X2+X1*X3", "--z", "X3*X4"]


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--images", "1 2 3"], "--images needs 8 generator images, got 3"),
        (["--images", "1 2 3 4 5 6 7 9"], "image index 9 out of range"),
        (IMAGES + ["--sigma", "99"], "--sigma index 99 out of range 1..8"),
        (IMAGES + ["--sigma", "0"], "--sigma index 0 out of range 1..8"),
        (IMAGES + ["--theta", "X1"], "--theta must be homogeneous of degree 2"),
        (IMAGES + ["--z", "X3"], "--z must be homogeneous of degree 2"),
        ([], "--images needs 8 generator images, got 0"),
        (IMAGES + ["--theta", "X1^40000"], "degree 40000 exceeds the bound 32767"),
    ],
)
def test_compat_usage_errors_exit_2(extra, message, capsys):
    code, out, err = run_cli(COMPAT + QUADRATICS + extra, capsys)
    assert code == 2, err
    assert message in err and out == ""


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--images", "1 2 3 4 5 6 7 1"], "map does not respect relation"),
        (IMAGES + ["--sigma", "1"], "--sigma word does not generate the kernel"),
        # x8^2 = 1: a word equal to the identity does not generate the kernel
        (IMAGES + ["--sigma", "8 8"], "--sigma word does not generate the kernel"),
    ],
)
def test_compat_mathematical_failures_exit_1(extra, message, capsys):
    code, out, err = run_cli(COMPAT + QUADRATICS + extra, capsys)
    assert code == 1, err
    assert message in err


def test_compat_cover_past_the_element_walk_bound_is_exit_1(tmp_path, capsys):
    # the kernel of --images is an element walk of the cover: C2^21 onto
    # C2^20 is refused before it begins
    path = tmp_path / "big.cat"
    path.write_text("group E20\nngens 20\nend\ngroup E21\nngens 21\nend\n")
    images = " ".join(map(str, range(1, 21))) + " 0"
    start = time.perf_counter()
    code, out, err = run_cli(
        ["compat", "E20", "--cover", "E21", "--images", images, "--theta", "0",
         "--z", "0", "--catalog", str(path)],
        capsys,
    )
    assert code == 1, err
    assert "central_extension_from_hom bound is |G| <= 2^20, got |G| = 2^21" in err
    assert time.perf_counter() - start < 5


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


@pytest.mark.parametrize("command", ["info", "h1whp", "lambda4", "search-ext"])
def test_element_walk_bound_is_exit_1(tmp_path, capsys, command):
    # C2^n with 2^n one step past the bound: refused before any element walk
    n = ELEMENT_WALK_BOUND.bit_length()
    path = tmp_path / "big.cat"
    path.write_text(f"group C2x{n}\nngens {n}\nend\n")
    start = time.perf_counter()
    code, out, err = run_cli([command, f"C2x{n}", "--catalog", str(path)], capsys)
    assert code == 1
    assert f"bound is |G| <= 2^{n - 1}, got |G| = 2^{n}" in err
    assert time.perf_counter() - start < 5


def test_sk1_pair_bound_is_exit_1(tmp_path, capsys):
    # C2^15: 2^15 x 15 (class representative, centralizer generator) pairs
    # at most, above the bound; refused before the class walk or the cover
    path = tmp_path / "c2x15.cat"
    path.write_text("group C2x15\nngens 15\nend\n")
    start = time.perf_counter()
    code, out, err = run_cli(["sk1", "C2x15", "--catalog", str(path)], capsys)
    assert code == 1
    assert "sk1 bound is |G| n <= 2^18" in err and "got 2^15 x 15" in err
    assert time.perf_counter() - start < 5


def test_compat_refuses_the_sk1_pairs_before_the_extension(tmp_path):
    # C2^20 onto C2^19: the report's sk1 on C2^19 is past its pair bound,
    # so compat is refused before the 2^20 kernel walk; a child process,
    # so that a walk that does start fails here by the timeout instead of
    # stalling
    groups = [PcGroup(f"E{n}", n, [0] * n, [[0] * n] * n) for n in (19, 20)]
    path = tmp_path / "e.cat"
    path.write_text(serialize_catalog(groups))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [str(SRC), os.environ.get("PYTHONPATH")] if p))
    images = " ".join(map(str, range(1, 20))) + " 0"
    proc = subprocess.run(
        [sys.executable, "-m", "twogroups.cli", "compat", "E19", "--cover", "E20",
         "--images", images, "--theta", "0", "--z", "0", "--catalog", str(path)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert "sk1 bound is |G| n <= 2^18" in proc.stderr and "got 2^19 x 19" in proc.stderr


def test_search_ext_answers_at_2_20_at_once(tmp_path):
    # R(16,4) seed 1604 at the element walk bound (|G| = 2^20): a scan of
    # |G/Z(G)|^2 = 2^32 pairs, where one pass over the transversal finds
    # every central commutator; a child process, so that a scan that does
    # start fails here by the timeout instead of stalling
    path = tmp_path / "r16_4.cat"
    path.write_text(serialize_catalog([rkm(16, 4, 1604)]))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [str(SRC), os.environ.get("PYTHONPATH")] if p))
    proc = subprocess.run(
        [sys.executable, "-m", "twogroups.cli", "search-ext", "R16_4_s1604",
         "--catalog", str(path), "--json"],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["value"] == {"count": 0, "entries": []}


def test_info_lifts_the_classes_of_a_2_16_cover_at_once(tmp_path):
    # the Schur cover of R(5,4) seed 6: 2^16 on the generic collector, with
    # a top of 9 generators above its central tail, so no product tables;
    # the class walk lifts the classes of the top quotient instead of one
    # orbit walk per class (about 6 s in-process); a child process, so that
    # a walk that does start fails here by the timeout instead of stalling
    g = cover_presentation(rkm(5, 4, 6)).cover
    assert g.order == 1 << 16 and not g.is_fast and central_tail(g) == 9
    path = tmp_path / "cover_r5_4.cat"
    path.write_text(serialize_catalog([g]))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [str(SRC), os.environ.get("PYTHONPATH")] if p))
    proc = subprocess.run(
        [sys.executable, "-m", "twogroups.cli", "info", g.name, "--catalog", str(path), "--json"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    value = json.loads(proc.stdout)["value"]
    assert value["order"] == g.order
    assert sum(value["fingerprint"]["class_sizes"]) == g.order


def test_h1whp_lifts_the_witnesses_of_a_2_16_cover(tmp_path):
    # the same 2^16 cover: C/[G,G] from the real class records and one
    # lifted witness per coset of the central tail, where one orbit walk
    # per class took about 5 s in-process; a child process, so that a walk
    # that does start fails here by the timeout instead of stalling
    g = cover_presentation(rkm(5, 4, 6)).cover
    path = tmp_path / "cover_r5_4.cat"
    path.write_text(serialize_catalog([g]))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [str(SRC), os.environ.get("PYTHONPATH")] if p))
    proc = subprocess.run(
        [sys.executable, "-m", "twogroups.cli", "h1whp", g.name, "--catalog", str(path), "--json"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["value"]["rank"] == 3


def test_h1whp_and_lambda4_walk_cosets_at_2_20(tmp_path):
    # R(16,4) seed 1604 at the element walk bound (|G| = 2^20, S = G): one
    # solve per [G,G]-coset, and as_dict lists only the 16 witnesses it
    # prints; a child process, so that a walk of S that does start fails
    # here by the timeout instead of stalling
    g = rkm(16, 4, 1604)
    path = tmp_path / "r16_4.cat"
    path.write_text(serialize_catalog([g]))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [str(SRC), os.environ.get("PYTHONPATH")] if p))
    reports = {}
    for command in ["h1whp", "lambda4"]:
        proc = subprocess.run(
            [sys.executable, "-m", "twogroups.cli", command, g.name, "--catalog", str(path),
             "--json"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        reports[command] = json.loads(proc.stdout)
    assert reports["h1whp"]["value"] == {"rank": 0}
    first = islice(element_walk(g, abelianization(g)), 16)
    assert reports["h1whp"]["certificate"]["witnesses"] == [
        [g.element_str(a), g.element_str(h)] for a, h, _new in first]
    assert reports["lambda4"]["value"]["verdict"] == "zero"


def test_cover_finishes_on_growth_seeds(tmp_path):
    # tails matrices on which a Smith form over Z ran for minutes: each call
    # runs in a child process, so that a hang fails here instead of stalling
    groups = [rkm(5, 4, 4504), rkm(6, 4, 604)]
    path = tmp_path / "growth.cat"
    path.write_text(serialize_catalog(groups))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [str(SRC), os.environ.get("PYTHONPATH")] if p))
    for g in groups:
        proc = subprocess.run(
            [sys.executable, "-m", "twogroups.cli", "cover", g.name,
             "--catalog", str(path), "--json"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        value = json.loads(proc.stdout)["value"]
        assert value["stem_order"] == math.prod(value["h2_invariants"])
        assert value["cover_order"] == g.order * value["kernel_order"]


def test_cover_refuses_large_multiplier_at_once(tmp_path):
    # C2^10 has |H_2| = 2^45, a cover of 10 + 45 > 48 generators: refused
    # before the cover is built; a child process, so that a build that does
    # start fails here by the timeout instead of stalling
    path = tmp_path / "c2x10.cat"
    path.write_text("group C2x10\nngens 10\nend\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [str(SRC), os.environ.get("PYTHONPATH")] if p))
    proc = subprocess.run(
        [sys.executable, "-m", "twogroups.cli", "cover", "C2x10", "--catalog", str(path)],
        env=env, capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 1
    assert "bound is n + log2 |H_2(G)| <= 48 cover generators, got 55" in proc.stderr


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
