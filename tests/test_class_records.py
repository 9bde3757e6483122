"""Conjugacy classes as records (rep, size, centralizer order, is_real),
against the walk that listed every class, kept in conftest as
`listing_walk`.

The fast walk builds the records coset by coset of the center; the generic
walk lifts the classes of G/K through the central tail K
(`pcgroup._lifted_classes`).  Both list a class's members only when
`elements` is read, and both must give the classes of the listing walk, in
its order.  `fingerprint`, `thm42_check`, the `conj62` counts and the
selftest class equation read only the record fields, so no member is
listed for them on either path.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from conftest import RKM_LARGER, GenericView, listing_walk, rkm
from twogroups import acceptance, pcgroup
from twogroups.catalog import fingerprint, parse_catalog
from twogroups.homology import schur_cover
from twogroups.ktheory import central_extension, thm42_check
from twogroups.ooze import conjecture62_scan
from twogroups.pcgroup import ConjugacyClass, Subgroup, conjugacy_classes

COVERS_CAT = Path(__file__).parents[1] / "perfbench" / "covers.cat"
THM42_GOLDEN = Path(__file__).parent / "thm42_golden.json"


@pytest.fixture(scope="module")
def record_family(cat, small_family):
    """small_family (with the cover of the cover of D8), R(6,4) and R(5,5),
    the generic copies of their fast groups, the four frozen class-3 covers
    of the benchmark and the 2^14 cover of SG256_8129."""
    groups = list(small_family) + [rkm(*a) for a in RKM_LARGER]
    groups += [GenericView(g) for g in groups if g.is_fast]
    covers = parse_catalog(COVERS_CAT.read_text())
    assert len(covers) == 4 and not any(g.is_fast for g in covers)
    big = schur_cover(cat["SG256_8129"]).cover
    assert big.order == 1 << 14 and not big.is_fast
    return groups + covers + [big]


def test_records_match_the_listing_walk(record_family):
    for g in record_family:
        classes = conjugacy_classes(g)
        oracle = listing_walk(g)
        assert [c.rep for c in classes] == [rep for rep, _m, _c in oracle], g.name
        for cls, (rep, members, centralizer_order) in zip(classes, oracle):
            assert cls.size == len(members), (g.name, rep)
            assert cls.centralizer_order == centralizer_order, (g.name, rep)
            assert cls.is_real == (g.inv(rep) in members), (g.name, rep)
            assert cls.elements == members, (g.name, rep)


def test_lift_recurses_through_generic_quotients(record_family, monkeypatch):
    # the cover of the cover of D8 and Cover_R3_3_s303 (a powered tail, cut
    # below x9^2 = x10) have a generic G/K, so the lift runs on it first
    lifted = pcgroup._lifted_classes
    calls = []

    def spy(group, deep=False):
        calls.append((group.name, deep))
        return lifted(group, deep)

    monkeypatch.setattr(pcgroup, "_lifted_classes", spy)
    by_name = {g.name: g for g in record_family}
    for name in ["Cover(Cover(D8))", "Cover_R3_3_s303"]:
        calls.clear()
        conjugacy_classes(by_name[name])
        assert calls[0] == (name, False) and (f"{name}/K", True) in calls, calls


def test_deep_lift_gives_witnesses_and_centralizers(record_family):
    # with deep, each class also carries h with h^-1 rep h = rep^-1 exactly
    # when the class is real, and an induced sequence of C_G(rep)
    generic = [g for g in record_family if not g.is_fast and g.order <= 1 << 10]
    assert len(generic) >= 20
    for g in generic:
        lifted = pcgroup._lifted_classes(g, deep=True)
        reals = {c.rep: c.is_real for c in conjugacy_classes(g)}
        assert sorted(rep for rep, *_ in lifted) == sorted(reals), g.name
        for rep, size, h, cent in lifted:
            assert (h is not None) == reals[rep], (g.name, rep)
            assert h is None or g.conj(rep, h) == g.inv(rep), (g.name, rep)
            leads = [c & -c for c in cent]
            assert leads == sorted(set(leads)) and 0 not in cent, (g.name, rep)
            sub = Subgroup(g, cent, cent)
            commuting = {x for x in g.elements() if g.conj(rep, x) == rep}
            assert sub.elements == commuting and sub.order * size == g.order, (g.name, rep)


def test_records_survive_replace_and_list_lazily(cat):
    g = cat["SG128_1376"]
    cls = conjugacy_classes(g)[-1]
    assert "elements" not in vars(cls)
    bent = dataclasses.replace(cls, centralizer_order=2 * cls.centralizer_order)
    assert bent.elements == cls.elements and len(bent.elements) == cls.size
    assert bent != cls
    assert dataclasses.replace(bent, centralizer_order=cls.centralizer_order) == cls


def _refuse_listing(monkeypatch):
    def refuse(self):
        raise AssertionError(f"members of the class of {self.rep} listed")

    monkeypatch.setattr(ConjugacyClass, "elements", property(refuse))


def test_fast_consumers_read_no_members(cat, monkeypatch):
    fast = [g for g in cat.values() if g.is_fast]
    assert {"G16384", "SG256_9039", "SG128_1376"} <= {g.name for g in fast}
    want = {g.name: fingerprint(g) for g in fast}
    golden = json.loads(THM42_GOLDEN.read_text())
    cases = [(name, sigma, holds) for name, rows in golden.items() if cat[name].is_fast
             for sigma, holds, _counterexample in rows]
    assert len(cases) >= 20
    _refuse_listing(monkeypatch)
    with pytest.raises(AssertionError, match="listed"):
        conjugacy_classes(cat["D8"])[0].elements
    for g in fast:
        assert fingerprint(g) == want[g.name], g.name
    for name, sigma, holds in cases:
        assert thm42_check(central_extension(cat[name], sigma)).holds == holds, (name, sigma)
    ok, detail = acceptance.prop_class_equation()
    assert ok, detail


def test_generic_consumers_read_no_members(cat, record_family, monkeypatch):
    # C8, the frozen covers and the GenericView copies: fingerprint, the
    # conj62 counts and the selftest class equation (whose C8 is generic)
    # read the lifted records only
    generic = [cat["C8"]] + [g for g in record_family
                             if isinstance(g, GenericView) or g.name.startswith("Cover_")]
    assert sum(g.name.startswith("Cover_") for g in generic) == 4 and len(generic) >= 15
    want = {id(g): fingerprint(g) for g in generic}
    for g in generic:
        if isinstance(g, GenericView):
            assert want[id(g)] == fingerprint(g._group), g.name
    scans = {id(g): [s.class_count for s in conjecture62_scan(g)] for g in generic}
    assert any(scans.values())
    _refuse_listing(monkeypatch)
    with pytest.raises(AssertionError, match="listed"):
        conjugacy_classes(cat["C8"])[0].elements
    for g in generic:
        assert fingerprint(g) == want[id(g)], g.name
        assert [s.class_count for s in conjecture62_scan(g)] == scans[id(g)], g.name
    ok, detail = acceptance.prop_class_equation()
    assert ok, detail
