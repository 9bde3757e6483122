"""Conjugacy classes as records (rep, size, centralizer order, is_real),
against the walk that listed every class, kept in conftest as
`listing_walk`.

The fast walk builds the records coset by coset of the center and lists a
class's members only when `elements` is read; the generic walk keeps each
orbit's members and takes its `lexkey`-least one as the rep.  Both must
give the classes of the listing walk, in its order.  `fingerprint`,
`thm42_check` and the selftest class equation read only the record
fields, so on the fast path no member is listed for them.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from conftest import RKM_LARGER, GenericView, listing_walk, rkm
from twogroups import acceptance
from twogroups.catalog import fingerprint, parse_catalog
from twogroups.ktheory import central_extension, thm42_check
from twogroups.pcgroup import ConjugacyClass, conjugacy_classes

COVERS_CAT = Path(__file__).parents[1] / "perfbench" / "covers.cat"
THM42_GOLDEN = Path(__file__).parent / "thm42_golden.json"


@pytest.fixture(scope="module")
def record_family(small_family):
    """small_family, R(6,4) and R(5,5), the generic copies of their fast
    groups, and the four frozen class-3 covers of the benchmark."""
    groups = list(small_family) + [rkm(*a) for a in RKM_LARGER]
    groups += [GenericView(g) for g in groups if g.is_fast]
    covers = parse_catalog(COVERS_CAT.read_text())
    assert len(covers) == 4 and not any(g.is_fast for g in covers)
    return groups + covers


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
