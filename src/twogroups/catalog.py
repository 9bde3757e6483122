"""Catalog of pc-presented 2-groups: parsing, serialization, fingerprints."""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Dict, List, Optional, Tuple

from .linalg import iter_bits
from .pcgroup import (
    PcError,
    PcGroup,
    QuotientGroup,
    abelian_invariants_by_order_profile,
    conjugacy_classes,
    derived_subgroup,
)


class CatalogError(ValueError):
    """Syntax or validity error in a catalog file, with a line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Elements are enumerated as range(2^n), and the class-<=2 conjugacy walk
# allocates bytearray(2^n), 4 GiB at n = 32; larger ngens is rejected before
# the n x n commutator table is allocated.
MAX_NGENS = 32

_GROUP_RE = re.compile(r"^group\s+(\S+)$")
_NGENS_RE = re.compile(r"^ngens\s+(\d+)$")
_POW_RE = re.compile(r"^pow\s+(\d+)\s*=\s*(.*)$")
_COMM_RE = re.compile(r"^comm\s+(\d+)\s+(\d+)\s*=\s*(.*)$")


def _parse_word(text: str, n: int, floor: int, line: int) -> int:
    """Word as a bitmask; indices must be distinct, ascending, > floor."""
    mask = 0
    prev = floor
    for tok in text.split():
        if not tok.isdigit():
            raise CatalogError(line, f"bad generator index {tok!r}")
        idx = int(tok)
        if idx <= floor:
            raise CatalogError(
                line, f"generator {idx} violates pc ordering (must be > {floor})"
            )
        if idx <= prev and prev != floor:
            raise CatalogError(line, "word indices must be strictly ascending")
        if idx > n:
            raise CatalogError(line, f"generator {idx} out of range 1..{n}")
        prev = idx
        mask |= 1 << (idx - 1)
    return mask


def parse_catalog(text: str) -> List[PcGroup]:
    """Parse and validate a catalog; each entry passes pc consistency."""
    groups: List[PcGroup] = []
    names = set()
    name: Optional[str] = None
    n = -1
    powers: List[int] = []
    comms: List[List[int]] = []
    start = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if name is None:
            m = _GROUP_RE.match(line)
            if not m:
                raise CatalogError(lineno, f"expected 'group <name>', got {line!r}")
            name = m.group(1)
            if name in names:
                raise CatalogError(lineno, f"duplicate group name {name!r}")
            names.add(name)
            n = -1
            start = lineno
            continue
        if n < 0:
            m = _NGENS_RE.match(line)
            if not m:
                raise CatalogError(lineno, "expected 'ngens <n>' after group header")
            n = int(m.group(1))
            if n > MAX_NGENS:
                raise CatalogError(lineno, f"ngens {n} exceeds the limit of {MAX_NGENS}")
            powers = [0] * n
            comms = [[0] * n for _ in range(n)]
            continue
        if line == "end":
            try:
                groups.append(PcGroup(name, n, powers, comms, validate=True))
            except PcError as exc:
                raise CatalogError(start, f"{name}: {exc}") from exc
            name = None
            continue
        m = _POW_RE.match(line)
        if m:
            i = int(m.group(1))
            if not 1 <= i <= n:
                raise CatalogError(lineno, f"pow index {i} out of range")
            powers[i - 1] = _parse_word(m.group(2), n, i, lineno)
            continue
        m = _COMM_RE.match(line)
        if m:
            i, j = int(m.group(1)), int(m.group(2))
            if not (1 <= i < j <= n):
                raise CatalogError(lineno, f"comm indices ({i},{j}) must satisfy i < j <= n")
            comms[i - 1][j - 1] = _parse_word(m.group(3), n, j, lineno)
            continue
        raise CatalogError(lineno, f"unrecognized line {line!r}")
    if name is not None:
        raise CatalogError(start, f"group {name!r} not terminated by 'end'")
    return groups


def serialize(group: PcGroup) -> str:
    lines = [f"group {group.name}", f"ngens {group.n}"]
    for i in range(group.n):
        if group.powers[i]:
            word = " ".join(str(b + 1) for b in iter_bits(group.powers[i]))
            lines.append(f"pow {i + 1} = {word}")
    for i in range(group.n):
        for j in range(i + 1, group.n):
            if group.comms[i][j]:
                word = " ".join(str(b + 1) for b in iter_bits(group.comms[i][j]))
                lines.append(f"comm {i + 1} {j + 1} = {word}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def serialize_catalog(groups: List[PcGroup]) -> str:
    return "\n".join(serialize(g) for g in groups)


def input_digest(group: PcGroup) -> str:
    return hashlib.sha256(serialize(group).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism-invariant profile; rich enough to separate shipped groups.

    The element-order profile is included because class sizes, center,
    derived, exponent and conjugate-to-inverse counts coincide for D8/Q8.
    """

    order: int
    abelian_invariants: Tuple[int, ...]
    center_order: int
    derived_order: int
    exponent: int
    class_sizes: Tuple[int, ...]
    conj_to_inverse_count: int
    order_profile: Tuple[Tuple[int, int], ...]  # (element order, count)

    def as_dict(self) -> Dict:
        return {
            "order": self.order,
            "abelian_invariants": list(self.abelian_invariants),
            "center_order": self.center_order,
            "derived_order": self.derived_order,
            "exponent": self.exponent,
            "class_sizes": list(self.class_sizes),
            "conj_to_inverse_count": self.conj_to_inverse_count,
            "order_profile": [list(p) for p in self.order_profile],
        }


def fingerprint(group) -> Fingerprint:
    der = derived_subgroup(group)
    ab = QuotientGroup(group, der)
    invariants = abelian_invariants_by_order_profile(ab.elements(), ab.element_order)
    classes = conjugacy_classes(group)
    orders: Dict[int, int] = {}
    exponent = 1
    for g in group.elements():
        o = group.element_order(g)
        orders[o] = orders.get(o, 0) + 1
        exponent = max(exponent, o)
    conj_inv = 0
    for cls in classes:
        rep_inv_class = group.inv(cls.rep) in cls.elements
        if rep_inv_class:
            conj_inv += len(cls.elements)
    return Fingerprint(
        order=group.order,
        abelian_invariants=invariants,
        center_order=sum(1 for c in classes if len(c.elements) == 1),
        derived_order=der.order,
        exponent=exponent,
        class_sizes=tuple(sorted(len(c.elements) for c in classes)),
        conj_to_inverse_count=conj_inv,
        order_profile=tuple(sorted(orders.items())),
    )


def shipped_catalog_text() -> str:
    return resources.files("twogroups").joinpath("data/groups.cat").read_text()


@lru_cache(maxsize=1)
def shipped_catalog() -> Dict[str, PcGroup]:
    return {g.name: g for g in parse_catalog(shipped_catalog_text())}


def shipped_group(name: str) -> PcGroup:
    cat = shipped_catalog()
    if name not in cat:
        raise KeyError(f"unknown group {name!r}; shipped: {', '.join(sorted(cat))}")
    return cat[name]
