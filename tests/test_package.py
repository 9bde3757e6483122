"""The package's public names."""

import twogroups


def test_every_exported_name_resolves():
    missing = [name for name in twogroups.__all__ if not hasattr(twogroups, name)]
    assert missing == []
    assert len(set(twogroups.__all__)) == len(twogroups.__all__)
