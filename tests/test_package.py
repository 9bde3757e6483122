"""The package's public names, and what importing it loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twogroups

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = ["f2poly", "homology", "ktheory", "lhs", "ooze", "acceptance", "oracles"]


def test_every_exported_name_resolves():
    missing = [name for name in twogroups.__all__ if not hasattr(twogroups, name)]
    assert missing == []
    assert len(set(twogroups.__all__)) == len(twogroups.__all__)


def test_exported_names_are_the_defining_modules_objects():
    for name in twogroups.__all__:
        if name == "__version__":
            continue
        obj = getattr(twogroups, name)
        defining = importlib.import_module(obj.__module__)
        assert getattr(defining, name) is obj, name


def test_star_import_and_dir():
    namespace = {}
    exec("from twogroups import *", namespace)
    assert all(namespace[name] is getattr(twogroups, name) for name in twogroups.__all__)
    assert set(twogroups.__all__) <= set(dir(twogroups))


def test_submodule_import_and_unknown_name():
    from twogroups import cli

    assert cli.__name__ == "twogroups.cli"
    with pytest.raises(AttributeError, match="nope"):
        twogroups.nope


# Each case runs in a fresh interpreter and prints the twogroups modules it
# ended with loaded.
FOOTPRINT = {
    "import": "import twogroups",
    "catalog": "import twogroups.catalog; twogroups.catalog.shipped_catalog()",
    "info": "from twogroups import cli; cli.main(['info', 'C2', '--json'])",
    "lambda4": "from twogroups import cli; cli.main(['lambda4', 'C2', '--json'])",
}


def loaded_layers(case):
    code = FOOTPRINT[case] + (
        "\nimport sys\nprint(' '.join(m.removeprefix('twogroups.') for m in sys.modules"
        " if m.startswith('twogroups.')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [str(SRC), os.environ.get("PYTHONPATH")] if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("case", ["import", "catalog", "info"])
def test_catalog_path_loads_no_other_layer(case):
    assert loaded_layers(case).isdisjoint(LAYERS)


def test_subcommand_loads_its_layer():
    assert "ooze" in loaded_layers("lambda4")
