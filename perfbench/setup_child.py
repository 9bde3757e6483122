"""One cold set-up, run in a fresh interpreter: import twogroups, parse and
validate the catalog, build the workload's groups.  Prints the normalised
seconds it took.

    python3 perfbench/setup_child.py <workload> <seed>

The benchmark's own modules are imported between the two timed parts:
before the program, they would load standard modules the program needs
and hide their cost; inside the timing, they would add theirs.
"""

import os
import sys

from refclock import Clock


def load_catalog() -> None:
    import twogroups.catalog

    twogroups.catalog.shipped_catalog()


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))
    clock = Clock()
    _r, _raw, catalog_s = clock.time(load_catalog)
    import groups
    import workloads

    groups.import_program()
    _r, _raw, build_s = clock.time(workloads.build_inputs, workload, seed)
    print(catalog_s + build_s)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
