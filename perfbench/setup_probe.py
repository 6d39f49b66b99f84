"""Set-up probe: one fresh process per sample of ``setup_s``.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints ``ready`` once a pass could start; the parent times the process
from spawn to that line.
"""

import sys

from workloads import pin_environment, prepare, use_source_tree


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    pin_environment()
    use_source_tree()
    prepare(name, seed)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
