"""``python -m repro.experiments ...`` runs ``python -m repro experiments ...``.

Usage::

    python -m repro.experiments                 # every figure, quick scale
    python -m repro.experiments fig10 --scale full
    python -m repro.experiments table1 fig3 fig13
    python -m repro.experiments --workers 4     # figures across 4 processes
"""

import sys

from repro import cli


def main(argv=None) -> int:
    return cli.main(["experiments", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
