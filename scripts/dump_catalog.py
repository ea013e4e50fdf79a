#!/usr/bin/env python3
"""Print the form catalog: name, level, recipe, CM discriminant, curve
coefficients; optionally the q-expansions themselves."""

import argparse
import os
import sys

from qmod.cli import _prec_ceiling
from qmod.eta import catalog_manifest
from qmod.verify import DEFAULT_CACHE


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prec", type=int, default=None,
                    help="also print each form's expansion to this precision")
    args = ap.parse_args()

    lines = catalog_manifest().splitlines()
    series = {}
    if args.prec is not None:
        # the ceiling qmod expand obeys, then every expansion, before the
        # first line, so a bad --prec prints nothing but its error
        try:
            ceiling = _prec_ceiling()
            if args.prec > ceiling:
                raise ValueError(f"--prec {args.prec} is above the precision "
                                 f"ceiling {ceiling}")
            for line in lines:
                name = line.split()[0]
                series[name] = DEFAULT_CACHE.series(name, args.prec)
        except ValueError as e:
            ap.error(str(e))
    for line in lines:
        print(line)
        if series:
            print("   ", series[line.split()[0]])
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`); quiet the flush at exit too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
