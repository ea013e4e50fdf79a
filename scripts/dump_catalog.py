#!/usr/bin/env python3
"""Print the form catalog: name, level, recipe, CM discriminant, curve
coefficients; optionally the q-expansions themselves."""

import argparse
import os
import sys

from qmod.eta import catalog_form, catalog_manifest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prec", type=int, default=None,
                    help="also print each form's expansion to this precision")
    args = ap.parse_args()

    for line in catalog_manifest().splitlines():
        print(line)
        if args.prec is not None:
            name = line.split()[0]
            f = catalog_form(name, args.prec)
            print("   ", f)
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
