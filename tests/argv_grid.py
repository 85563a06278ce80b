"""Pin ``phasebit.cli``'s own command-line scanner to argparse over a grid of short argvs.

Wherever :func:`phasebit.cli._scan` reads an argv, argparse must read the
same: ``_build_parser().parse_args`` succeeds and gives every ``KEYS`` name
and ``config`` the scanner's value.  The grid is every argv of up to
``max_tokens`` tokens from :data:`ALPHABET`.  The script needs neither
pytest nor numpy, so it checks argparse's own behaviour on any Python the
package supports:

    PYTHONPATH=src python tests/argv_grid.py [max_tokens]

It prints the Python version and the counts, and exits 1 on a disagreement.
"""

import contextlib
import io
import itertools
import sys

from phasebit import cli
from phasebit.config import KEYS

# two commands, value flags alone and with '=value', the switch, values that do and do
# not start with '-', and tokens only argparse reads: '--', help, an abbreviation, an
# unknown flag
ALPHABET = (
    "chsh", "curve",
    "--seed", "--trials", "--config", "--independent-trials",
    "--seed=1", "--independent-trials=x",
    "1", "", "-", "-1", "pi/4",
    "--", "-h", "--tri", "--nope",
)


def argparse_options(argv):
    """argparse's value for every ``KEYS`` name and ``config``; None if it exits.

    ``cli.main``'s own check, a command or a config file, is applied too.
    argparse's output, a usage error or help, is captured.
    """
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
        try:
            args = cli._build_parser().parse_args(argv)
        except SystemExit:
            return None
    if args.command is None and not args.config:
        return None
    return {name: getattr(args, name) for name in ("config", *KEYS)}


def disagreement(argv):
    """None where the scanner declines ``argv`` or agrees with argparse; else both readings."""
    ours = cli._scan(argv)
    if ours is None:
        return None
    ours = {name: ours.get(name) for name in ("config", *KEYS)}
    theirs = argparse_options(argv)
    return None if ours == theirs else (ours, theirs)


def grid(max_tokens):
    for length in range(max_tokens + 1):
        yield from (list(argv) for argv in itertools.product(ALPHABET, repeat=length))


def check(max_tokens):
    """(argvs tried, argvs the scanner read, [(argv, scanner's, argparse's) that differ])."""
    tried = read = 0
    failures = []
    for argv in grid(max_tokens):
        tried += 1
        if cli._scan(argv) is None:
            continue
        read += 1
        found = disagreement(argv)
        if found is not None:
            failures.append((argv, *found))
    return tried, read, failures


def main(max_tokens=4):
    tried, read, failures = check(max_tokens)
    print(f"Python {sys.version.split()[0]}: {tried} argvs of up to {max_tokens} tokens, "
          f"{read} read by the scanner, {len(failures)} disagreeing with argparse")
    for argv, ours, theirs in failures[:10]:
        print(f"  {argv}: scanner {ours}, argparse {theirs}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
