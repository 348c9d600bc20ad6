"""Command-line surface: formula, canonical, solve, construct, merge, verify.

Exit codes: 0 success or campaign pass, 1 usage or input error, 2 a
counterexample or construction defect was found, 3 a size guard was hit.
A failed self-check of `solve`, `construct`, `canonical --partition` or
`verify` is a defect too: exit 2, with `defect:` and the message on
stderr, followed there by the offending coloring as a file body.
Every run echoes the options it was given as a `#`-prefixed line, which is
a legal comment in the coloring file format.  An option left out is not
echoed: `solve --max-n` then takes `solve`'s own size guard, `verify` the
campaign's own default, and the report's `param` lines carry the values
used.
"""

from __future__ import annotations

import argparse
import sys

from .canonical import extremal_partition, generate_canonical
from .coloring import (
    _write_lines,
    merge_colors,
    read_coloring,
    require_valid,
    validate,
    write_coloring,
    write_partition,
)
from .constructive import partition_complete
from .errors import ConstructionDefect, SizeGuardError
from .formula import f_of_r, partition_number
from .solver import solve
from .verify import (
    campaign_constructive,
    campaign_cutedge,
    campaign_monotonicity,
    campaign_worstcase,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_GUARD = 3


class _UsageError(Exception):
    pass


# each campaign and the verify options it takes, as {option: parameter};
# an option given to a campaign that does not take it is a usage error
_CAMPAIGNS = {
    "worstcase": (campaign_worstcase,
                  {"max_n": "max_n", "samples": "samples_per_cell", "seed": "seed"}),
    "monotonicity": (campaign_monotonicity, {"samples": "trials", "seed": "seed"}),
    "cutedge": (campaign_cutedge, {"max_n": "max_n"}),
    "constructive": (campaign_constructive,
                     {"max_n": "max_n", "samples": "samples", "seed": "seed"}),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="rainbowtrees", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("formula", help="print the threshold t and ceil((n-t)/2)")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)

    p = sub.add_parser("canonical", help="generate the extremal coloring of K_n")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("-o", "--output", help="coloring file (default: stdout)")
    p.add_argument("--partition", help="also write the optimal partition here")
    p.add_argument("--fill", type=int, default=None, help="override the step-3 fill color")

    p = sub.add_parser("solve", help="exact minimum rainbow tree partition of a coloring file")
    p.add_argument("file")
    p.add_argument("--partition", help="write one optimal partition here")
    p.add_argument("--max-n", type=int, help="solver size guard (default: solve's own)")

    p = sub.add_parser("construct", help="run the polynomial constructive partition")
    p.add_argument("file")
    p.add_argument("--partition", help="write the constructed partition here")

    p = sub.add_parser("merge", help="merge color FROM into color TO and renumber")
    p.add_argument("file")
    p.add_argument("src", type=int, metavar="from")
    p.add_argument("dst", type=int, metavar="to")
    p.add_argument("-o", "--output", help="output coloring file (default: stdout)")

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("campaign", choices=list(_CAMPAIGNS))
    p.add_argument("--max-n", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--report", help="write the full report to this file")
    p.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def _echo_config(args: argparse.Namespace) -> None:
    fields = " ".join(
        f"{k}={v}" for k, v in sorted(vars(args).items()) if k != "command" and v is not None
    )
    print(f"# config {args.command} {fields}".rstrip())


def _load(path: str):
    c = read_coloring(path)
    require_valid(validate(c), path)
    return c


def _cmd_formula(args) -> int:
    value = partition_number(args.n, args.r)
    t = f_of_r(args.r) if args.r >= 2 else 0
    print(f"t={t} value={value}")
    return EXIT_OK


def _cmd_canonical(args) -> int:
    c, layout = generate_canonical(args.n, args.r, fill_color=args.fill)
    print(f"# t={layout.t} trees={partition_number(args.n, args.r)}")
    if args.output:
        write_coloring(c, args.output)
    else:
        _write_lines(c, sys.stdout)
    if args.partition:
        write_partition(extremal_partition(c, layout), args.partition)
    return EXIT_OK


def _cmd_solve(args) -> int:
    c = _load(args.file)
    result = solve(c, **({} if args.max_n is None else {"max_n": args.max_n}))
    print(f"count={result.count}")
    if args.partition:
        write_partition(result.partition, args.partition)
    return EXIT_OK


def _cmd_construct(args) -> int:
    c = _load(args.file)
    partition = partition_complete(c)
    print(f"count={partition.count} bound={partition_number(c.n, c.r)}")
    if args.partition:
        write_partition(partition, args.partition)
    return EXIT_OK


def _cmd_merge(args) -> int:
    c = _load(args.file)
    merged = merge_colors(c, args.src, args.dst)
    if args.output:
        write_coloring(merged, args.output)
    else:
        _write_lines(merged, sys.stdout)
    return EXIT_OK


def _cmd_verify(args) -> int:
    campaign, options = _CAMPAIGNS[args.campaign]
    report = campaign(**{param: getattr(args, option) for option, param in options.items()
                         if getattr(args, option) is not None})
    body = report.to_json() if args.format == "json" else report.to_text()
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(body)
        print(f"# report written to {args.report}")
        print(f"result {'PASS' if report.passed else 'FAIL'}")
    else:
        sys.stdout.write(body)
    return EXIT_OK if report.passed else EXIT_COUNTEREXAMPLE


_COMMANDS = {
    "formula": _cmd_formula,
    "canonical": _cmd_canonical,
    "solve": _cmd_solve,
    "construct": _cmd_construct,
    "merge": _cmd_merge,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            taken = _CAMPAIGNS[args.campaign][1]
            for option in ("max_n", "samples", "seed"):
                if getattr(args, option) is not None and option not in taken:
                    flag = "--" + option.replace("_", "-")
                    parser.error(f"campaign {args.campaign} does not take {flag}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _echo_config(args)
    try:
        return _COMMANDS[args.command](args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ConstructionDefect as exc:
        print(f"defect: {exc}", file=sys.stderr)
        if exc.instance_text:
            sys.stderr.write(exc.instance_text)
        return EXIT_COUNTEREXAMPLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
