"""Command-line entry point wiring every subsystem.

Exit codes: 0 success, 1 domain error (degenerate equation, inapplicable
rule), 2 usage or schema error, 3 empty input, 4 internal error (an
exception none of the others covers: a bug in malgebra).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import __version__
from .datasets import (
    DatasetConfig,
    config_from_dict,
    generate,
    type_graph,
    verify_dataset,
)
from .equations import parse_equation, parse_number
from .errors import EmptyBatchError, EngineError, SchemaError, decode_json_object, read_input
from .evaluation import diagnose_all, load_transcripts, score
from .misconceptions import CATALOG, reduce_with_misconceptions
from .reduction import ReductionTrace
from .solution_space import enumerate_tree, to_dot, to_json_dict
from .taxonomy import ORDERED_TYPES, classify


# Unicode categories Cc (control), Zl and Zp (line and paragraph separators)
_BREAKS = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")


def _one_line(message: str) -> str:
    """``message`` with every control character and line or paragraph
    separator escaped as ``repr`` writes it, so it prints as one line."""
    return _BREAKS.sub(lambda c: repr(c[0])[1:-1], message)


def _threshold(text: str) -> Fraction:
    """argparse type for a percentage threshold such as ``90`` or ``87.5``."""
    try:
        return parse_number(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _cap(text: str) -> int:
    """argparse type for ``--cap``: a whole number of misconception steps."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``SchemaError``: one line, exit 2.  Subparsers are
    of this class too, ``add_subparsers``' default ``parser_class``."""

    def error(self, message: str):
        raise SchemaError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="malgebra",
        description="Misconception-aware solver, dataset generator and grader "
        "for one-variable linear equations.",
    )
    parser.add_argument("--version", action="version", version=f"malgebra {__version__}")
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="print the resolved configuration"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print the problem type of an equation")
    p.add_argument("equation")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("solve", help="reduce an equation correctly and print the answer")
    p.add_argument("equation")
    p.add_argument("--trace", action="store_true", help="print one line per step")
    p.set_defaults(handler=_cmd_malsolve)

    p = sub.add_parser("malsolve", help="solve while applying misconceptions")
    p.add_argument("equation")
    p.add_argument(
        "--misconceptions",
        required=True,
        help="comma-separated misconception ids, e.g. M2_S3,M19",
    )
    p.add_argument("--trace", action="store_true", help="print one line per step")
    p.set_defaults(handler=_cmd_malsolve)

    p = sub.add_parser("tree", help="enumerate the full solution space of an instance")
    p.add_argument("equation")
    p.add_argument("--misconceptions", default="", help="comma-separated misconception ids")
    p.add_argument("--cap", type=_cap, default=1, help="max misconception steps per path")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(handler=_cmd_tree)

    p = sub.add_parser("catalog", help="print the misconception rule table")
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("gen", help="generate a seeded dataset")
    p.add_argument("--config", help="JSON file with dataset configuration")
    p.add_argument("--n-m", type=int, dest="n_m", help="misconception examples")
    p.add_argument("--ratio", type=float, help="correct-to-misconception ratio")
    p.add_argument("--misconception", help="misconception id to train")
    p.add_argument("--seed", type=int, help="generation seed")
    p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
    p.add_argument("--n-correct-per-type", type=int, dest="n_correct_per_type")
    p.add_argument("--test-per-type", type=int, dest="test_per_type")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("verify", help="replay every record of a dataset file")
    p.add_argument("dataset", help="JSON-lines dataset file")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("score", help="score a transcript batch against the oracles")
    p.add_argument("transcripts", help="JSON-lines transcript file")
    p.add_argument("--misconception", required=True, help="misconception id")
    p.add_argument("--mode", choices=("answer", "steps"), default="answer")
    p.add_argument("--theta-m", type=_threshold, default="90",
                   help="MA threshold (default 90)")
    p.add_argument("--theta-c", type=_threshold, default="90",
                   help="CA_NA threshold (default 90)")
    p.add_argument("--report", choices=("json", "text"), default="text")
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("diagnose", help="explain erroneous transcripts by misconception")
    p.add_argument("transcripts", help="JSON-lines transcript file")
    p.set_defaults(handler=_cmd_diagnose)

    p = sub.add_parser("dump-graph", help="emit the type graph as JSON records")
    p.set_defaults(handler=_cmd_dump_graph)

    return parser


def _trace_lines(trace: ReductionTrace) -> list[str]:
    steps = trace.steps
    return [f"{s.label} | {s.line} | {nxt.via.rule_id}" for s, nxt in zip(steps, steps[1:])]


def _print_trace_result(trace: ReductionTrace, show_trace: bool) -> None:
    if show_trace:
        for line in _trace_lines(trace):
            print(line)
    last = trace.steps[-1]
    if trace.dead_end is not None:
        print(f"{last.line}  [dead end: {trace.dead_end}]")
    else:
        print(last.line)


def _cmd_classify(args) -> int:
    print(classify(parse_equation(args.equation)).name)
    return 0


def _cmd_malsolve(args) -> int:
    """``malsolve``, and ``solve`` as ``malsolve`` with no rules."""
    ids = [s for s in getattr(args, "misconceptions", "").split(",") if s]
    trace = reduce_with_misconceptions(parse_equation(args.equation), ids)
    _print_trace_result(trace, args.trace)
    return 0


def _cmd_tree(args) -> int:
    ids = [s for s in args.misconceptions.split(",") if s]
    tree = enumerate_tree(parse_equation(args.equation), ids, args.cap)
    if args.format == "dot":
        print(to_dot(tree))
    else:
        print(json.dumps(to_json_dict(tree), indent=2))
    return 0


def _cmd_catalog(args) -> int:
    all_types = frozenset(ORDERED_TYPES)
    rows = []
    for m in CATALOG:
        if m.applicable_types == all_types:
            types = "All Types"
        else:
            types = ", ".join(t.name for t in ORDERED_TYPES if t in m.applicable_types)
        rows.append((m.id, m.expression, types, m.description))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    for r in rows:
        print(f"{r[0]:<{widths[0]}}  {r[1]:<{widths[1]}}  {r[2]:<{widths[2]}}  {r[3]}")
    return 0


def _cmd_gen(args) -> int:
    base = {}
    if args.config:
        text = read_input(args.config, "config")
        try:
            base = decode_json_object(text)
        except SchemaError as exc:
            raise SchemaError(f"cannot read config {args.config}: {exc}") from None
    # a gen option whose dest names a config field overrides that field
    fields = DatasetConfig.__dataclass_fields__
    base.update((k, v) for k, v in vars(args).items() if k in fields and v is not None)
    config = config_from_dict(base)
    if args.verbose:
        print(f"resolved config: {config}", file=sys.stderr)
    manifest = generate(config)
    counts = manifest["counts"]
    print(
        f"wrote {counts['train']['total']} train "
        f"({counts['train']['misconception']} misconception, "
        f"{counts['train']['correct']} correct) and "
        f"{counts['test']['total']} test records to {config.out_dir}"
    )
    return 0


def _cmd_verify(args) -> int:
    report = verify_dataset(args.dataset)
    if report.total == 0:
        raise EmptyBatchError("no records found")
    for lineno, msg in report.failures:
        print(_one_line(f"line {lineno}: {msg}"), file=sys.stderr)
    print(f"{report.passed}/{report.total} records replay cleanly")
    return 0 if report.ok else 1


def _cmd_score(args) -> int:
    transcripts = load_transcripts(args.transcripts)
    report = score(
        transcripts,
        args.misconception,
        mode=args.mode,
        theta_m=args.theta_m,
        theta_c=args.theta_c,
    )
    if args.report == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    return 0


def _cmd_diagnose(args) -> int:
    transcripts = load_transcripts(args.transcripts)
    results = [
        {
            "index": i,
            "equation": tr.equation,
            "diagnosis": [
                {"misconceptions": list(d.misconceptions), "quality": d.quality}
                for d in entries
            ],
        }
        for i, (tr, entries) in enumerate(zip(transcripts, diagnose_all(transcripts)))
    ]
    print(json.dumps(results, indent=2))
    return 0


def _cmd_dump_graph(args) -> int:
    print(json.dumps(type_graph(), indent=2))
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.verbose and args.command != "gen":
            shown = {k: v for k, v in vars(args).items() if k != "handler"}
            print(f"resolved config: {shown}", file=sys.stderr)
        return args.handler(args)
    except EmptyBatchError as exc:
        print(_one_line(f"error: {exc}"), file=sys.stderr)
        return 3
    except SchemaError as exc:
        print(_one_line(f"error: {exc}"), file=sys.stderr)
        return 2
    except EngineError as exc:
        print(_one_line(f"error: {exc}"), file=sys.stderr)
        return 1
    except Exception as exc:  # a bug, not bad input; --help's SystemExit still passes
        print(_one_line(f"error: internal error: {type(exc).__name__}: {exc}"), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
