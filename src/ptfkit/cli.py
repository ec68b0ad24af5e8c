"""Command-line front end: every analysis as a scriptable subcommand.

Each command prints a human-readable report by default and a stable JSON
report under ``--json`` (byte-identical across runs for identical inputs,
which is why the elapsed-time field only appears in the human form).
Exit codes: 0 on success, 1 on parse errors, 2 on violated preconditions.

Truth tables are given as binary strings (index 0 first) or "0x"-hex;
input vectors are written x_1 first, so ``--at 110`` means x_1=1, x_2=1,
x_3=0.  Threshold realizations are read from files in the text form
emitted by ``analyze`` (one ``monomial: coefficient`` line per weight,
then ``theta:``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import asummability, highorder, multithreshold, ptf
from .core import format_table, parse_table
from .errors import ParseError, PreconditionError
from .ptf import PTF, format_fraction, format_monomial


def _parse_vector(text: str, n: int) -> tuple[int, ...]:
    text = text.strip()
    if not text or any(c not in "01" for c in text):
        raise ParseError(f"invalid input vector {text!r}")
    if len(text) != n:
        raise ParseError(f"vector {text!r} has {len(text)} bits, function has {n} variables")
    return tuple(int(c) for c in text)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, a NUL in the path
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _ptf_json(p: PTF) -> dict:
    return {
        "coeffs": {format_monomial(m): format_fraction(c) for m, c in p.coeffs.items()},
        "theta": format_fraction(p.theta),
    }


def cmd_analyze(args) -> dict:
    f = parse_table(args.table)
    d, witness = ptf.minimal_realization(f)
    return {
        "n": f.n,
        "order": d,
        "is_threshold": d <= 1,
        "witness": _ptf_json(witness),
    }


def cmd_hov(args) -> dict:
    g = parse_table(args.table)
    r, results = highorder.high_order_search(g)
    return {
        "n": g.n,
        "order": r,
        "high_order_vectors": [highorder.hov_to_json(hit) for hit in results],
    }


def cmd_reduce(args) -> dict:
    g = parse_table(args.table)
    Y = _parse_vector(args.at, g.n)
    red = highorder.order_reduce(g, Y)
    return {
        "Y": list(red.Y),
        "f2": format_table(red.f2),
        "f2_witness": _ptf_json(red.f2_witness),
        "f1": format_table(red.f1),
        "f1_witness": _ptf_json(red.f1_witness),
    }


def cmd_extend(args) -> dict:
    f_n = parse_table(args.table)
    p1 = ptf.parse_ptf_text(_read_text(args.f1), n=f_n.n)
    p2 = ptf.parse_ptf_text(_read_text(args.f2), n=f_n.n)
    ext = multithreshold.extend_order(f_n, p1, p2)
    return {
        "f_next": format_table(ext.f_next),
        "g_next": format_table(ext.g_next),
        "f1_next": format_table(ext.f1_next),
        "f2_next": format_table(ext.f2_next),
        "witness": multithreshold.shared_weight_to_json(ext.witness),
    }


def cmd_asummable(args) -> dict:
    f = parse_table(args.table)
    cert = asummability.find_certificate(f, args.m)
    out: dict = {"n": f.n, "m": args.m}
    if cert is None:
        out["asummable_up_to_m"] = True
        out["certificate"] = None
    else:
        out["asummable_up_to_m"] = False
        out["certificate"] = asummability.certificate_to_json(cert)
    return out


def cmd_family(args) -> dict:
    weights, theta = ptf.parse_weight_lines(_read_text(args.weights))
    if theta is not None:
        raise ParseError("weight files for 'family' must not carry a theta line")
    largest = max((m[-1] for m in weights), default=1)
    n = largest if args.n is None else args.n
    if n < largest:
        raise PreconditionError(f"--n {n} is below the largest variable index {largest}")
    try:
        fam = ptf.same_weight_family(weights, n)
    except ValueError as exc:
        raise ParseError(f"invalid weight map in {args.weights}: {exc}") from exc
    return {
        "n": n,
        "levels": [format_fraction(v) for v in fam.levels],
        "members": [
            {"theta": format_fraction(t), "table": format_table(tab)} for t, tab in fam.members
        ],
    }


def cmd_synth_mtf(args) -> dict:
    f = parse_table(args.table)
    rep = multithreshold.synthesize_shared_weight(f, args.k_max, args.weight_bound)
    return {
        "n": f.n,
        "k_max": args.k_max,
        "weight_bound": args.weight_bound,
        "found": rep is not None,
        "rep": multithreshold.shared_weight_to_json(rep) if rep is not None else None,
    }


def cmd_eval(args) -> dict:
    text = _read_text(args.file)
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {args.file}: {exc}") from exc
        if isinstance(data, list) or (isinstance(data, dict) and "members" in data):
            rep = multithreshold.xor_list_from_json(data)
            X = _parse_vector(args.at, rep.n)
            value = multithreshold.eval_xor_list(rep.members, X)
            kind = "xor_list"
        else:
            rep = multithreshold.shared_weight_from_json(data)
            X = _parse_vector(args.at, rep.n)
            value = multithreshold.eval_shared_weight(rep, X)
            kind = "shared_weight"
    else:
        p = ptf.parse_ptf_text(text)
        X = _parse_vector(args.at, p.n)
        value = ptf.evaluate(p, X)
        kind = "ptf"
    return {"kind": kind, "at": list(X), "value": value}


def _echo(args) -> dict:
    echo = {}
    if getattr(args, "table", None) is not None:
        echo["table"] = format_table(parse_table(args.table))
    for name in ("at", "m", "k_max", "weight_bound", "f1", "f2", "weights", "file", "n"):
        value = getattr(args, name, None)
        if value is not None:
            echo[name] = value
    return echo


def _print_human(report: dict) -> None:
    print(f"command: {report['command']}")
    for key, value in report["input_echo"].items():
        print(f"  {key}: {value}")
    print(json.dumps(report["result"], indent=2))
    print(f"elapsed_ms: {report['elapsed_ms']}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptfkit",
        description="Analyze Boolean functions as polynomial threshold functions.",
    )
    # accepted both before and after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a flag given up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit a stable JSON report",
    )
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str):
        return sub.add_parser(name, help=help_text, parents=[common])

    p = add_command("analyze", "minimal order and realization of a truth table")
    p.add_argument("table")
    p.set_defaults(func=cmd_analyze)

    p = add_command("hov", "flip points that change the minimal order")
    p.add_argument("table")
    p.set_defaults(func=cmd_hov)

    p = add_command("reduce", "split at a flip point into threshold parts")
    p.add_argument("table")
    p.add_argument("--at", required=True, help="flip point, x_1 first")
    p.set_defaults(func=cmd_reduce)

    p = add_command("extend", "lift an XOR of two same-weight thresholds by one variable")
    p.add_argument("table")
    p.add_argument("f1", help="first threshold realization file")
    p.add_argument("f2", help="second threshold realization file")
    p.set_defaults(func=cmd_extend)

    p = add_command("asummable", "search for an equal-sum certificate")
    p.add_argument("table")
    p.add_argument("--m", type=int, default=2, help="largest multiset size to try")
    p.set_defaults(func=cmd_asummable)

    p = add_command("family", "threshold sweep of a weight map")
    p.add_argument("weights", help="weight map file")
    p.add_argument("--n", type=int, default=None, help="variable count (default: largest index)")
    p.set_defaults(func=cmd_family)

    p = add_command("synth-mtf", "shared-weight multithreshold synthesis")
    p.add_argument("table")
    p.add_argument("--k-max", type=int, required=True, dest="k_max")
    p.add_argument("--weight-bound", type=int, default=1, dest="weight_bound")
    p.set_defaults(func=cmd_synth_mtf)

    p = add_command("eval", "evaluate a realization file at one input")
    p.add_argument("file", help="threshold text form or multithreshold JSON")
    p.add_argument("--at", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        result = args.func(args)
        report = {
            "command": args.command,
            "input_echo": _echo(args),
            "result": result,
        }
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            report["elapsed_ms"] = int((time.perf_counter() - started) * 1000)
            _print_human(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head -1``).  Point stdout at
        # devnull so the interpreter's flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
