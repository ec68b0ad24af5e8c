"""Command-line front end, and the one reader and writer of every realization form.

Each command prints a human-readable report by default and a stable JSON
report under ``--json`` (byte-identical across runs for identical inputs,
which is why the elapsed-time field only appears in the human form).
Exit codes: 0 on success, 1 on parse errors, 2 on violated preconditions.
argparse also exits 2 on a usage error (a missing or unknown argument or
option, or no subcommand), and 0 after ``--help``.  :func:`run` can be called
repeatedly in one process: every request after the first reuses its parser.

Truth tables are given as binary strings (index 0 first) or "0x"-hex;
input vectors are written x_1 first, so ``--at 110`` means x_1=1, x_2=1,
x_3=0.  A threshold realization file holds one ``monomial: coefficient``
line per weight, then ``theta:`` (the ``coeffs`` and ``theta`` that
``analyze`` reports as JSON), with every rational written ``p`` or ``p/q``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from . import asummability, highorder, multithreshold, ptf
from .core import format_table, parse_table
from .errors import ParseError, PreconditionError

# Fraction alone also takes exponents, and "1e100000000" builds a 10^10^8 int;
# int alone also takes underscores and non-ASCII digits.
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(?:/[0-9]+)?\s*")
_MONOMIAL = re.compile(r"[0-9]+(?:\s*\+\s*[0-9]+)*")


@contextmanager
def _invalid(what: str):
    """Re-raise a ValueError (or a zero denominator) as a ParseError about ``what``."""
    try:
        yield
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid {what}: {exc}") from exc


def _largest_index(*weight_maps) -> int:
    """The variable count of a form that records none: its largest index (1 if none)."""
    return max((m[-1] for weights in weight_maps for m in weights), default=1)


def format_fraction(value: Fraction) -> str:
    """Render a rational as ``p`` or ``p/q``; past the int-string digit limit, PreconditionError."""
    try:
        return str(Fraction(value))
    except ValueError as exc:
        raise PreconditionError(f"cannot write a rational out as text: {exc}") from exc


def parse_fraction(text: str) -> Fraction:
    """Read ``p`` or ``p/q``: an optional sign, then ASCII digits; a non-string fails."""
    if not (isinstance(text, str) and _RATIONAL.fullmatch(text)):
        raise ParseError(f"invalid rational {text!r}: expected p or p/q")
    with _invalid(f"rational {text!r}"):
        return Fraction(text)


def format_monomial(m: ptf.Monomial) -> str:
    return "+".join(str(i) for i in m)


def parse_monomial(text: str) -> ptf.Monomial:
    """Read ASCII-digit variable indices joined by ``+``."""
    text = text.strip()
    if not _MONOMIAL.fullmatch(text):
        raise ParseError(f"invalid monomial {text!r}: expected indices joined by '+'")
    with _invalid(f"monomial {text!r}"):
        m = tuple(int(part) for part in text.split("+"))
    if min(m) < 1:
        raise ParseError(f"monomial {text!r} has a variable index below 1")
    return m


def _weights_json(weights: ptf.WeightMap) -> dict[str, str]:
    return {format_monomial(m): format_fraction(c) for m, c in weights.items()}


def _ptf_json(p: ptf.PTF) -> dict:
    return {"coeffs": _weights_json(p.coeffs), "theta": format_fraction(p.theta)}


def format_ptf_text(p: ptf.PTF) -> str:
    """Text form: one ``monomial: coefficient`` line per weight, then theta."""
    lines = "".join(f"{m}: {c}\n" for m, c in _weights_json(p.coeffs).items())
    return f"{lines}theta: {format_fraction(p.theta)}\n"


def parse_weight_lines(text: str) -> tuple[dict[ptf.Monomial, Fraction], Fraction | None]:
    """Parse ``monomial: coefficient`` lines; a ``theta:`` line is optional.

    A monomial named twice (``1`` and ``01`` name the same one) or a
    second ``theta:`` line is a ParseError.
    """
    weights: dict[ptf.Monomial, Fraction] = {}
    theta: Fraction | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'monomial: coefficient', got {line!r}")
        lhs, rhs = line.split(":", 1)
        if lhs.strip() == "theta":
            if theta is not None:
                raise ParseError(f"line {lineno}: theta named twice")
            theta = parse_fraction(rhs)
        else:
            m = parse_monomial(lhs)
            if m in weights:
                raise ParseError(f"line {lineno}: monomial {format_monomial(m)} named twice")
            weights[m] = parse_fraction(rhs)
    return weights, theta


def _parse_ptfs(texts, n: int | None) -> list[ptf.PTF]:
    """PTFs from their text forms, each read once; n defaults to the largest index in any."""
    parts = [parse_weight_lines(text) for text in texts]
    if any(theta is None for _, theta in parts):
        raise ParseError("missing 'theta:' line")
    if n is None:
        n = _largest_index(*(weights for weights, _ in parts))
    with _invalid("threshold text"):
        return [ptf.PTF(n, weights, theta) for weights, theta in parts]


def parse_ptf_text(text: str, n: int | None = None) -> ptf.PTF:
    """Parse the text form of a PTF; n defaults to the largest index used."""
    return _parse_ptfs([text], n)[0]


def shared_weight_to_json(rep: multithreshold.SharedWeight) -> dict:
    return {
        "n": rep.n,
        "weights": _weights_json(rep.weights),
        "thresholds": [format_fraction(t) for t in rep.thresholds],
    }


def shared_weight_from_json(data) -> multithreshold.SharedWeight:
    """Read the JSON form written by :func:`shared_weight_to_json`.

    A dict without ``"n"`` gets the largest variable index of its weights.
    Two weight keys that name one monomial (``"1"`` and ``"01"``) are a
    ParseError.
    """
    if not (
        isinstance(data, dict)
        and isinstance(data.get("weights"), dict)
        and isinstance(data.get("thresholds"), list)
    ):
        raise ParseError(
            'shared-weight JSON needs a "weights" object and a "thresholds" list of rational strings'
        )
    weights = {}
    for key, value in data["weights"].items():
        m = parse_monomial(key)
        if m in weights:
            raise ParseError(f"shared-weight JSON names monomial {format_monomial(m)} twice")
        weights[m] = parse_fraction(value)
    thresholds = tuple(parse_fraction(t) for t in data["thresholds"])
    n = data["n"] if "n" in data else _largest_index(weights)
    if type(n) is not int or n < 1:
        raise ParseError(f'shared-weight JSON "n" must be a positive integer, got {n!r}')
    with _invalid("shared-weight JSON"):
        return multithreshold.SharedWeight(n, weights, thresholds)


def xor_list_to_json(rep: multithreshold.XorList) -> dict:
    """JSON form: ``{"n": n, "members": [...]}`` with each member's text form."""
    return {"n": rep.n, "members": [format_ptf_text(p) for p in rep.members]}


def xor_list_from_json(data) -> multithreshold.XorList:
    """Read the JSON form written by :func:`xor_list_to_json`.

    A bare list of member text forms is read too.  It records no ``n``, so
    every member gets the largest variable index over all members, and a
    list in which no member weights ``x_n`` reads back with a smaller ``n``.
    """
    n = None
    if isinstance(data, dict):
        n = data.get("n")
        if type(n) is not int:
            raise ParseError(f'XOR-list JSON "n" must be an integer, got {n!r}')
        data = data.get("members")
    if not isinstance(data, list) or not all(isinstance(member, str) for member in data):
        raise ParseError("XOR-list JSON members must be a list of threshold text forms")
    with _invalid("XOR-list JSON"):
        return multithreshold.XorList(tuple(_parse_ptfs(data, n)))


def hov_to_json(result: highorder.HighOrderVectorResult) -> dict:
    return {"Y": list(result.Y), "r": result.order_before, "s": result.order_after}


def certificate_to_json(cert: asummability.SummabilityCertificate) -> dict:
    return {
        "k": cert.k,
        "true": [list(v) for v in cert.true_vectors],
        "false": [list(v) for v in cert.false_vectors],
    }


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


def _json_object(pairs: list) -> dict:
    """A JSON object as a dict; a key named twice is a ParseError (json keeps the last)."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ParseError(f"JSON object names key {key!r} twice")
        data[key] = value
    return data


def cmd_analyze(args) -> dict:
    d, witness = ptf.minimal_realization(args.table)
    return {
        "n": args.table.n,
        "order": d,
        "is_threshold": d <= 1,
        "witness": _ptf_json(witness),
    }


def cmd_hov(args) -> dict:
    r, results = highorder.high_order_search(args.table)
    return {
        "n": args.table.n,
        "order": r,
        "high_order_vectors": [hov_to_json(hit) for hit in results],
    }


def cmd_reduce(args) -> dict:
    Y = _parse_vector(args.at, args.table.n)
    red = highorder.order_reduce(args.table, Y)
    return {
        "Y": list(red.Y),
        "f2": format_table(red.f2),
        "f2_witness": _ptf_json(red.f2_witness),
        "f1": format_table(red.f1),
        "f1_witness": _ptf_json(red.f1_witness),
    }


def cmd_extend(args) -> dict:
    p1 = parse_ptf_text(_read_text(args.f1), n=args.table.n)
    p2 = parse_ptf_text(_read_text(args.f2), n=args.table.n)
    ext = multithreshold.extend_order(args.table, p1, p2)
    return {
        "f_next": format_table(ext.f_next),
        "g_next": format_table(ext.g_next),
        "f1_next": format_table(ext.f1_next),
        "f2_next": format_table(ext.f2_next),
        "witness": shared_weight_to_json(ext.witness),
    }


def cmd_asummable(args) -> dict:
    cert = asummability.find_certificate(args.table, args.m)
    return {
        "n": args.table.n,
        "m": args.m,
        "asummable_up_to_m": cert is None,
        "certificate": None if cert is None else certificate_to_json(cert),
    }


def cmd_family(args) -> dict:
    weights, theta = parse_weight_lines(_read_text(args.weights))
    if theta is not None:
        raise ParseError("weight files for 'family' must not carry a theta line")
    largest = _largest_index(weights)
    n = largest if args.n is None else args.n
    if n < largest:
        raise PreconditionError(f"--n {n} is below the largest variable index {largest}")
    with _invalid(f"weight map in {args.weights}"):
        fam = ptf.same_weight_family(weights, n)
    return {
        "n": n,
        "levels": [format_fraction(v) for v in fam.levels],
        "members": [
            {"theta": format_fraction(t), "table": format_table(tab)} for t, tab in fam.members
        ],
    }


def cmd_synth_mtf(args) -> dict:
    rep = multithreshold.synthesize_shared_weight(args.table, args.k_max, args.weight_bound)
    return {
        "n": args.table.n,
        "k_max": args.k_max,
        "weight_bound": args.weight_bound,
        "found": rep is not None,
        "rep": shared_weight_to_json(rep) if rep is not None else None,
    }


def cmd_eval(args) -> dict:
    text = _read_text(args.file)
    if not text.lstrip().startswith(("{", "[")):
        kind, rep, evaluate = "ptf", parse_ptf_text(text), ptf.evaluate
    else:
        try:
            data = json.loads(text, object_pairs_hook=_json_object)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ParseError(f"invalid JSON in {args.file}: {exc}") from exc
        if isinstance(data, list) or (isinstance(data, dict) and "members" in data):
            kind, rep = "xor_list", xor_list_from_json(data)
            evaluate = lambda r, X: multithreshold.eval_xor_list(r.members, X)
        else:
            kind, rep = "shared_weight", shared_weight_from_json(data)
            evaluate = multithreshold.eval_shared_weight
    X = _parse_vector(args.at, rep.n)
    return {"kind": kind, "at": list(X), "value": evaluate(rep, X)}


def _echo(args) -> dict:
    echo = {}
    if getattr(args, "table", None) is not None:
        echo["table"] = format_table(args.table)
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

    def add_command(name: str, help_text: str, func):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.set_defaults(func=func)
        return p

    p = add_command("analyze", "minimal order and realization of a truth table", cmd_analyze)
    p.add_argument("table", type=parse_table)

    p = add_command("hov", "flip points that change the minimal order", cmd_hov)
    p.add_argument("table", type=parse_table)

    p = add_command("reduce", "split at a flip point into threshold parts", cmd_reduce)
    p.add_argument("table", type=parse_table)
    p.add_argument("--at", required=True, help="flip point, x_1 first")

    p = add_command("extend", "lift an XOR of two same-weight thresholds by one variable", cmd_extend)
    p.add_argument("table", type=parse_table)
    p.add_argument("f1", help="first threshold realization file")
    p.add_argument("f2", help="second threshold realization file")

    p = add_command("asummable", "search for an equal-sum certificate", cmd_asummable)
    p.add_argument("table", type=parse_table)
    p.add_argument("--m", type=int, default=2, help="largest multiset size to try")

    p = add_command("family", "threshold sweep of a weight map", cmd_family)
    p.add_argument("weights", help="weight map file")
    p.add_argument("--n", type=int, default=None, help="variable count (default: largest index)")

    p = add_command("synth-mtf", "shared-weight multithreshold synthesis", cmd_synth_mtf)
    p.add_argument("table", type=parse_table)
    p.add_argument("--k-max", type=int, required=True, dest="k_max")
    p.add_argument("--weight-bound", type=int, default=1, dest="weight_bound")

    p = add_command("eval", "evaluate a realization file at one input", cmd_eval)
    p.add_argument("file", help="threshold text form or multithreshold JSON")
    p.add_argument("--at", required=True)

    return parser


# the parser of every run() in this process, built by the first
_parser: argparse.ArgumentParser | None = None


def run(argv: list[str]) -> int:
    """Serve one request and return its exit code (argparse raises SystemExit itself).

    The parser is built on the first call, not at import, and reused by every
    later call: parsing keeps no state in it.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    started = time.perf_counter()
    try:
        # a table argument is read here, so its ParseError exits 1 like any other
        args = _parser.parse_args(argv)
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
