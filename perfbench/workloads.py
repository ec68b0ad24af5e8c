"""Workload inputs, operations and answer checks for the ptfkit benchmark.

Each workload turns a seed into an endless sequence of batches of
operations.  An operation is one call into the library's public API; the
program only ever sees the generated inputs.  The timed loop stops only
between batches, at the boundary nearest its deadline.  Answers are checked after the timed loop
against the committed expected-answers files and against checks that do
not use the library's own code paths.

Operations look library functions up on their module at call time, so a
traced run (see ``tracer.py``) sees the calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from pathlib import Path

import numpy as np

import ptfkit
from ptfkit import cli, highorder, ptf

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Pools for the workloads whose operations take about a second: one pass
# over a pool fills most of a 20-second run, so every run measures nearly
# the same work.  A seeded random draw of ~20 such operations would vary by
# several per cent in cost from seed to seed (per-operation cost varies by
# about 30%), which is more than the metrics' bounds allow.
ORDER7_POOL = 16
HOV5_POOL = 24


# -- tables and independent evaluation --------------------------------------


def table_bits(n: int, code: int) -> tuple[int, ...]:
    """Table bits of a code: bit ``i`` of the code is the output at index ``i``."""
    return tuple((code >> i) & 1 for i in range(1 << n))


def table_of(n: int, code: int):
    return ptfkit.TruthTable(n, table_bits(n, code))


def binary(n: int, code: int) -> str:
    """The CLI's binary table form (index 0 first)."""
    return "".join(map(str, table_bits(n, code)))


def parity_code(n: int) -> int:
    return sum(1 << i for i in range(1 << n) if bin(i).count("1") & 1)


def vector_of(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> i) & 1 for i in range(n))


def index_of(X) -> int:
    """Table index of an input vector (x_1 is the least significant bit)."""
    return sum(x << i for i, x in enumerate(X))


def threshold_codes(n: int, weight_bound: int = 3, theta_bound: int = 9) -> set[int]:
    """Codes of every function [w.X >= theta] over a small integer box.

    An oracle independent of the LP engine; the box is large enough to
    reach every threshold function for n <= 4.
    """
    idx = np.arange(1 << n)
    inputs = np.stack([(idx >> i) & 1 for i in range(n)], axis=1)
    weights = np.array(list(product(range(-weight_bound, weight_bound + 1), repeat=n)))
    sums = weights @ inputs.T
    place = np.array([1 << i for i in range(1 << n)], dtype=object)
    codes: set[int] = set()
    for theta in range(-theta_bound, theta_bound + 1):
        rows = np.unique((sums >= theta).astype(np.int64), axis=0)
        codes.update(int(r @ place) for r in rows)
    return codes


def weighted(weights, X) -> Fraction:
    """Sum of the weights of the monomials (tuples of 1-based indices) true at X."""
    return sum((c for m, c in weights if all(X[i - 1] for i in m)), Fraction(0))


def tabulate(n: int, weights, theta) -> tuple[int, ...]:
    return tuple(int(weighted(weights, vector_of(i, n)) >= theta) for i in range(1 << n))


def parity_met(members, X) -> int:
    """Parity of the (weights, threshold) pairs whose weighted sum meets the threshold at X.

    One pair is a PTF, pairs sharing weights a shared-weight multithreshold
    form, and arbitrary pairs an XOR list.
    """
    return sum(weighted(w, X) >= t for w, t in members) & 1


def shared_weight_bits(rep: dict) -> tuple[int, ...]:
    """Table of a CLI shared-weight JSON form such as {"n", "weights", "thresholds"}."""
    w = json_weights(rep["weights"])
    members = [(w, Fraction(t)) for t in rep["thresholds"]]
    return tuple(parity_met(members, vector_of(i, rep["n"])) for i in range(1 << rep["n"]))


def ptf_weights(p) -> list:
    """Weights of a library PTF as (monomial, Fraction) pairs."""
    return [(tuple(m), Fraction(c)) for m, c in p.coeffs.items()]


def json_weights(coeffs: dict) -> list:
    """Weights of a CLI JSON weight map such as {"1+2": "3/2"}."""
    return [(tuple(int(i) for i in k.split("+")), Fraction(v)) for k, v in coeffs.items()]


def _bits_str(bits) -> str:
    return "".join(map(str, bits))


@lru_cache(maxsize=None)
def _expected(name: str) -> dict:
    return json.loads((EXPECTED_DIR / name).read_text(encoding="utf-8"))


def small_orders() -> dict[int, str]:
    """Minimal order of every function on 2..4 variables, one digit per code."""
    return {int(n): digits for n, digits in _expected("orders_n2_n4.json")["orders"].items()}


# -- operations ---------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One library call: ``fn(*args)``; ``key`` identifies the input for checks."""

    fn: object
    args: tuple
    key: object

    def run(self):
        return self.fn(*self.args)


def _is_threshold(f):
    return ptf.is_threshold(f)


def _order(f):
    return ptf.order(f)


def _realize(f, d):
    return ptf.realize_at_degree(f, d)


def _hov(g):
    return highorder.high_order_vectors(g)


def _cli(argv):
    """One in-process CLI request; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(["--json", *argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


class Workload:
    """Seeded operation stream plus the checks of its answers."""

    name = ""

    def __init__(self, seed: int, workdir: Path | None = None) -> None:
        self.seed = seed

    @staticmethod
    def warm_up() -> None:
        """One operation on a fixed input; fills the library's caches."""
        raise NotImplementedError

    def batches(self):
        """Endless iterator of lists of operations."""
        raise NotImplementedError

    def check(self, op: Op, answer) -> str | None:
        """None if the answer is right, else what is wrong with it."""
        raise NotImplementedError


class Census4(Workload):
    """Threshold test of every 4-variable function, in a seeded order."""

    name = "census4"

    def __init__(self, seed, workdir=None):
        super().__init__(seed)
        self.orders = small_orders()[4]
        self.oracle = threshold_codes(4)

    @staticmethod
    def warm_up():
        ptf.is_threshold(table_of(4, 0x8000))

    def batches(self):
        codes = list(range(1 << 16))
        rng = random.Random(self.seed)
        while True:
            rng.shuffle(codes)
            for c in codes:
                yield [Op(_is_threshold, (table_of(4, c),), c)]

    def check(self, op, answer):
        code = op.key
        threshold = code in self.oracle
        if threshold != (int(self.orders[code]) <= 1):
            return f"expected orders disagree with the oracle at {code:#06x}"
        if (answer is not None) != threshold:
            return f"is_threshold({code:#06x}) answered {answer is not None}, expected {threshold}"
        if answer is not None:
            if max((len(m) for m in answer.coeffs), default=0) > 1:
                return f"witness for {code:#06x} has degree > 1"
            if tabulate(4, ptf_weights(answer), answer.theta) != table_bits(4, code):
                return f"witness for {code:#06x} does not re-tabulate"
        return None


class _PoolWorkload(Workload):
    """A fixed pool with committed answers, run in whole passes.

    A batch is one pass over the pool (plus any extra operation), in an
    order the seed shuffles.  Whole passes make every run measure the same
    set of operations, so its median latency is a fixed member of that set.
    """

    expected_file = ""

    def __init__(self, seed, workdir=None):
        super().__init__(seed)
        data = _expected(self.expected_file)
        self.codes = [int(c, 16) for c in data["codes"]]
        self.data = data

    def pool_op(self, i: int) -> Op:
        raise NotImplementedError

    def extra_ops(self) -> list[Op]:
        return []

    def batches(self):
        rng = random.Random(self.seed)
        while True:
            batch = self.extra_ops() + [self.pool_op(i) for i in range(len(self.codes))]
            rng.shuffle(batch)
            yield batch


class Order7(_PoolWorkload):
    """Minimal order of random 7-variable tables (128-row LPs)."""

    name = "order7"
    expected_file = "order7.json"

    @staticmethod
    def warm_up():
        ptf.order(table_of(7, int(_expected("order7.json")["codes"][0], 16)))

    def extra_ops(self):
        return [Op(_realize, (table_of(7, parity_code(7)), 3), "parity7")]

    def pool_op(self, i):
        return Op(_order, (table_of(7, self.codes[i]),), i)

    def check(self, op, answer):
        if op.key == "parity7":
            if (answer is not None) != self.data["parity7_degree3_realizable"]:
                return "parity7 at degree 3 changed answer"
            if answer is not None:
                return "parity7 has order 7 but a degree-3 realization was returned"
            return None
        want = self.data["orders"][op.key]
        if answer != want:
            return f"order of pool table {op.key} is {answer}, expected {want}"
        return None


class Hov5(_PoolWorkload):
    """High-order vectors of random 5-variable tables and parity-5."""

    name = "hov5"
    expected_file = "hov5.json"

    @staticmethod
    def warm_up():
        highorder.high_order_vectors(table_of(5, int(_expected("hov5.json")["codes"][1], 16)))

    def pool_op(self, i):
        return Op(_hov, (table_of(5, self.codes[i]),), i)

    def check(self, op, answer):
        r = self.data["orders"][op.key]
        got = [
            [index_of(h.Y), h.order_after]
            for h in answer
            if h.order_before == r and h.order_after != r
        ]
        if len(got) != len(answer):
            return f"pool table {op.key}: a result has the wrong order or no order change"
        if got != self.data["hov"][op.key]:
            return f"pool table {op.key}: high-order vectors differ from the expected answers"
        return None


# -- cli-mix ------------------------------------------------------------------

# Relative frequency of each request kind.  The LP-backed commands stay
# small (hov at n <= 3 and rare: it solves ~2 LPs per probe) so per-request
# overhead, not the LP engine, carries most of this workload.
# Kinds ending in "!" are malformed or break a precondition; each expects
# the CLI's documented exit code (1 = parse error, 2 = precondition).
CLI_MIX = {
    "analyze": 2, "hov": 0.5, "reduce": 2, "extend": 2, "asummable": 2,
    "family": 2, "synth-mtf": 2, "eval": 3,
    "bad-table!": 0.25, "bad-vector!": 0.25, "reduce-threshold!": 0.25,
    "reduce-nonthreshold-flip!": 0.25, "asummable-m1!": 0.25, "synth-bound!": 0.25,
    "extend-mismatch!": 0.25, "hov-too-big!": 0.25, "eval-garbage!": 0.25,
    "eval-missing!": 0.25, "usage!": 0.25,
}
EXIT_CODES = {
    "bad-table!": 1, "bad-vector!": 1, "reduce-threshold!": 2, "reduce-nonthreshold-flip!": 2,
    "asummable-m1!": 2, "synth-bound!": 2, "extend-mismatch!": 2, "hov-too-big!": 2,
    "eval-garbage!": 1, "eval-missing!": 1, "usage!": 2,
}
# Each realization-file kind gets this many seeded files per run.
FILES_PER_KIND = 12


def _frac_text(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _weight_lines(weights) -> str:
    return "".join(f"{'+'.join(map(str, m))}: {_frac_text(c)}\n" for m, c in weights)


def _ptf_text(weights, theta) -> str:
    return _weight_lines(weights) + f"theta: {_frac_text(theta)}\n"


def _linear_weights(rng: random.Random, n: int, lo: int, hi: int) -> list:
    """Integer degree-1 weights with a nonzero weight on x_n (fixes the arity)."""
    w = [rng.randint(lo, hi) for _ in range(n - 1)] + [rng.choice([v for v in range(lo, hi + 1) if v])]
    return [((i + 1,), Fraction(v)) for i, v in enumerate(w) if v]


def _sums(weights, n: int) -> list[Fraction]:
    return [weighted(weights, vector_of(i, n)) for i in range(1 << n)]


@lru_cache(maxsize=None)
def certificate_k(n: int, code: int, m: int) -> int | None:
    """Smallest k in 2..m with equal-sum size-k true and false multisets, by enumeration."""
    bits = table_bits(n, code)
    trues = [vector_of(i, n) for i, b in enumerate(bits) if b]
    falses = [vector_of(i, n) for i, b in enumerate(bits) if not b]
    if not trues or not falses:
        return None
    for k in range(2, m + 1):
        sums = {tuple(map(sum, zip(*c))) for c in combinations_with_replacement(trues, k)}
        if any(tuple(map(sum, zip(*c))) in sums for c in combinations_with_replacement(falses, k)):
            return k
    return None


@lru_cache(maxsize=None)
def min_shared_thresholds(n: int, code: int, bound: int) -> int | None:
    """Fewest thresholds of any integer weight vector in [-bound, bound]^n, by enumeration.

    A weight vector works iff the function is constant on each level set of
    its weighted sum; it needs one threshold per output switch along the
    ascending levels (counting a 1 at the lowest level as a switch).
    """
    idx = np.arange(1 << n)
    inputs = np.stack([(idx >> i) & 1 for i in range(n)], axis=1)
    bits = np.array(table_bits(n, code))
    best = None
    for w in product(range(-bound, bound + 1), repeat=n):
        s = inputs @ np.array(w)
        order = np.argsort(s, kind="stable")
        s_sorted, b_sorted = s[order], bits[order]
        same_level = s_sorted[1:] == s_sorted[:-1]
        if np.any(same_level & (b_sorted[1:] != b_sorted[:-1])):
            continue
        k = int(b_sorted[0]) + int(np.count_nonzero(b_sorted[1:] != b_sorted[:-1]))
        best = k if best is None else min(best, k)
    return best


class CliMix(Workload):
    """A seeded stream of in-process ``ptfkit --json`` requests over all 8 commands."""

    name = "cli-mix"

    def __init__(self, seed, workdir=None):
        super().__init__(seed)
        self.orders = small_orders()
        self.rng = random.Random(seed)
        self.dir = Path(workdir)
        self.outputs: dict[tuple, bytes] = {}  # output digest per request
        self._write_files()

    @staticmethod
    def warm_up():
        _cli(["analyze", "0110"])

    def _write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _write_files(self) -> None:
        rng = self.rng
        self.extend_files = []  # (n, target code, f1 path, f2 path, t1 code, t2 code)
        for j in range(FILES_PER_KIND):
            n = rng.choice((2, 3, 4))
            w = _linear_weights(rng, n, -3, 3)
            levels = sorted(set(_sums(w, n)))
            th1, th2 = sorted(rng.sample(levels, 2))
            t1 = sum(1 << i for i, v in enumerate(_sums(w, n)) if v >= th1)
            t2 = sum(1 << i for i, v in enumerate(_sums(w, n)) if v >= th2)
            f1 = self._write(f"ext{j}a.ptf", _ptf_text(w, th1))
            f2 = self._write(f"ext{j}b.ptf", _ptf_text(w, th2))
            self.extend_files.append((n, t1 ^ t2, f1, f2, t1, t2))
        self.family_files = []  # (path, weights, largest index)
        for j in range(FILES_PER_KIND):
            n = rng.choice((2, 3, 4))
            w = _linear_weights(rng, n, -2, 3)
            if rng.random() < 0.5:
                w.append(((1, n), Fraction(rng.randint(-4, 4) or 1, rng.choice((1, 2)))))
            self.family_files.append((self._write(f"fam{j}.weights", _weight_lines(w)), w, n))
        self.eval_files = []  # (path, kind, n, (weights, threshold) pairs)
        for j in range(FILES_PER_KIND):
            n = rng.choice((2, 3, 4))
            kind = ("ptf", "shared_weight", "xor_list")[j % 3]
            if kind == "ptf":
                w = _linear_weights(rng, n, -3, 3)
                if n > 2:
                    w.append(((1, 2, n), Fraction(rng.randint(1, 5), 2)))
                theta = Fraction(rng.randint(-6, 6), rng.choice((1, 3)))
                text = _ptf_text(w, theta)
                members = [(w, theta)]
            elif kind == "shared_weight":
                w = _linear_weights(rng, n, -3, 3)
                ths = sorted(rng.sample(range(-4, 8), rng.randint(1, 3)))
                text = json.dumps({
                    "n": n,
                    "weights": {"+".join(map(str, m)): _frac_text(c) for m, c in w},
                    "thresholds": [str(t) for t in ths],
                })
                members = [(w, Fraction(t)) for t in ths]
            else:
                members = [(_linear_weights(rng, n, -2, 2), Fraction(rng.randint(-2, 3)))
                           for _ in range(rng.randint(2, 3))]
                text = json.dumps([_ptf_text(w, t) for w, t in members])
            self.eval_files.append((self._write(f"eval{j}.txt", text), kind, n, members))
        self.garbage = self._write("garbage.ptf", "this is not a realization\n")
        self.missing = str(self.dir / "missing.ptf")

    def _table(self, n_choices) -> tuple[int, int]:
        n = self.rng.choice(n_choices)
        return n, self.rng.getrandbits(1 << n)

    def _reducible(self, n: int) -> tuple[int, int]:
        """A table of order >= 2 and a flip point whose flip has order <= 1."""
        orders = self.orders[n]
        while True:
            code = self.rng.getrandbits(1 << n)
            if int(orders[code]) < 2:
                continue
            ys = [i for i in range(1 << n) if int(orders[code ^ (1 << i)]) <= 1]
            if ys:
                return code, self.rng.choice(ys)

    def _request(self, kind: str) -> tuple[list[str], tuple]:
        rng = self.rng
        vec = lambda i, n: "".join(map(str, vector_of(i, n)))  # noqa: E731
        if kind == "analyze":
            n, c = self._table((2, 3, 4))
            return ["analyze", binary(n, c)], (n, c)
        if kind == "hov":
            n, c = self._table((2, 3))
            return ["hov", binary(n, c)], (n, c)
        if kind == "reduce":
            n = rng.choice((3, 4))
            c, y = self._reducible(n)
            return ["reduce", binary(n, c), "--at", vec(y, n)], (n, c, y)
        if kind == "extend":
            j = rng.randrange(len(self.extend_files))
            n, c, f1, f2, _, _ = self.extend_files[j]
            return ["extend", binary(n, c), f1, f2], (j,)
        if kind == "asummable":
            n, c = self._table((2, 3, 4))
            m = rng.choice((2, 3))
            return ["asummable", binary(n, c), "--m", str(m)], (n, c, m)
        if kind == "family":
            j = rng.randrange(len(self.family_files))
            path, _, top = self.family_files[j]
            n = rng.randint(top, 4)
            return ["family", path, "--n", str(n)], (j, n)
        if kind == "synth-mtf":
            n, c = self._table((2, 3, 4))
            k, b = rng.randint(0, 3), rng.choice((1, 2))
            return ["synth-mtf", binary(n, c), "--k-max", str(k), "--weight-bound", str(b)], (n, c, k, b)
        if kind == "eval":
            j = rng.randrange(len(self.eval_files))
            x = rng.getrandbits(self.eval_files[j][2])
            return ["eval", self.eval_files[j][0], "--at", vec(x, self.eval_files[j][2])], (j, x)
        # malformed or precondition-breaking requests
        n, c = self._table((2, 3, 4))
        if kind == "bad-table!":
            return ["analyze", rng.choice(("01x1", "011", "0x", ""))], ()
        if kind == "bad-vector!":
            return ["reduce", binary(n, c), "--at", "1" * (n + 1)], ()
        if kind == "reduce-threshold!":
            return ["reduce", binary(2, 0b1000), "--at", "11"], ()
        if kind == "reduce-nonthreshold-flip!":
            return ["reduce", binary(4, parity_code(4)), "--at", vec(rng.randrange(16), 4)], ()
        if kind == "asummable-m1!":
            return ["asummable", binary(n, c), "--m", "1"], ()
        if kind == "synth-bound!":
            return ["synth-mtf", binary(n, c), "--k-max", "2", "--weight-bound", "9"], ()
        if kind == "extend-mismatch!":
            n, t, f1, f2, _, _ = self.extend_files[rng.randrange(len(self.extend_files))]
            return ["extend", binary(n, t ^ 1), f1, f2], ()
        if kind == "hov-too-big!":
            return ["hov", binary(7, rng.getrandbits(128))], ()
        if kind == "eval-garbage!":
            return ["eval", self.garbage, "--at", "01"], ()
        if kind == "eval-missing!":
            return ["eval", self.missing, "--at", "01"], ()
        if kind == "usage!":
            return ["synth-mtf", binary(n, c)], ()
        raise ValueError(kind)

    def batches(self):
        kinds = list(CLI_MIX)
        weights = [CLI_MIX[k] for k in kinds]
        while True:
            kind = self.rng.choices(kinds, weights)[0]
            argv, params = self._request(kind)
            yield [Op(_cli, (argv,), (kind, tuple(argv), params))]

    # -- checks -----------------------------------------------------------

    def check(self, op, answer):
        kind, argv, params = op.key
        code, out = answer
        want_code = EXIT_CODES.get(kind, 0)
        if code != want_code:
            return f"{' '.join(argv)}: exit code {code}, expected {want_code}"
        digest = hashlib.blake2b(out.encode(), digest_size=16).digest()
        if self.outputs.setdefault(argv, digest) != digest:
            return f"{' '.join(argv)}: output differs from an identical earlier request"
        if want_code:
            return None if out == "" else f"{' '.join(argv)}: printed a report on failure"
        report = json.loads(out)
        if report["command"] != argv[0]:
            return f"{' '.join(argv)}: report names command {report['command']!r}"
        problem = getattr(self, "_check_" + kind.replace("-", "_"))(report["result"], *params)
        return None if problem is None else f"{' '.join(argv)}: {problem}"

    def _order(self, n, c) -> int:
        return int(self.orders[n][c])

    def _check_analyze(self, res, n, c):
        d = self._order(n, c)
        if (res["n"], res["order"], res["is_threshold"]) != (n, d, d <= 1):
            return f"order {res['order']}, expected {d}"
        w = json_weights(res["witness"]["coeffs"])
        if max((len(m) for m, _ in w), default=0) > d:
            return "witness degree exceeds the order"
        if tabulate(n, w, Fraction(res["witness"]["theta"])) != table_bits(n, c):
            return "witness does not re-tabulate"
        return None

    def _check_hov(self, res, n, c):
        r = self._order(n, c)
        want = [
            {"Y": list(vector_of(i, n)), "r": r, "s": self._order(n, c ^ (1 << i))}
            for i in range(1 << n)
            if self._order(n, c ^ (1 << i)) != r
        ]
        if res["order"] != r or res["high_order_vectors"] != want:
            return "high-order vectors differ from the expected orders"
        return None

    def _check_reduce(self, res, n, c, y):
        f2 = c ^ (1 << y)
        if res["Y"] != list(vector_of(y, n)) or res["f2"] != binary(n, f2) or res["f1"] != binary(n, 1 << y):
            return "split tables are wrong"
        for key, table in (("f2", f2), ("f1", 1 << y)):
            w = json_weights(res[key + "_witness"]["coeffs"])
            if max((len(m) for m, _ in w), default=0) > 1:
                return f"{key} witness has degree > 1"
            if tabulate(n, w, Fraction(res[key + "_witness"]["theta"])) != table_bits(n, table):
                return f"{key} witness does not re-tabulate"
        return None

    def _check_extend(self, res, j):
        n, c, _, _, t1, t2 = self.extend_files[j]
        ones = (1 << (1 << n)) - 1
        want = {
            "f_next": binary(n + 1, c << (1 << n)),
            "g_next": binary(n + 1, c | c << (1 << n)),
            "f1_next": binary(n + 1, t1 | ones << (1 << n)),
            "f2_next": binary(n + 1, t2 | ones << (1 << n)),
        }
        if any(res[k] != v for k, v in want.items()):
            return "extended tables are wrong"
        rep = res["witness"]
        if rep["n"] != n + 1 or len(rep["thresholds"]) != 2:
            return "witness is not a two-threshold form on n+1 variables"
        if _bits_str(shared_weight_bits(rep)) != want["f_next"]:
            return "two-threshold witness does not re-tabulate"
        return None

    def _check_asummable(self, res, n, c, m):
        k = certificate_k(n, c, m)
        cert = res["certificate"]
        if res["asummable_up_to_m"] != (k is None) or (cert is None) != (k is None):
            return f"certificate presence wrong (smallest k by enumeration: {k})"
        if cert is None:
            return None
        bits = table_bits(n, c)
        true_v, false_v = [tuple(v) for v in cert["true"]], [tuple(v) for v in cert["false"]]
        if cert["k"] != k or len(true_v) != k or len(false_v) != k:
            return f"certificate size {cert['k']}, smallest is {k}"
        if any(bits[index_of(v)] != 1 for v in true_v) or any(bits[index_of(v)] != 0 for v in false_v):
            return "certificate vectors are on the wrong side"
        if [sum(col) for col in zip(*true_v)] != [sum(col) for col in zip(*false_v)]:
            return "certificate sums differ"
        return None

    def _check_family(self, res, j, n):
        _, w, _ = self.family_files[j]
        values = _sums(w, n)
        levels = sorted(set(values))
        members = [(v, _bits_str(int(g >= v) for g in values)) for v in levels]
        members.append((levels[-1] + 1, "0" * (1 << n)))
        got = [(Fraction(m["theta"]), m["table"]) for m in res["members"]]
        if res["n"] != n or [Fraction(v) for v in res["levels"]] != levels or got != members:
            return "family members differ from direct evaluation"
        return None

    def _check_synth_mtf(self, res, n, c, k_max, bound):
        best = min_shared_thresholds(n, c, bound)
        exists = best is not None and best <= k_max
        if res["found"] != exists:
            return f"found={res['found']}, enumeration says {exists}"
        if not exists:
            return None
        rep = res["rep"]
        if rep["n"] != n or len(rep["thresholds"]) != best or shared_weight_bits(rep) != table_bits(n, c):
            return f"representation with {len(rep['thresholds'])} thresholds (fewest: {best}) or wrong table"
        if any(abs(v) > bound or v.denominator != 1 for _, v in json_weights(rep["weights"])):
            return "weights outside the search box"
        return None

    def _check_eval(self, res, j, x):
        _, kind, n, members = self.eval_files[j]
        X = vector_of(x, n)
        want = parity_met(members, X)
        if (res["kind"], res["at"], res["value"]) != (kind, list(X), want):
            return f"eval gave {res['value']} ({res['kind']}), expected {want} ({kind})"
        return None


WORKLOADS = {w.name: w for w in (Census4, Order7, Hov5, CliMix)}


def warm_up(name: str) -> None:
    """Set-up probe: import the library and run one warm-up operation."""
    WORKLOADS[name].warm_up()
