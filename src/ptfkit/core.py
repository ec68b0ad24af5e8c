"""Truth-table representation of Boolean functions on {0,1}^n.

A function f : B^n -> B is stored as the complete table of its 2^n output
bits.  Inputs are tuples X = (x_1, ..., x_n); the table index of an input
is idx(X) = sum_i x_i * 2**(i-1), so x_1 is the least significant bit.
All values are immutable after construction and safe to share between
threads.

Two text formats are accepted by :func:`parse_table`: a binary string of
length 2^n whose leftmost character is the output at index 0, and (for
n >= 2) a "0x"-prefixed hex string of 2^n/4 nibbles, each nibble packing
four table bits with the earlier bit in the more significant position.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, ParseError

# Exhaustive table operations stay cheap up to this cap (64 Ki entries).
MAX_VARS = 16

InputVector = tuple[int, ...]


@dataclass(frozen=True)
class TruthTable:
    """The full output table of a Boolean function on B^n.

    ``bits`` is stored as a tuple whatever sequence is passed, so equal
    tables compare equal and hash alike.
    """

    n: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(self.bits))
        if not 1 <= self.n <= MAX_VARS:
            raise ValueError(f"variable count must be in 1..{MAX_VARS}, got {self.n}")
        if len(self.bits) != 1 << self.n:
            raise ValueError(
                f"table for n={self.n} needs {1 << self.n} bits, got {len(self.bits)}"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("table entries must be 0 or 1")

    @property
    def size(self) -> int:
        return 1 << self.n

    def __str__(self) -> str:
        return format_table(self)


def index_of(X: InputVector) -> int:
    """Table index of an input vector (x_1 is the least significant bit)."""
    idx = 0
    for i, x in enumerate(X):
        if x not in (0, 1):
            raise ValueError(f"input entries must be 0 or 1, got {x!r}")
        idx |= x << i
    return idx


def vector_at(index: int, n: int) -> InputVector:
    """Input vector whose table index is ``index``."""
    return tuple((index >> i) & 1 for i in range(n))


def all_vectors(n: int) -> list[InputVector]:
    """All of B^n in ascending table-index order."""
    return [vector_at(i, n) for i in range(1 << n)]


def const(n: int, value: int) -> TruthTable:
    """The constant-``value`` function on n variables."""
    if value not in (0, 1):
        raise ValueError("constant value must be 0 or 1")
    return TruthTable(n, (value,) * (1 << n))


def from_bits(bits) -> TruthTable:
    """Build a table from any bit sequence of length 2^n."""
    bits = tuple(int(b) for b in bits)
    n = len(bits).bit_length() - 1
    if n < 1 or 1 << n != len(bits):
        raise ValueError(f"bit sequence length {len(bits)} is not 2^n for some n >= 1")
    return TruthTable(n, bits)


def _check_vector(f: TruthTable, X: InputVector) -> None:
    if len(X) != f.n:
        raise DimensionMismatch(f"vector has {len(X)} entries, function has {f.n} variables")


def _check_same(f: TruthTable, g: TruthTable) -> None:
    if f.n != g.n:
        raise DimensionMismatch(f"operands have {f.n} and {g.n} variables")


def evaluate(f: TruthTable, X: InputVector) -> int:
    """f(X)."""
    _check_vector(f, X)
    return f.bits[index_of(X)]


def xor(f: TruthTable, g: TruthTable) -> TruthTable:
    """Pointwise exclusive-or of two functions on the same variables."""
    _check_same(f, g)
    return TruthTable(f.n, tuple(a ^ b for a, b in zip(f.bits, g.bits)))


def flip_at(g: TruthTable, Y: InputVector) -> TruthTable:
    """The function that differs from g exactly at Y (an involution)."""
    _check_vector(g, Y)
    idx = index_of(Y)
    bits = list(g.bits)
    bits[idx] ^= 1
    return TruthTable(g.n, tuple(bits))


def cofactor(f: TruthTable, i: int, b: int) -> TruthTable:
    """Restriction of f with variable x_i fixed to b.

    The result is an (n-1)-variable table; remaining variables keep their
    relative order.
    """
    if not 1 <= i <= f.n:
        raise ValueError(f"variable index {i} out of range 1..{f.n}")
    if f.n == 1:
        raise ValueError("cannot take a cofactor of a 1-variable function")
    if b not in (0, 1):
        raise ValueError("fixed value must be 0 or 1")
    pos = i - 1
    low_mask = (1 << pos) - 1
    bits = []
    for j in range(1 << (f.n - 1)):
        full = (j & low_mask) | (b << pos) | ((j >> pos) << (pos + 1))
        bits.append(f.bits[full])
    return TruthTable(f.n - 1, tuple(bits))


def compose_by_variable(f0: TruthTable, f1: TruthTable) -> TruthTable:
    """Join two n-variable functions with a fresh selector variable x_{n+1}.

    The result h satisfies h(X, 0) = f0(X) and h(X, 1) = f1(X); the new
    variable is always appended as x_{n+1}.
    """
    _check_same(f0, f1)
    return TruthTable(f0.n + 1, f0.bits + f1.bits)


def minterms(f: TruthTable) -> list[InputVector]:
    """All inputs where f is 1, in ascending table-index order."""
    return [vector_at(i, f.n) for i, b in enumerate(f.bits) if b]


def parse_table(text: str) -> TruthTable:
    """Parse a truth table from its binary or "0x"-hex text form."""
    text = text.strip()
    if text.lower().startswith("0x"):
        digits = text[2:]
        if not digits or any(c not in "0123456789abcdefABCDEF" for c in digits):
            raise ParseError(f"invalid hex truth table {text!r}")
        bits = []
        for c in digits:
            v = int(c, 16)
            bits.extend(((v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1))
    else:
        if not text or any(c not in "01" for c in text):
            raise ParseError(f"invalid binary truth table {text!r}")
        bits = [int(c) for c in text]
    n = len(bits).bit_length() - 1
    if 1 << n != len(bits) or n < 1:
        raise ParseError(f"table length {len(bits)} is not 2^n for some n >= 1")
    if n > MAX_VARS:
        raise ParseError(f"table implies n={n}, above the cap of {MAX_VARS}")
    return TruthTable(n, tuple(bits))


def format_table(f: TruthTable, style: str = "bin") -> str:
    """Render a table as a binary string or a "0x"-hex string."""
    if style == "bin":
        return "".join(str(b) for b in f.bits)
    if style == "hex":
        if f.n < 2:
            raise ValueError("hex form requires n >= 2")
        chars = []
        for j in range(0, f.size, 4):
            b = f.bits
            chars.append("0123456789abcdef"[b[j] << 3 | b[j + 1] << 2 | b[j + 2] << 1 | b[j + 3]])
        return "0x" + "".join(chars)
    raise ValueError(f"unknown style {style!r}")
