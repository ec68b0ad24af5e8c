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

# Table entries by value: True and 1.0 are stored as the int 1.
_BITS = {0: 0, 1: 1}


@dataclass(frozen=True)
class TruthTable:
    """The full output table of a Boolean function on B^n.

    ``bits`` is stored as a tuple of Python ints whatever sequence is
    passed, so equal tables compare equal, hash alike and print alike.
    """

    n: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "bits", tuple(map(_BITS.__getitem__, self.bits)))
        except (KeyError, TypeError):
            raise ValueError("table entries must be 0 or 1") from None
        if not 1 <= self.n <= MAX_VARS:
            raise ValueError(f"variable count must be in 1..{MAX_VARS}, got {self.n}")
        if len(self.bits) != 1 << self.n:
            raise ValueError(
                f"table for n={self.n} needs {1 << self.n} bits, got {len(self.bits)}"
            )

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
        idx |= int(x) << i
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
    """Build a table from any bit sequence of length 2^n, checked as :class:`TruthTable` does."""
    bits = tuple(bits)
    n = len(bits).bit_length() - 1
    if n < 1 or 1 << n != len(bits):
        raise ValueError(f"bit sequence length {len(bits)} is not 2^n for some n >= 1")
    return TruthTable(n, bits)


def _index(n: int, X: InputVector) -> int:
    """Table index of X; DimensionMismatch unless it has n entries, ValueError unless 0/1."""
    if len(X) != n:
        raise DimensionMismatch(f"vector has {len(X)} entries, function has {n} variables")
    return index_of(X)


def _check_same(f: TruthTable, g: TruthTable) -> None:
    if f.n != g.n:
        raise DimensionMismatch(f"operands have {f.n} and {g.n} variables")


def evaluate(f: TruthTable, X: InputVector) -> int:
    """f(X)."""
    return f.bits[_index(f.n, X)]


def xor(f: TruthTable, g: TruthTable) -> TruthTable:
    """Pointwise exclusive-or of two functions on the same variables."""
    _check_same(f, g)
    return TruthTable(f.n, tuple(a ^ b for a, b in zip(f.bits, g.bits)))


def flip_at(g: TruthTable, Y: InputVector) -> TruthTable:
    """The function that differs from g exactly at Y (an involution)."""
    idx = _index(g.n, Y)
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
    # the entries with x_i = b: blocks of 2^(i-1), one every 2^i from b * 2^(i-1)
    block = 1 << (i - 1)
    bits = []
    for start in range(b * block, f.size, 2 * block):
        bits.extend(f.bits[start : start + block])
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
        text = format(int(digits, 16), f"0{4 * len(digits)}b")
    elif not text or any(c not in "01" for c in text):
        raise ParseError(f"invalid binary truth table {text!r}")
    n = len(text).bit_length() - 1
    if 1 << n != len(text) or n < 1:
        raise ParseError(f"table length {len(text)} is not 2^n for some n >= 1")
    if n > MAX_VARS:
        raise ParseError(f"table implies n={n}, above the cap of {MAX_VARS}")
    return TruthTable(n, tuple(map(int, text)))


def format_table(f: TruthTable, style: str = "bin") -> str:
    """Render a table as a binary string or a "0x"-hex string."""
    text = "".join(map(str, f.bits))
    if style == "bin":
        return text
    if style == "hex":
        if f.n < 2:
            raise ValueError("hex form requires n >= 2")
        # int-string digit limits exempt power-of-two bases, so n = 16 converts
        return "0x" + format(int(text, 2), f"0{f.size // 4}x")
    raise ValueError(f"unknown style {style!r}")
