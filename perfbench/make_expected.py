#!/usr/bin/env python3
"""Regenerate the expected-answers files under ``perfbench/expected``.

The files pin the answers the library gave when the benchmark was defined,
so every later run can require identical answers:

* ``orders_n2_n4.json``: the minimal order of every function on 2, 3 and 4
  variables (used by ``census4`` and ``cli-mix``).  Its threshold set is
  cross-checked here against the independent integer-weight oracle.
* ``order7.json``: a fixed pool of random 7-variable tables with their
  orders, plus the degree-3 answer for 7-variable parity.
* ``hov5.json``: a fixed pool of random 5-variable tables (and parity-5)
  with their orders and high-order vectors.

Tables are stored as integer codes: bit ``i`` of the code is the output at
table index ``i``.  Pools are drawn from fixed master seeds, so rerunning
this script reproduces the files as long as the library's answers hold.

Usage (about five minutes on one core)::

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ptfkit  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED_DIR,
    HOV5_POOL,
    ORDER7_POOL,
    index_of,
    parity_code,
    table_of,
    threshold_codes,
)

POOL_SEED = 20130101


def _write(name: str, data: dict) -> None:
    path = EXPECTED_DIR / name
    path.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(HERE.parent)}")


def orders_small() -> dict:
    out = {}
    for n in (2, 3, 4):
        digits = "".join(str(ptfkit.order(table_of(n, c))) for c in range(1 << (1 << n)))
        lp_threshold = {c for c, d in enumerate(digits) if int(d) <= 1}
        if lp_threshold != threshold_codes(n):
            raise SystemExit(f"n={n}: LP threshold set disagrees with the integer-weight oracle")
        out[str(n)] = digits
    return {"orders": out}


def random_pool(n: int, size: int, salt: int) -> list[int]:
    rng = random.Random(POOL_SEED + salt)
    return [rng.getrandbits(1 << n) for _ in range(size)]


def order7() -> dict:
    codes = random_pool(7, ORDER7_POOL, salt=7)
    parity = table_of(7, parity_code(7))
    return {
        "codes": [format(c, "x") for c in codes],
        "orders": [ptfkit.order(table_of(7, c)) for c in codes],
        "parity7_degree3_realizable": ptfkit.realize_at_degree(parity, 3) is not None,
    }


def hov5() -> dict:
    codes = [parity_code(5)] + random_pool(5, HOV5_POOL - 1, salt=5)
    orders, hovs = [], []
    for c in codes:
        g = table_of(5, c)
        orders.append(ptfkit.order(g))
        hovs.append([[index_of(h.Y), h.order_after] for h in ptfkit.high_order_vectors(g)])
    return {"codes": [format(c, "x") for c in codes], "orders": orders, "hov": hovs}


def main() -> None:
    EXPECTED_DIR.mkdir(exist_ok=True)
    _write("orders_n2_n4.json", orders_small())
    _write("order7.json", order7())
    _write("hov5.json", hov5())


if __name__ == "__main__":
    main()
