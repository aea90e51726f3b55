"""Time the fixed-base table kernel against built-in `pow`.

    PYTHONPATH=src python3 scripts/kernel_times.py

At 384 bits (the benchmark's group) and 2048 bits (RFC 3526) it prints
the median time of one table power of g over seeded exponents below p,
of one `pow(g, e, q)` over the same exponents, and of one table build,
with the entries per table.  It reads `group._build_table` and
`group._table_pow` directly, so the group's table lookup and
`pow_unchecked` add nothing, and checks 50 table powers against `pow`.
Run it in two checkouts to compare their kernels.
"""

from __future__ import annotations

import random
import statistics
import time

from zkmech import group
from zkmech.group import RFC3526_MODP_2048, derive_generators, params_from_modulus

Q384 = int(
    "800000000000000000000000000000003de0f8454efdc61b6bdd877025aaf1a7"
    "43f3324fe4739628062c71cd6648215f",
    16,
)
# (modulus, powers timed, builds timed)
SIZES = [(Q384, 2000, 15), (RFC3526_MODP_2048, 200, 5)]


def timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def main() -> None:
    print(f"{'bits':>5} {'table pow us':>13} {'pow us':>9} {'ratio':>6} {'build ms':>9} {'entries':>8}")
    for q, n_pows, n_builds in SIZES:
        params = params_from_modulus(q)
        g = derive_generators(params, b"kernel times").g
        rows = group._build_table(q, g)
        rng = random.Random(params.bit_length)
        es = [rng.randrange(params.p) for _ in range(n_pows)]
        for e in es[:50]:
            if group._table_pow(rows, e, q) != pow(g, e, q):
                raise SystemExit(f"table power differs from pow at {params.bit_length} bits")
        # Each exponent's table power and `pow` run back to back, so that
        # the ratio of the medians sees the same machine load.
        pairs = [(timed(group._table_pow, rows, e, q), timed(pow, g, e, q)) for e in es]
        table_s = statistics.median(t for t, _ in pairs)
        pow_s = statistics.median(t for _, t in pairs)
        build_s = statistics.median(timed(group._build_table, q, g) for _ in range(n_builds))
        entries = sum(len(row) for row in rows)
        print(
            f"{params.bit_length:>5} {table_s * 1e6:>13.1f} {pow_s * 1e6:>9.1f} "
            f"{table_s / pow_s:>6.3f} {build_s * 1e3:>9.2f} {entries:>8}"
        )


if __name__ == "__main__":
    main()
