"""Compare the seeded transcripts of two source trees, byte for byte.

    python scripts/compare_transcripts.py OTHER_SRC
    python scripts/compare_transcripts.py REVISION

The runs are those of acceptance criterion 1: every price and report
vector of the five kinds in the q=23 group, with the same seeds and coins.
The first three runs of each kind and case run again in a 384-bit group,
where membership tests and powers of g and h take their large-group paths.
Then come the two-party pricing runs (`run_mpc_local`): every price and
value at H = 2, 4 and 8 in the q=23 group, and the first three of each H
and trade/no-trade case again at 384 bits.  Last come the runs whose coin
and mask the sessions draw from their own rngs, as a seeded `demo` does:
every ex3 lottery input at H = 8 and every ex4 trade input at H = 2, 4
and 8, at q=23 and, the first three of each case, at 384 bits.
Each run of the five kinds in the first block, at q=23 and at 384 bits,
is then replayed, as `zkmech verify` replays a transcript file, and so is
one mutant per frame of its text, with one seeded bit of that frame
flipped; each verdict is a line too.  So the q=23 replays, which check
each term as it comes, and the 384-bit ones, which batch them, are both
gated with their error texts.
The grid runs once with this checkout's `src/` on the path and once with
OTHER_SRC, a directory, or with the `src/` of a git REVISION of this
repository (such as HEAD~1), which `git archive` extracts into a
temporary directory that is removed afterwards.
For each kind and mechanism case it prints how many transcripts are
identical and how many differ, then how many verdicts in each group (on
an unchanged tree: 4,978 transcripts, 31,804 verdicts at q=23 and 279 at
384 bits); cases are named from the mechanism definitions, not from the
package.  It exits 1 when any transcript or verdict differs, so it can
gate a change that must keep every byte and every accept or reject, with
its error text, and 2 when the argument is neither a directory nor a
revision.
"""

from __future__ import annotations

import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from itertools import product

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
HERE_SRC = os.path.join(REPO, "src")
# The benchmark's 384-bit safe prime (perfbench/sessions.py, BENCH_Q384).
Q384 = int(
    "800000000000000000000000000000003de0f8454efdc61b6bdd877025aaf1a7"
    "43f3324fe4739628062c71cd6648215f",
    16,
)
WIDE_PER_CASE = 3


def grid():
    """(label, case, spec arguments, values, coin, mask) as criterion 1 runs them."""
    for s, v in product(range(8), repeat=2):
        yield f"c1/ex1/{s}/{v}", "trade" if s <= v else "none", ("ex1", 8, (s,)), [v], None, None
    for s, v1, v2 in product(range(4), repeat=3):
        top, second = max(v1, v2), min(v1, v2)
        case = "above" if s > top else "between" if s > second else "below"
        yield f"c1/m/{s}/{v1}/{v2}", case, ("ex1multi", 4, (s,), 2), [v1, v2], None, None
    for s1, s2, v1, v2 in product(range(8), repeat=4):
        gains = [v1 - s1 if v1 >= s1 else None, v2 - s2 if v2 >= s2 else None]
        if gains == [None, None]:
            case = "none"
        elif gains[1] is None or (gains[0] is not None and gains[0] >= gains[1]):
            case = "item0"
        else:
            case = "item1"
        yield f"c1/ex2/{s1}{s2}{v1}{v2}", case, ("ex2", 8, (s1, s2)), [v1, v2], None, None
    for s1 in range(8):
        for s2 in range(s1, 8):
            for v in range(8):
                case = "nothing" if 2 * s1 > v else "lottery" if 2 * s2 > v else "full"
                x, y = (v ^ s1) & 1, (v ^ s2) & 1
                yield f"c1/ex3/{s1}{s2}{v}", case, ("ex3", 8, (s1, s2)), [v], x, y
    for s, v in product(range(4), repeat=2):
        if v < s:
            yield f"c1/ex4/{s}/{v}", "none", ("ex4", 4, (s,)), [v], None, None
        else:
            for x, y in product(range(4), repeat=2):
                yield f"c1/ex4/{s}{v}{x}{y}", "coin", ("ex4", 4, (s,)), [v], x, y


def draw_grid():
    """(label, case, spec arguments, values) of the runs with drawn coins."""
    for s1 in range(8):
        for s2 in range(s1, 8):
            for v in range(2 * s1, min(2 * s2, 8)):  # s1 <= v/2 < s2: the lottery
                yield f"draw/ex3/{s1}{s2}{v}", "drawn", ("ex3", 8, (s1, s2)), [v]
    for bound in (2, 4, 8):
        for s in range(bound):
            for v in range(s, bound):
                yield f"draw/ex4/H{bound}/{s}/{v}", f"H{bound}/drawn", ("ex4", bound, (s,)), [v]


def mpc_grid():
    """(label, case, price, value, bound); a trade exactly when price <= value."""
    for bound in (2, 4, 8):
        for s, v in product(range(bound), repeat=2):
            yield f"mpc/H{bound}/{s}/{v}", f"H{bound}/{'trade' if s <= v else 'none'}", s, v, bound


def _refs():
    from zkmech.group import derive_generators, params_from_modulus

    seed = b"acceptance reference string"
    return [derive_generators(params_from_modulus(q), seed) for q in (23, Q384)]


def _digest(transcript) -> str:
    from zkmech.codec import transcript_dumps

    return hashlib.sha256(transcript_dumps(transcript).encode()).hexdigest()


def grid_transcripts():
    """(ref, label, kind/case, transcript) for each run of `grid`: every one
    in the q=23 group, and the first WIDE_PER_CASE of each kind and case
    again at 384 bits, under a label that starts with `q384/`."""
    import random

    from zkmech.protocols import MechanismSpec, run_local

    toy, wide = _refs()
    per_case = Counter()
    for label, case, spec_args, values, coin, mask in grid():
        spec = MechanismSpec(*spec_args[:3], n_buyers=spec_args[3] if len(spec_args) > 3 else 1)
        per_case[spec.kind, case] += 1
        runs = [(toy, label)]
        if per_case[spec.kind, case] <= WIDE_PER_CASE:
            runs.append((wide, f"q384/{label}"))
        for ref, name in runs:
            _, tr = run_local(
                ref,
                spec,
                values,
                random.Random(f"{name}/seller"),
                random.Random(f"{name}/buyer"),
                coin_value=coin,
                mask_value=mask,
            )
            yield ref, name, f"{spec.kind}/{case}", tr


def emit_lines():
    """One line per run of the five kinds, as `--emit` prints it: label,
    kind/case and the digest of the transcript text, tab-separated."""
    for _, name, case, tr in grid_transcripts():
        yield f"{name}\t{case}\t{_digest(tr)}"


def emit_draw_lines():
    """One line per run of `draw_grid`, in the form of `emit_lines`; the
    seller draws its coin and the buyer its mask."""
    import random

    from zkmech.protocols import MechanismSpec, run_local

    toy, wide = _refs()
    per_case = Counter()
    for label, case, spec_args, values in draw_grid():
        spec = MechanismSpec(*spec_args)
        per_case[spec.kind, case] += 1
        runs = [(toy, label)]
        if per_case[spec.kind, case] <= WIDE_PER_CASE:
            runs.append((wide, f"q384/{label}"))
        for ref, name in runs:
            rngs = random.Random(f"{name}/seller"), random.Random(f"{name}/buyer")
            _, tr = run_local(ref, spec, values, *rngs)
            yield f"{name}\t{spec.kind}/{case}\t{_digest(tr)}"


def emit_mpc_lines():
    """One line per two-party pricing run, in the form of `emit_lines`."""
    import random

    from zkmech.mpc import run_mpc_local

    toy, wide = _refs()
    per_case = Counter()
    for label, case, price, value, bound in mpc_grid():
        per_case[case] += 1
        runs = [(toy, label)]
        if per_case[case] <= WIDE_PER_CASE:
            runs.append((wide, f"q384/{label}"))
        for ref, name in runs:
            rngs = random.Random(f"{name}/seller"), random.Random(f"{name}/buyer")
            _, _, tr = run_mpc_local(ref, price, value, bound, *rngs)
            yield f"{name}\tmpc/{case}\t{_digest(tr)}"


def _verdict(params, text: str) -> str:
    """What replaying a transcript's text gives: the outcome, or the text of
    the `VerificationFailed` or `CodecError` that rejects it."""
    from zkmech.codec import transcript_loads
    from zkmech.errors import ZkmechError
    from zkmech.group import derive_generators
    from zkmech.protocols import verify_transcript

    try:
        transcript = transcript_loads(text)
        ref = derive_generators(params, transcript.seed)
        verdict = repr(verify_transcript(ref, transcript))
    except ZkmechError as exc:
        verdict = f"{type(exc).__name__}: {exc}"
    return verdict.replace("\t", " ").replace("\n", " ")


def emit_reject_lines():
    """For each run of `emit_lines`, the verdict of its text, then the
    verdict of each mutant with one seeded bit of one frame flipped: label,
    kind/case and the verdict, tab-separated."""
    import random

    from zkmech.codec import transcript_dumps

    for ref, name, case, tr in grid_transcripts():
        text = transcript_dumps(tr)
        yield f"verdict/{name}\t{case}\t{_verdict(ref.params, text)}"
        lines = text.splitlines()
        flips = random.Random(f"{name}/flips")
        for i in range(1, len(lines)):  # the seed frame, then each message
            blob = bytearray.fromhex(lines[i])
            bit = flips.randrange(len(blob) * 8)
            blob[bit // 8] ^= 1 << (bit % 8)
            mutant = "\n".join([*lines[:i], blob.hex(), *lines[i + 1 :]]) + "\n"
            yield f"verdict/{name}/frame{i}\t{case}\t{_verdict(ref.params, mutant)}"


def emit() -> None:
    for line in emit_lines():
        print(line)
    for line in emit_mpc_lines():
        print(line)
    for line in emit_draw_lines():
        print(line)
    for line in emit_reject_lines():
        print(line)


def run_tree(src: str) -> dict[str, tuple[str, str]]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--emit"],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    rows = (line.split("\t") for line in out.splitlines())
    return {label: (case, value) for label, case, value in rows}


def revision_src(revision: str, into: str) -> str | None:
    """The `src/` of git `revision`, extracted under `into`; None if git
    cannot archive it."""
    archive = subprocess.run(
        ["git", "-C", REPO, "archive", "--format=tar", revision, "src"], capture_output=True
    )
    if archive.returncode != 0:
        print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
        return None
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return os.path.join(into, "src")


def main(argv: list[str]) -> int:
    if argv == ["--emit"]:
        emit()
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        other = argv[0] if os.path.isdir(argv[0]) else revision_src(argv[0], tmp)
        if other is None:
            print(f"{argv[0]} is neither a directory nor a git revision", file=sys.stderr)
            return 2
        ours, theirs = run_tree(HERE_SRC), run_tree(other)
    if ours.keys() != theirs.keys():
        print("the two trees ran different grids", file=sys.stderr)
        return 1
    same, changed = Counter(), Counter()
    verdicts = Counter()
    for label, (case, value) in ours.items():
        if label.startswith("verdict/"):
            group = "q384" if label.startswith("verdict/q384/") else "q=23"
            verdicts[group, value == theirs[label][1]] += 1
            if value != theirs[label][1]:
                print(f"{label}: {value} | {theirs[label][1]}", file=sys.stderr)
            continue
        (same if value == theirs[label][1] else changed)[case] += 1
    for case in sorted(same.keys() | changed.keys()):
        print(f"{case:16} identical {same[case]:5}  changed {changed[case]:5}")
    print(f"{'total':16} identical {sum(same.values()):5}  changed {sum(changed.values()):5}")
    for group in ("q=23", "q384"):
        name = f"verdicts {group}"
        print(f"{name:16} identical {verdicts[group, True]:5}  changed {verdicts[group, False]:5}")
    return 1 if changed or verdicts["q=23", False] or verdicts["q384", False] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
