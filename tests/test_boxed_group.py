"""A group whose elements are boxes: no arithmetic, no ordering, no int.

`BoxedGroup` is the group of its modulus with every element it hands out
wrapped in a `Box`, which compares equal only to another box and hashes.
Any other use of one, an int where a box belongs, or a comparison of a box
with anything else raises `TypeError`.  Runs through it must give the int
group's transcripts and verdicts, byte for byte and error text for error
text: so no module but group.py looks inside an element, and another group
is a subclass of `GroupParams` that touches no other module."""

import random
from dataclasses import dataclass, field

import pytest

from conftest import Q384, load_script
from test_protocols import DIFFERENTIAL_RUNS
from zkmech import sigma
from zkmech.codec import encode_uints, transcript_dumps
from zkmech.group import GroupParams, derive_generators, params_from_modulus
from zkmech.protocols import MechanismSpec, run_local

TOY_SEED = b"acceptance reference string"  # criteria 1 and 12


class Box:
    """An element of `BoxedGroup`."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __eq__(self, other):
        return unbox(other) == self.value

    def __hash__(self):
        return hash(self.value)


def unbox(x) -> int:
    if type(x) is not Box:
        raise TypeError(f"a {type(x).__name__} where an element of the boxed group belongs")
    return x.value


@dataclass(frozen=True)
class BoxedGroup(GroupParams):
    """The int group of its q, every element boxed: each method unboxes the
    elements it is given, asks the int group, and boxes the ones it gets."""

    ints: GroupParams = field(init=False, repr=False, compare=False)
    identity = Box(1)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "ints", GroupParams(self.q, self.p, self.bit_length))

    def is_member(self, x):
        return self.ints.is_member(unbox(x))

    def require_member(self, x):
        self.ints.require_member(unbox(x))
        return x

    def mul(self, a, b):
        return Box(self.ints.mul(unbox(a), unbox(b)))

    def pow(self, base, e):
        return Box(self.ints.pow(unbox(base), e))

    def sample_member(self, rng):
        return Box(self.ints.sample_member(rng))

    def generators(self, seed):
        return tuple(map(Box, self.ints.generators(seed)))

    def encode_elements(self, xs):
        return self.ints.encode_elements([unbox(x) for x in xs])

    def read_elements(self, r, count, what, **flags):
        return [Box(v) for v in self.ints.read_elements(r, count, what, **flags)]

    def in_range(self, rows):
        return self.ints.in_range([[unbox(x) for x in row] for row in rows])

    def _keep_tables(self, *bases):
        self.ints._keep_tables(*map(unbox, bases))

    def pow_unchecked(self, base, e):
        return Box(self.ints.pow_unchecked(unbox(base), e))

    def multi_pow(self, pairs):
        return Box(self.ints.multi_pow([(unbox(base), e) for base, e in pairs]))


def both_groups(q: int, seed: bytes):
    """The reference strings of `seed` in the int group mod q and its boxed twin."""
    params = params_from_modulus(q)
    boxed = BoxedGroup(params.q, params.p, params.bit_length)
    return derive_generators(params, seed), derive_generators(boxed, seed)


def same_run(refs, verdict, spec, values, seed, coin=None, mask=None) -> str:
    """The text of one seeded run, made in each group of `refs`, which must
    give one outcome and one transcript, and which a replay in each group
    must accept with that outcome."""
    runs = set()
    for ref in refs:
        rngs = random.Random(f"{seed}/seller"), random.Random(f"{seed}/buyer")
        out, tr = run_local(ref, spec, values, *rngs, coin_value=coin, mask_value=mask)
        text = transcript_dumps(tr)
        assert verdict(ref.params, text) == repr(out), seed
        runs.add((out, text))
    ((_, text),) = runs
    return text


def test_a_box_is_no_int():
    box = Box(4)
    assert box == Box(4) and box != Box(2) and {box: 1}[Box(4)] == 1
    misuses = (lambda: box == 4, lambda: 1 != box, lambda: box < Box(5), lambda: encode_uints([box]))
    for misuse in misuses:
        with pytest.raises(TypeError):
            misuse()


def test_a_leak_past_the_group_raises_type_error(monkeypatch):
    """A first message written as ints, not through the group, is caught."""
    monkeypatch.setattr(
        sigma, "encode_first", lambda params, first: encode_uints(a for row in first.alphas for a in row)
    )
    _, boxed = both_groups(23, TOY_SEED)
    with pytest.raises(TypeError):
        run_local(boxed, MechanismSpec("ex1", 8, (5,)), [3], random.Random(1), random.Random(2))


def test_criterion_1_runs_give_the_int_groups_transcripts_and_verdicts():
    script = load_script("compare_transcripts")
    refs = both_groups(23, TOY_SEED)
    runs = 0
    for label, _, spec_args, values, coin, mask in script.grid():
        spec = MechanismSpec(*spec_args[:3], n_buyers=spec_args[3] if len(spec_args) > 3 else 1)
        same_run(refs, script._verdict, spec, values, label, coin, mask)
        runs += 1
    assert runs == 4678


def test_384_bit_differential_runs_give_the_int_groups_transcripts_and_verdicts():
    script = load_script("compare_transcripts")
    refs = both_groups(Q384, b"test reference string")
    for n, (spec, values, coin, mask) in enumerate(DIFFERENTIAL_RUNS):
        same_run(refs, script._verdict, spec, values, f"boxed/{n}", coin, mask)


def test_criterion_12_mutants_give_the_int_groups_verdicts():
    """Criterion 12's 500 single-bit mutants, drawn as it draws them: each
    is rejected, with one error text in both groups.  A flipped seed frame
    that still carries a seed derives g and h again, in each group."""
    script = load_script("compare_transcripts")
    refs = both_groups(23, TOY_SEED)
    victims = [
        same_run(refs, script._verdict, MechanismSpec("ex1", 8, (5,)), [3], "c12/ex1"),
        same_run(refs, script._verdict, MechanismSpec("ex3", 8, (2, 5)), [7], "c12/ex3a", 1, 0),
        same_run(refs, script._verdict, MechanismSpec("ex3", 8, (1, 2)), [7], "c12/ex3b"),
    ]
    rng = random.Random("criterion-12")
    reseeded = 0
    for i in range(500):
        lines = victims[i % len(victims)].splitlines()
        idx = 1 + rng.randrange(len(lines) - 1)  # the seed frame, then each message
        blob = bytearray.fromhex(lines[idx])
        bit = rng.randrange(len(blob) * 8)
        blob[bit // 8] ^= 1 << (bit % 8)
        lines[idx] = blob.hex()
        text = "\n".join(lines) + "\n"
        (verdict,) = {script._verdict(ref.params, text) for ref in refs}
        assert not verdict.startswith("Outcome("), (i, verdict)
        reseeded += idx == 1 and bit >= 8 * 5  # past the tag and the length: a new seed
    assert reseeded >= 5
