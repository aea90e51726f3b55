import hashlib
import pathlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import decode_proof, load_script, or_statement
from zkmech.codec import (
    Message,
    Reader,
    TAG_COMMIT,
    TAG_SEED,
    Transcript,
    decode_frame,
    decode_single_frame,
    describe_uint,
    encode_uint,
    encode_uints,
    transcript_dumps,
    transcript_loads,
)
from zkmech.errors import CodecError
from zkmech.group import RFC3526_MODP_2048, params_from_modulus
from zkmech.sigma import (
    CdsWitness,
    NiProof,
    SigmaResponse,
    encode_proof,
    encode_sized_proof,
    ni_prove,
    read_sized_proof,
)


class TestIntegers:
    def test_minimal_encoding_examples(self):
        assert encode_uint(5) == b"\x00\x00\x00\x01\x05"
        assert encode_uint(0) == b"\x00\x00\x00\x00"
        assert encode_uint(256) == b"\x00\x00\x00\x02\x01\x00"

    def test_a_run_encodes_as_its_integers_one_at_a_time(self):
        p = params_from_modulus(RFC3526_MODP_2048).p
        values = [0, 1, 255, 256, p - 1]
        assert encode_uints(values) == b"".join(encode_uint(x) for x in values)
        assert encode_uints(iter(values)) == encode_uints(values) and encode_uints([]) == b""
        r = Reader(encode_uints(values))
        assert r.uints(len(values), 0, p - 1, "value") == values
        r.finish()
        with pytest.raises(CodecError):
            encode_uints([1, -1])

    def test_non_minimal_rejected(self):
        r = Reader(b"\x00\x00\x00\x02\x00\x05")
        with pytest.raises(CodecError):
            r.uint()

    def test_truncation_reports_offset(self):
        r = Reader(b"\x00\x00\x00\x09\x01")
        with pytest.raises(CodecError) as err:
            r.uint()
        assert err.value.offset == 4

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=1 << 256))
    def test_round_trip(self, n):
        r = Reader(encode_uint(n))
        assert r.uint() == n
        r.finish()

    def test_trailing_bytes_rejected(self):
        r = Reader(encode_uint(5) + b"\x00")
        r.uint()
        with pytest.raises(CodecError):
            r.finish()


def outcome(read, *args):
    """What a read gives: ("ok", its result) or ("error", the CodecError's
    message, its offset)."""
    try:
        return "ok", read(*args)
    except CodecError as exc:
        return "error", str(exc), exc.offset


def uint_per_integer(
    r: Reader, n: int, lo: int, hi: int, what: str, named: bool = False
) -> list[int]:
    """The reference for `Reader.uints`: one `Reader.uint` at a time."""
    out = []
    for _ in range(n):
        v = r.uint()
        if not lo <= v <= hi:
            shown = f"{what} {describe_uint(v)}" if named else what
            raise CodecError(f"{shown} out of range", offset=r.off)
        out.append(v)
    return out


def read_run(read, buf: bytes, start: int, n: int, lo: int, hi: int, named: bool):
    r = Reader(buf, start)
    return read(r, n, lo, hi, "integer", named), r.off


class TestIntegerRuns:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 300), max_size=6),
        st.data(),
    )
    def test_matches_uint_per_integer(self, values, data):
        padded = data.draw(st.integers(-1, len(values) - 1))  # one leading zero byte

        def enc(n, v):
            out = encode_uint(v)
            return (len(out) - 3).to_bytes(4, "big") + b"\x00" + out[4:] if n == padded else out

        buf = bytearray(b"".join(enc(n, v) for n, v in enumerate(values)))
        if buf and data.draw(st.booleans()):  # a byte changed, dropped or added
            at = data.draw(st.integers(0, len(buf) - 1))
            how = data.draw(st.sampled_from(["set", "drop", "add"]))
            if how == "set":
                buf[at] = data.draw(st.integers(0, 255))
            elif how == "drop":
                del buf[at]
            else:
                buf.insert(at, data.draw(st.integers(0, 255)))
        n = data.draw(st.integers(0, len(values) + 1))
        lo = data.draw(st.integers(0, 8))
        hi = data.draw(st.sampled_from([1 << 301, 1 << 64, 255, 3]))
        start = data.draw(st.integers(0, 1))
        args = (bytes(buf), min(start, len(buf)), n, lo, hi, data.draw(st.booleans()))
        assert outcome(read_run, Reader.uints, *args) == outcome(read_run, uint_per_integer, *args)


# -- proofs read with one `Reader.uint` per integer ----------------------------


def reference_read_proof(r: Reader, params, shape) -> NiProof:
    """`sigma.read_proof` written with `Reader.uint` for every integer, each
    range-checked as it is read."""
    begin = r.off
    if r.take(2 + 2 * len(shape)) != shape_bytes(shape):
        raise CodecError("proof shape differs from statement", offset=begin)
    q, p = params.q, params.p

    def rows(lo, hi, what):
        return tuple(tuple(uint_per_integer(r, w, lo, hi, what)) for w in shape)

    alphas = rows(1, q - 1, "alpha")
    (challenge,) = uint_per_integer(r, 1, 1, p, "challenge")
    betas = tuple(uint_per_integer(r, len(shape), 0, p - 1, "per-row challenge"))
    gammas = rows(0, p - 1, "gamma")
    digest = r.take(32)
    return NiProof(alphas, challenge, SigmaResponse(betas, gammas), digest)


def reference_read_sized_proof(r: Reader, params, shape) -> NiProof:
    span = r.span()
    proof = reference_read_proof(span, params, shape)
    span.finish()
    return proof


@pytest.fixture(scope="module")
def groups(q23, q384):
    return {"q23": q23, "q384": q384, "q2048": params_from_modulus(RFC3526_MODP_2048)}


@st.composite
def proof_fields(draw, params):
    """A shape and the integers of a proof of it, each in its range."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    q, p = params.q, params.p

    def ints(lo, hi, n):
        # the ends of the range, small values and uniform ones
        pick = st.one_of(st.sampled_from([lo, hi]), st.integers(lo, min(hi, lo + 300)), st.integers(lo, hi))
        return [draw(pick) for _ in range(n)]

    cells = sum(shape)
    return shape, {
        "alpha": ints(1, q - 1, cells),
        "challenge": ints(1, p, 1),
        "beta": ints(0, p - 1, len(shape)),
        "gamma": ints(0, p - 1, cells),
    }


FIELD_ORDER = ("alpha", "challenge", "beta", "gamma")


def shape_bytes(shape) -> bytes:
    return len(shape).to_bytes(2, "big") + b"".join(w.to_bytes(2, "big") for w in shape)


def proof_body(head: bytes, ints, digest: bytes, enc) -> bytes:
    return head + b"".join(enc(f, n, v) for f in FIELD_ORDER for n, v in enumerate(ints[f])) + digest


MUTANTS = ("none", "bump", "shrink", "leading zero", "truncate", "trailing", "range", "outer", "shape")


class TestProofReader:
    """`read_sized_proof` against `reference_read_sized_proof` on honest
    bytes and on mutants of them: the same proof, or the same message at
    the same offset."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(["q23", "q384", "q2048"]), st.data())
    def test_matches_the_per_integer_reader(self, groups, group, data):
        params = groups[group]
        shape, ints = data.draw(proof_fields(params))
        digest = data.draw(st.binary(min_size=32, max_size=32))
        mutant = data.draw(st.sampled_from(MUTANTS))
        field = data.draw(st.sampled_from(FIELD_ORDER))
        at = data.draw(st.integers(0, len(ints[field]) - 1))
        if mutant == "range":  # one integer just past an end of its range
            lo, hi = {"alpha": (1, params.q - 1), "challenge": (1, params.p)}.get(field, (0, params.p - 1))
            ints[field][at] = data.draw(st.sampled_from([hi + 1, lo - 1] if lo else [hi + 1]))

        def enc(f, n, v):
            out = encode_uint(v)
            if (f, n) != (field, at):
                return out
            size = len(out) - 4
            if mutant == "bump":
                return (size + 1).to_bytes(4, "big") + out[4:]
            if mutant == "shrink" and size:
                return (size - 1).to_bytes(4, "big") + out[4:]
            if mutant == "leading zero":
                return (size + 1).to_bytes(4, "big") + b"\x00" + out[4:]
            return out

        head = shape_bytes(shape)
        if mutant == "shape":  # a row more or less, or one row wider
            other = data.draw(st.sampled_from([shape + (1,), shape[:-1], (shape[0] + 1, *shape[1:])]))
            head = shape_bytes(other)
        body = proof_body(head, ints, digest, enc)
        blob = len(body).to_bytes(4, "big") + body
        if mutant == "truncate":
            blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
        elif mutant == "trailing":  # inside the proof's length, or after it
            extra = data.draw(st.binary(min_size=1, max_size=2))
            inside = data.draw(st.booleans())
            blob = (len(body) + len(extra) * inside).to_bytes(4, "big") + body + extra
        elif mutant == "outer":
            blob = (len(body) + data.draw(st.sampled_from([-1, 1]))).to_bytes(4, "big") + body

        def read(reader, buf):
            r = Reader(buf)
            proof = reader(r, params, shape)
            return proof, r.off

        got = outcome(read, read_sized_proof, blob)
        assert got == outcome(read, reference_read_sized_proof, blob)
        if got[0] == "ok":
            proof, end = got[1]
            assert encode_sized_proof(proof) == blob[:end]
        if mutant == "none":
            assert got[0] == "ok"


class TestFrames:
    def test_round_trip(self):
        msg = Message(0x05, b"payload")
        decoded, end = decode_frame(msg.frame())
        assert decoded == msg and end == len(msg.frame())

    def test_truncated_frame(self):
        frame = Message(0x05, b"payload").frame()
        with pytest.raises(CodecError) as err:
            decode_single_frame(frame[:-2])
        assert err.value.offset is not None

    def test_trailing_garbage(self):
        frame = Message(0x05, b"x").frame()
        with pytest.raises(CodecError):
            decode_single_frame(frame + b"!")


class TestProofCodec:
    def test_round_trip_many_random_proofs(self, q23, rng):
        # canonical: decode(encode(x)) == x, and encode is injective
        g, h = 2, 4
        seen = set()
        for i in range(1000):
            k = rng.randrange(1, 4)
            exps = [rng.randrange(1, q23.p) for _ in range(k)]
            targets = [q23.pow(h, e) for e in exps]
            stmt = or_statement(q23, h, targets)
            row = rng.randrange(k)
            proof = ni_prove(
                stmt,
                CdsWitness(row=row, exps=(exps[row],)),
                b"ctx" + i.to_bytes(2, "big"),
                rng,
            )
            blob = encode_proof(proof)
            assert decode_proof(blob, q23, stmt.shape) == proof
            assert blob not in seen
            seen.add(blob)


class TestTranscriptFiles:
    def test_round_trip(self, tmp_path):
        t = Transcript(
            kind="ex1",
            bound=8,
            seed=b"\x01\x02",
            messages=[Message(TAG_COMMIT, b"abc"), Message(0x09, b"")],
        )
        text = transcript_dumps(t)
        again = transcript_loads(text)
        assert again == t
        assert text.splitlines()[0] == "zkmech/1 ex1 H=8"

    def test_corrupt_hex_line_reports_line_number(self):
        t = Transcript(kind="ex1", bound=8, seed=b"\x01", messages=[Message(1, b"a")])
        lines = transcript_dumps(t).splitlines()
        lines[2] = lines[2][:-1] + "zz"
        with pytest.raises(CodecError) as err:
            transcript_loads("\n".join(lines))
        assert err.value.line == 3

    def test_bad_header(self):
        with pytest.raises(CodecError):
            transcript_loads("nonsense header line\n")
        with pytest.raises(CodecError):
            transcript_loads("zkmech/1 ex1 H=x\n")

    # H as `transcript_dumps` writes it, and forms `int` would also read
    NON_CANONICAL_BOUNDS = ("08", "+8", "0_8", "\u0668", " 8", "8 ", "-8", "", "8\u200b")

    def test_the_bound_is_canonical_ascii_decimal(self):
        t = Transcript(kind="ex1", bound=8, seed=b"\x01", messages=[Message(TAG_COMMIT, b"a")])
        header, *rest = transcript_dumps(t).splitlines(keepends=True)
        assert header == "zkmech/1 ex1 H=8\n" and transcript_loads(header + "".join(rest)) == t
        for field in self.NON_CANONICAL_BOUNDS:
            text = f"zkmech/1 ex1 H={field}\n" + "".join(rest)
            with pytest.raises(CodecError) as err:
                transcript_loads(text)
            assert err.value.line == 1, field

    def test_frame_lines_are_lowercase_hex(self):
        t = Transcript(kind="ex1", bound=8, seed=b"\x01", messages=[Message(0x0A, b"\xab\xcd")])
        lines = transcript_dumps(t).splitlines()
        assert lines[2] == "0a00000002abcd"
        variants = {
            "upper case": lines[2].upper(),
            "one upper-case digit": lines[2][:-1] + "D",
            "a space between bytes": lines[2][:2] + " " + lines[2][2:],
            "a tab between bytes": lines[2][:2] + "\t" + lines[2][2:],
        }
        for name, line in variants.items():
            with pytest.raises(CodecError) as err:
                transcript_loads("\n".join([*lines[:2], line]) + "\n")
            assert err.value.line == 3, name
        # line ends and blank lines are read as before
        assert transcript_loads("\r\n".join(lines) + "\r\n") == t
        assert transcript_loads("\n".join([lines[0], "", lines[1], "  ", lines[2]])) == t

    def test_missing_seed_frame(self):
        text = "zkmech/1 ex1 H=8\n" + Message(TAG_COMMIT, b"").frame().hex() + "\n"
        with pytest.raises(CodecError):
            transcript_loads(text)

    def test_seed_frame_is_first(self):
        t = Transcript(kind="ex1", bound=8, seed=b"\x01", messages=[])
        lines = transcript_dumps(t).splitlines()
        msg = decode_single_frame(bytes.fromhex(lines[1]))
        assert msg.tag == TAG_SEED and msg.payload == b"\x01"


class TestDeterminism:
    def test_same_seeds_give_identical_transcripts(self, ref23):
        from zkmech.protocols import MechanismSpec, run_local

        spec = MechanismSpec("ex3", 8, (2, 5))
        runs = []
        for _ in range(2):
            out, tr = run_local(
                ref23, spec, [7], random.Random(42), random.Random(43)
            )
            runs.append(transcript_dumps(tr))
        assert runs[0] == runs[1]

    def test_golden_transcript_reverifies(self, q23):
        # a committed artifact: byte-stable encodings and hash derivations
        from zkmech.group import derive_generators
        from zkmech.protocols import Outcome, verify_transcript

        path = pathlib.Path(__file__).parent / "data" / "golden_ex1.transcript"
        t = transcript_loads(path.read_text())
        ref = derive_generators(q23, t.seed)
        outcome = verify_transcript(ref, t)
        assert outcome == Outcome(trade=False, item=None, payment=0, lottery=None)

    def test_seeded_grid_transcripts_are_pinned(self):
        # every seeded run of scripts/compare_transcripts.py (criterion 1's
        # grid at q=23, plus three runs per kind and case at 384 bits),
        # hashed as `--emit` prints it; a refactor must not move one byte
        text = "".join(line + "\n" for line in load_script("compare_transcripts").emit_lines())
        assert len(text.splitlines()) == 4717
        assert (
            hashlib.sha256(text.encode()).hexdigest()
            == "d6eb6c117190312075b8ab74ee65e5e2e89cbf5fac031e3de13c1ab901224a3c"
        )

    def test_seeded_drawn_coin_transcripts_are_pinned(self):
        # the runs of scripts/compare_transcripts.py whose coin and mask the
        # sessions draw from their seeded rngs (every ex3 lottery input at
        # H=8, every ex4 trade input at H=2, 4 and 8, and three per case at
        # 384 bits): a refactor must not move a draw
        text = "".join(line + "\n" for line in load_script("compare_transcripts").emit_draw_lines())
        assert len(text.splitlines()) == 161
        assert (
            hashlib.sha256(text.encode()).hexdigest()
            == "e4e598e5271eff058508b7a629b6f0f3d0b3d923d3bae6ebf2c96bfd8c6f7cd4"
        )
