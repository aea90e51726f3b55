"""Canonical byte encodings, wire framing, and transcript file I/O.

Every protocol object has exactly one byte representation (minimal-length
big-endian integers, fixed-width counts), and decoding is strict: any
non-canonical form, wrong range, or trailing byte is a `CodecError`.
Strictness is load-bearing for tamper detection -- a mutated transcript
must never re-encode to something valid.  A message is read in place: a
length-prefixed part (an integer, a proof) is a `Reader` over the same
buffer, so a `CodecError` offset counts from the start of the message
payload.  A run of integers (a field of a proof) is read by one loop,
`Reader.uints`, with the checks and offsets of one `Reader.uint` per
integer.  The outcome message is the one exception to parsing: the
verifier computes the outcome the evidence implies, and the frame must be
exactly its canonical encoding.  The text form is strict too: H is
canonical ASCII decimal, and a frame line is the lowercase hex
`transcript_dumps` writes.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .errors import CodecError

# Protocol message tags (1 byte each).
TAG_SEED = 0x00  # transcript bookkeeping: the reference-string seed
TAG_COMMIT = 0x01
TAG_COMMIT_PROOF = 0x02
TAG_TYPE_REPORT = 0x03
TAG_REVEAL = 0x04
TAG_EVAL_PROOF = 0x05
TAG_COIN_PAIR = 0x06
TAG_COIN_MASK = 0x07
TAG_VERDICT = 0x08
TAG_OUTCOME = 0x09
# Two-party pricing computation (appendix-style extension tags).
TAG_MPC_COMMIT = 0x11
TAG_MPC_RESPONSE = 0x12
TAG_MPC_FINAL = 0x13

TRANSCRIPT_MAGIC = "zkmech/1"


# -- primitive encoders ----------------------------------------------------


def encode_uint(n: int) -> bytes:
    """4-byte big-endian length, then minimal big-endian magnitude."""
    if n < 0:
        raise CodecError("negative integer cannot be encoded")
    mag = n.to_bytes((n.bit_length() + 7) // 8, "big") if n else b""
    return len(mag).to_bytes(4, "big") + mag


def encode_uints(values: Iterable[int]) -> bytes:
    """`encode_uint` of each value, joined, in one loop: the mirror of
    `Reader.uints`."""
    out = []
    for n in values:
        if n < 0:
            raise CodecError("negative integer cannot be encoded")
        size = (n.bit_length() + 7) // 8
        out.append(size.to_bytes(4, "big"))
        out.append(n.to_bytes(size, "big"))
    return b"".join(out)


def describe_uint(n: int) -> str:
    """A wire integer as an error message shows it: its digits, or its bit
    length when it is too long for `str` (Python refuses integers of more
    than 4,300 digits, and a hostile frame can carry one)."""
    return str(n) if n.bit_length() <= 8192 else f"a {n.bit_length()}-bit integer"


def encode_u8(n: int) -> bytes:
    if not 0 <= n <= 0xFF:
        raise CodecError(f"u8 out of range: {n}")
    return bytes([n])


def encode_u16(n: int) -> bytes:
    if not 0 <= n <= 0xFFFF:
        raise CodecError(f"u16 out of range: {n}")
    return n.to_bytes(2, "big")


class Reader:
    """Cursor over immutable bytes up to `end`, with strict, offset-reporting reads."""

    def __init__(self, buf: bytes, offset: int = 0, end: int | None = None):
        self.buf = buf
        self.off = offset
        self.end = len(buf) if end is None else end

    def take(self, n: int) -> bytes:
        if self.off + n > self.end:
            raise CodecError("truncated input", offset=self.off)
        out = self.buf[self.off : self.off + n]
        self.off += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def _sized(self) -> tuple[int, int]:
        """(start, end) of the bytes behind a 4-byte length; moves past them."""
        start = self.off + 4
        if start > self.end:
            raise CodecError("truncated input", offset=self.off)
        end = start + int.from_bytes(self.buf[self.off : start], "big")
        if end > self.end:
            raise CodecError("truncated input", offset=start)
        self.off = end
        return start, end

    def span(self) -> Reader:
        """The bytes behind a 4-byte length as a reader over the same buffer; moves past them."""
        return Reader(self.buf, *self._sized())

    def uint(self) -> int:
        start, end = self._sized()
        if start < end and self.buf[start] == 0:
            raise CodecError("non-minimal integer encoding", offset=start)
        return int.from_bytes(self.buf[start:end], "big")

    def uints(self, n: int, lo: int, hi: int, what: str, named: bool = False) -> list[int]:
        """`n` integers in a row, each in [lo, hi]: the checks and offsets of
        `uint` per integer, in one loop.  An integer out of range is a
        "`what` out of range" named at its end, or with `named` a "`what`
        <its value> out of range", the value as `describe_uint` shows it."""
        buf, off, end = self.buf, self.off, self.end
        from_bytes = int.from_bytes
        out = []
        for _ in range(n):
            start = off + 4
            if start > end:
                raise CodecError("truncated input", offset=off)
            off = start + from_bytes(buf[off:start], "big")
            if off > end:
                raise CodecError("truncated input", offset=start)
            if start < off and buf[start] == 0:
                raise CodecError("non-minimal integer encoding", offset=start)
            v = from_bytes(buf[start:off], "big")
            if not lo <= v <= hi:
                shown = f"{what} {describe_uint(v)}" if named else what
                raise CodecError(f"{shown} out of range", offset=off)
            out.append(v)
        self.off = off
        return out

    def finish(self) -> None:
        if self.off != self.end:
            raise CodecError("trailing bytes", offset=self.off)


# -- framing ---------------------------------------------------------------


@dataclass(frozen=True)
class Message:
    """One tagged protocol message."""

    tag: int
    payload: bytes

    def frame(self) -> bytes:
        if not 0 <= self.tag <= 0xFF:
            raise CodecError(f"bad tag {self.tag}")
        return bytes([self.tag]) + len(self.payload).to_bytes(4, "big") + self.payload


def decode_frame(buf: bytes, offset: int = 0) -> tuple[Message, int]:
    """Decode one frame starting at `offset`; returns (message, next offset)."""
    r = Reader(buf, offset)
    tag = r.u8()
    start, end = r._sized()
    return Message(tag, buf[start:end]), end


def decode_single_frame(buf: bytes) -> Message:
    msg, end = decode_frame(buf)
    if end != len(buf):
        raise CodecError("trailing bytes after frame", offset=end)
    return msg


# -- Fiat-Shamir context ----------------------------------------------------


def seed_frame(seed: bytes) -> bytes:
    return Message(TAG_SEED, seed).frame()


# -- transcripts -------------------------------------------------------------


@dataclass
class Transcript:
    """The full ordered message log of one protocol run.

    Together with the group parameters this is sufficient for third-party
    re-verification; no secrets ever appear outside explicit reveal
    messages.
    """

    kind: str
    bound: int  # the public price bound H
    seed: bytes
    messages: list[Message] = field(default_factory=list)

    def tags(self) -> list[int]:
        return [m.tag for m in self.messages]


def transcript_dumps(t: Transcript) -> str:
    """Text form: header line, then one hex-encoded framed message per line."""
    lines = [f"{TRANSCRIPT_MAGIC} {t.kind} H={t.bound}"]
    lines.append(Message(TAG_SEED, t.seed).frame().hex())
    lines.extend(m.frame().hex() for m in t.messages)
    return "\n".join(lines) + "\n"


_DECIMAL = re.compile("0|[1-9][0-9]*")  # ASCII digits only, unlike str.isdigit


def transcript_header(line: str) -> tuple[str, int]:
    """The kind and the bound H named by a transcript's first line.  H is
    canonical ASCII decimal, as `transcript_dumps` writes it: no sign,
    separator or leading zero."""
    header = line.split(" ")
    if len(header) != 3 or header[0] != TRANSCRIPT_MAGIC or not header[2].startswith("H="):
        raise CodecError(f"bad header {line!r}", line=1)
    digits = header[2][2:]
    if not _DECIMAL.fullmatch(digits):
        raise CodecError("bad H= field", line=1)
    try:
        return header[1], int(digits)
    except ValueError:  # more digits than `int` converts
        raise CodecError("bad H= field", line=1) from None


def frame_line(line: str, lineno: int) -> Message | None:
    """The frame one line of a transcript carries in hex; None for a blank
    line.  The hex is lowercase, with no space inside the line, as
    `transcript_dumps` writes it."""
    line = line.strip()
    if not line:
        return None
    try:
        raw = bytes.fromhex(line)
    except ValueError:
        raise CodecError("invalid hex", line=lineno) from None
    if raw.hex() != line:
        raise CodecError("non-canonical hex", line=lineno)
    try:
        return decode_single_frame(raw)
    except CodecError as exc:
        raise CodecError(f"bad frame: {exc}", line=lineno) from None


def transcript_frames(lines: Iterable[tuple[int, str]]) -> tuple[bytes, Iterator[Message]]:
    """The seed and the messages of a transcript's numbered lines after its
    header.  The messages are decoded as they are read, so a reader that
    stops at a bad message reads no further."""
    frames = ((n, msg) for n, line in lines if (msg := frame_line(line, n)) is not None)
    lineno, seed = next(frames, (2, None))
    if seed is None or seed.tag != TAG_SEED:
        raise CodecError("the first frame must carry the seed", line=lineno)
    if not seed.payload:  # no reference string derives from it
        raise CodecError("the seed is empty", line=lineno)
    return seed.payload, (msg for _, msg in frames)


def transcript_loads(text: str) -> Transcript:
    lines = text.splitlines()
    if not lines:
        raise CodecError("empty transcript", line=1)
    kind, bound = transcript_header(lines[0])
    seed, messages = transcript_frames(enumerate(lines[1:], start=2))
    return Transcript(kind=kind, bound=bound, seed=seed, messages=list(messages))
