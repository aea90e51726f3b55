"""Each group element that arrives from a peer is checked for subgroup
membership once, where it enters.  Replacing one with its negation q - x,
which is never a member because q = 3 (mod 4), must end in
`VerificationFailed` at that boundary: never another exception, never an
accept."""

import random
import re
from dataclasses import replace

import pytest

from zkmech.codec import (
    TAG_COIN_PAIR,
    TAG_COMMIT,
    TAG_EVAL_PROOF,
    TAG_OUTCOME,
    TAG_REVEAL,
    TAG_TYPE_REPORT,
    TAG_VERDICT,
    Reader,
    encode_uint,
)
from zkmech.errors import CodecError, VerificationFailed
from zkmech.mpc import (
    MAX_PRICE_SLOTS,
    BuyerResponse,
    decode_indicator,
    decode_response,
    encode_indicator,
    encode_response,
    mpc_buyer_respond,
    mpc_seller_commit,
    mpc_seller_finalize,
)
from zkmech.protocols import _LEAD, MechanismSpec, run_local, verify_transcript

GROUPS = ["ref23", "ref384"]


def substitute_uint(payload: bytes, offset: int, new) -> bytes:
    """The payload with the integer x encoded at `offset` replaced by new(x)."""
    r = Reader(payload, offset)
    x = r.uint()
    return payload[:offset] + encode_uint(new(x)) + payload[r.off :]


def sum_carry_offset(payload: bytes) -> int:
    r = Reader(payload, 1)  # claim byte, then the announced total
    r.uint()
    return r.off + 1  # past the carry commitment's width byte


# boundary -> (kind, prices, reports, which message, offset of its first element)
SITES = {
    "commitment": ("ex1", (5,), [3], lambda m: m.tag == TAG_COMMIT, lambda p: 2),
    "carry": (
        "ex3",
        (1, 2),
        [5],
        lambda m: m.tag == TAG_EVAL_PROOF and m.payload[:1] == _LEAD["sum", 0],
        sum_carry_offset,
    ),
    "borrow": ("ex4", (3,), [5], lambda m: m.tag == TAG_VERDICT, lambda p: 2),
    "coin pair": ("ex4", (3,), [5], lambda m: m.tag == TAG_COIN_PAIR, lambda p: 1),
}


def tampered_run(ref, site: str, new, offset=None):
    """An honest, verified run of `site`'s kind whose first element at that
    site, or the integer at `offset` of its message, is replaced by new(x)."""
    kind, prices, reports, pick, site_offset = SITES[site]
    offset = offset or site_offset
    _, transcript = run_local(
        ref, MechanismSpec(kind, 8, prices), reports, random.Random(1), random.Random(2)
    )
    assert verify_transcript(ref, transcript)
    i = next(i for i, m in enumerate(transcript.messages) if pick(m))
    msg = transcript.messages[i]
    bad = replace(msg, payload=substitute_uint(msg.payload, offset(msg.payload), new))
    messages = transcript.messages[:i] + [bad] + transcript.messages[i + 1 :]
    return replace(transcript, messages=messages)


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("site", sorted(SITES))
def test_protocol_boundary_rejects_a_non_member(request, group, site):
    ref = request.getfixturevalue(group)
    q = ref.params.q

    def negate(x):
        assert 2 <= x <= q - 2
        return q - x

    with pytest.raises(VerificationFailed, match="outside the subgroup"):
        verify_transcript(ref, tampered_run(ref, site, negate))


@pytest.mark.parametrize("group", GROUPS)
def test_coin_pair_rejects_the_identity_as_malformed(request, group):
    ref = request.getfixturevalue(group)
    with pytest.raises(VerificationFailed, match="malformed") as exc:
        verify_transcript(ref, tampered_run(ref, "coin pair", lambda x: 1))
    assert exc.value.phase == "coin"


@pytest.mark.parametrize("group", GROUPS)
def test_sum_total_out_of_range_fails_before_the_bundle_is_read(request, group):
    ref = request.getfixturevalue(group)
    with pytest.raises(VerificationFailed, match="announced total 16 out of range") as exc:
        verify_transcript(ref, tampered_run(ref, "carry", lambda x: 16, offset=lambda p: 1))
    assert exc.value.phase == "evaluate"


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("substitute", ["non-member", "identity"])
def test_mpc_indicator_rejects_a_bad_element(request, group, substitute):
    ref = request.getfixturevalue(group)
    q = ref.params.q
    ic, _ = mpc_seller_commit(ref, 2, 4, random.Random(1))
    coms = (q - ic.coms[0] if substitute == "non-member" else 1,) + ic.coms[1:]
    seen = decode_indicator(ref, encode_indicator(replace(ic, coms=coms)))
    with pytest.raises(VerificationFailed):
        mpc_buyer_respond(ref, seen, 3, random.Random(2))


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize(
    "case", ["ks", "zs", "empty", "short", "long", "uneven", "count65", "count255"]
)
def test_mpc_response_rejects_a_non_member(request, group, case):
    """A hostile response to a price-2, H=4 commitment: an element at the
    seller's slot outside the subgroup (in ks or zs), and a slot count that
    is not the indicator's (none, 3, 5, or 4 commitments with 3 masked
    values, which no payload can carry), end in `VerificationFailed`; a
    count above MAX_PRICE_SLOTS is a `CodecError` at offset 0, whether the
    slots follow or not, and a MAX_PRICE_SLOTS response still decodes."""
    ref = request.getfixturevalue(group)
    q = ref.params.q
    price = 2
    ic, secrets = mpc_seller_commit(ref, price, 4, random.Random(1))
    resp, _ = mpc_buyer_respond(ref, ic, 3, random.Random(2))
    if case.startswith("count"):
        count = int(case[len("count") :])
        for payload in (bytes([count]), bytes([count]) + encode_response(resp)[1:]):
            with pytest.raises(CodecError, match=f"^{count} price slots") as err:
                decode_response(payload)
            assert err.value.offset == 0
        widest = BuyerResponse(resp.ks[:1] * MAX_PRICE_SLOTS, resp.zs[:1] * MAX_PRICE_SLOTS)
        assert decode_response(encode_response(widest)) == widest
        return
    if case in ("ks", "zs"):
        values = list(getattr(resp, case))
        values[price] = q - values[price]
        resp = replace(resp, **{case: tuple(values)})
    ks, zs = resp.ks, resp.zs
    hostile = {
        "empty": BuyerResponse((), ()),
        "short": BuyerResponse(ks[:3], zs[:3]),
        "long": BuyerResponse(ks + ks[:1], zs + zs[:1]),
        "uneven": BuyerResponse(ks, zs[:3]),
    }.get(case, BuyerResponse(ks, zs))
    seen = hostile if case == "uneven" else decode_response(encode_response(hostile))
    match = "outside the subgroup" if case in ("ks", "zs") else "slot count differs"
    with pytest.raises(VerificationFailed, match=match) as err:
        mpc_seller_finalize(ref, secrets, seen)
    assert err.value.phase == "mpc-response"


# An out-of-range integer inside a proof is named at an offset that counts
# from the start of the message payload: at or past the bad integer and
# inside the proof that carries it.


def proof_fields(r: Reader) -> dict[str, int]:
    """Where the first alpha, the challenge, the first per-row challenge and
    the first gamma of the proof `r` spans begin."""
    k = r.u16()
    cells = sum(r.u16() for _ in range(k))
    at = {"alpha": r.off}
    for _ in range(cells):
        r.uint()
    at["challenge"] = r.off
    r.uint()
    at["per-row challenge"] = r.off
    for _ in range(k):
        r.uint()
    at["gamma"] = r.off
    return at


def coin_proofs(payload: bytes) -> list[Reader]:
    r = Reader(payload)
    pairs = r.u8()
    for _ in range(2 * pairs):
        r.uint()
    return [r.span() for _ in range(2 * pairs)]


def bundle_proofs(payload: bytes) -> list[Reader]:
    r = Reader(payload, 1)  # past the claim byte
    spans = []
    for _ in range(r.u16()):
        r.u16()
        spans.append(r.span())
    return spans


def all_ones(x: int) -> int:
    """x's encoded length, every bit set: above q and p when x is as long."""
    assert x > 0
    return (1 << 8 * ((x.bit_length() + 7) // 8)) - 1


# site -> (kind, prices, reports, which message, its proofs, which proof, field)
PROOF_SITES = {
    "coin gamma": ("ex4", (3,), [5], lambda m: m.tag == TAG_COIN_PAIR, coin_proofs, 2, "gamma"),
    "ex1 no-trade alpha": (
        "ex1", (6,), [2], lambda m: m.tag == TAG_EVAL_PROOF, bundle_proofs, 1, "alpha"
    ),
}


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("site", sorted(PROOF_SITES))
def test_a_bad_proof_integer_is_named_at_its_payload_offset(request, group, site):
    ref = request.getfixturevalue(group)
    kind, prices, reports, pick, proofs, which, field = PROOF_SITES[site]
    spec = MechanismSpec(kind, 8, prices)
    _, transcript = run_local(ref, spec, reports, random.Random(1), random.Random(2))
    i = next(i for i, m in enumerate(transcript.messages) if pick(m))
    msg = transcript.messages[i]
    span = proofs(msg.payload)[which]
    at = proof_fields(Reader(msg.payload, span.off, span.end))[field]
    bad = replace(msg, payload=substitute_uint(msg.payload, at, all_ones))
    messages = transcript.messages[:i] + [bad] + transcript.messages[i + 1 :]
    with pytest.raises(VerificationFailed, match=f"{field} out of range") as exc:
        verify_transcript(ref, replace(transcript, messages=messages))
    offset = int(re.search(r"\(offset (\d+)\)", exc.value.detail).group(1))
    assert at <= offset < span.end


@pytest.mark.parametrize("group", GROUPS)
def test_a_bad_indicator_alpha_is_named_at_its_payload_offset(request, group):
    ref = request.getfixturevalue(group)
    payload = encode_indicator(mpc_seller_commit(ref, 2, 4, random.Random(1))[0])
    r = Reader(payload)
    for _ in range(r.u8()):
        r.uint()
    start = r.off  # the proof runs from here to the end of the payload
    at = proof_fields(Reader(payload, start))["alpha"]
    with pytest.raises(CodecError, match="alpha out of range") as exc:
        decode_indicator(ref, substitute_uint(payload, at, all_ones))
    assert at <= exc.value.offset < len(payload)


# A wire integer of more than 4,300 digits cannot go through `str`; every
# message that names one must still end in `VerificationFailed`, never in
# `ValueError`.  Each site's integer becomes 2^20000 and 10^4300, which has
# 4,301 digits.
LONG_INTEGERS = [1 << 20_000, 10**4300]

# run -> (kind, prices, reports)
LONG_INTEGER_RUNS = {
    "full": ("ex3", (1, 2), [5]),  # a full sale: its sum proof announces a total
    "lottery": ("ex3", (2, 5), [7]),  # a reveal, a coin and its opening
    "comparison": ("ex4", (3,), [5]),  # a borrow commitment
}


def at(offset):
    return lambda payload: (offset, ())


def second_coin_element(payload: bytes):
    r = Reader(payload, 1)  # past the pair count
    r.uint()
    return r.off, ()


def in_first_proof(field: str):
    """The field's first integer in a bundle's first proof, with the offset
    of the length the proof is sized by."""

    def locate(payload: bytes):
        span = bundle_proofs(payload)[0]
        return proof_fields(Reader(payload, span.off, span.end))[field], (span.off - 4,)

    return locate


def is_eval_proof(m):
    return m.tag == TAG_EVAL_PROOF and m.payload[:1] != _LEAD["sum", 0]


ELEMENT, EXPONENT = "commitment a .* out of range", "opening exponent out of range"

# boundary -> (run, which message, where its integer is: (payload offset,
# offsets of the lengths that enclose it), the rejection's text)
LONG_INTEGER_SITES = {
    "commitment": ("full", lambda m: m.tag == TAG_COMMIT, at(2), ELEMENT),
    # past the u16 index and u8 count
    "report": ("full", lambda m: m.tag == TAG_TYPE_REPORT, at(3), "reported value a .* outside"),
    # past the claim byte
    "announced total": ("full", SITES["carry"][3], at(1), "announced total a .* out of range"),
    # past the flags and u16 item; the outcome frame must equal the one the evidence implies
    "outcome payment": ("full", lambda m: m.tag == TAG_OUTCOME, at(4), "announced outcome is not"),
    **{
        f"proof {field}": ("full", is_eval_proof, in_first_proof(field), f": {field} out of range")
        for field in ("alpha", "challenge", "per-row challenge", "gamma")
    },
    "carry commitment": ("full", SITES["carry"][3], lambda p: (sum_carry_offset(p), ()), ELEMENT),
    "reveal exponent": ("lottery", lambda m: m.tag == TAG_REVEAL, at(3), EXPONENT),
    "coin pair element": ("lottery", lambda m: m.tag == TAG_COIN_PAIR, at(1), ELEMENT),
    "coin pair complement": ("lottery", lambda m: m.tag == TAG_COIN_PAIR, second_coin_element, ELEMENT),
    "coin opening": ("lottery", lambda m: m.tag == TAG_VERDICT, at(1), EXPONENT),
    "borrow commitment": ("comparison", lambda m: m.tag == TAG_VERDICT, at(2), ELEMENT),
}


def substitute_long(payload: bytes, offset: int, spans, new: int) -> bytes:
    """The payload with the integer at `offset` replaced by `new`, and each
    4-byte length at `spans`, which enclose it, grown to match."""
    out = substitute_uint(payload, offset, lambda x: new)
    grown = len(out) - len(payload)
    for span in spans:
        size = int.from_bytes(out[span : span + 4], "big") + grown
        out = out[:span] + size.to_bytes(4, "big") + out[span + 4 :]
    return out


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("site", sorted(LONG_INTEGER_SITES))
def test_an_integer_too_long_to_print_is_a_clean_reject(request, group, site):
    ref = request.getfixturevalue(group)
    run, pick, locate, text = LONG_INTEGER_SITES[site]
    kind, prices, reports = LONG_INTEGER_RUNS[run]
    spec = MechanismSpec(kind, 8, prices)
    _, transcript = run_local(ref, spec, reports, random.Random(1), random.Random(2))
    assert verify_transcript(ref, transcript)
    i = next(i for i, m in enumerate(transcript.messages) if pick(m))
    msg = transcript.messages[i]
    offset, spans = locate(msg.payload)
    for huge in LONG_INTEGERS:
        bad = replace(msg, payload=substitute_long(msg.payload, offset, spans, huge))
        messages = transcript.messages[:i] + [bad] + transcript.messages[i + 1 :]
        with pytest.raises(VerificationFailed, match=text):
            verify_transcript(ref, replace(transcript, messages=messages))
