"""Rudimentary secure two-party computation of single-item pricing.

Both the price and the bid stay hidden; only trade/no-trade (and, on
trade, the price, revealed to the buyer) comes out.  The seller commits
to a one-hot indicator over all H candidate prices and proves in zero
knowledge that exactly one slot is set; the buyer answers with masked
willingness values that the seller can test only at her own price slot.

The buyer sends no consistency proofs: she is the only party hurt by a
malformed response, so the honest strategy is self-enforcing.

Each unwilling slot's junk entry is a `GroupParams.sample_member`, a power
of the group's sampling base 4.  The first one builds that base's comb
table on the group object, so each costs a table power, not a full `pow`
(at 384 bits about 45 us against 300 us, after a 1.2 ms build).  The build
pays for itself after about five junk entries: a single H=8 response draws
3.5 on average, every later response on the same group object gains, and
so does every response from H=16 up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .codec import (
    Message,
    Reader,
    TAG_MPC_COMMIT,
    TAG_MPC_FINAL,
    TAG_MPC_RESPONSE,
    Transcript,
    encode_u8,
    encode_uint,
    seed_frame,
)
from .commitments import BitOpening, commit_bit, encode_opening, read_opening, verify_opening
from .errors import CodecError, ParameterError, VerificationFailed
from .gadgets import element_encodings, plan_statement
from .group import RefString
from .protocols import Outcome
from .sigma import (
    CdsStatement,
    CdsWitness,
    NiProof,
    encode_proof,
    encode_statement,
    ni_prove,
    ni_verify,
    read_proof,
)

MAX_PRICE_SLOTS = 64  # the one-hot statement has H rows of width H

_CTX_LABEL = b"\x1a"


@dataclass(frozen=True)
class IndicatorCommitment:
    """Commitments to the one-hot price indicator plus its validity proof."""

    coms: tuple[int, ...]  # one element per price slot
    proof: NiProof


@dataclass(frozen=True)
class SellerSecrets:
    price: int
    exps: tuple[int, ...]


@dataclass(frozen=True)
class BuyerResponse:
    ks: tuple[int, ...]  # commitments to per-price willingness bits
    zs: tuple[int, ...]  # masked prods: C_i^rho_i when willing, junk otherwise


@dataclass(frozen=True)
class BuyerSecrets:
    value: int
    rhos: tuple[int, ...]


def one_hot_statement(ref: RefString, coms: list[int]) -> CdsStatement:
    """Row t: every slot except t opens under g and slot t opens under h.

    The base-h clause pins exactly one set slot, so a price that never
    sells is not expressible.
    """
    n = len(coms)
    rows = tuple(tuple((int(i == t), (i, 1)) for i in range(n)) for t in range(n))
    return plan_statement(ref, [(c,) for c in coms], rows)


def _context(ref: RefString, coms: tuple[int, ...], stmt: CdsStatement) -> bytes:
    """The statement's H^2 cells are joined from H + 2 encoded elements."""
    encoded = element_encodings(ref, [(c,) for c in coms])
    return seed_frame(ref.seed) + encode_statement(stmt, encoded) + _CTX_LABEL


def mpc_seller_commit(
    ref: RefString, price: int, bound: int, rng: random.Random
) -> tuple[IndicatorCommitment, SellerSecrets]:
    if bound > MAX_PRICE_SLOTS:
        raise ParameterError(f"H={bound} exceeds the slot bound {MAX_PRICE_SLOTS}")
    if not 0 <= price < bound:
        raise ParameterError(f"price {price} outside {{0,...,{bound - 1}}}")
    exps = tuple(ref.params.exp_sample(rng) for _ in range(bound))
    coms = tuple(
        commit_bit(ref, 1 if i == price else 0, r) for i, r in enumerate(exps)
    )
    stmt = one_hot_statement(ref, list(coms))
    wit = CdsWitness(row=price, exps=exps)
    # Every target is a slot the seller opened: h^r at the price, g^r elsewhere.
    bases = (ref.g, ref.h)
    hint = {com: (bases[i == price], r) for i, (com, r) in enumerate(zip(coms, exps))}
    proof = ni_prove(stmt, wit, _context(ref, coms, stmt), rng, hint)
    return IndicatorCommitment(coms=coms, proof=proof), SellerSecrets(price=price, exps=exps)


def verify_indicator(ref: RefString, ic: IndicatorCommitment) -> bool:
    if not 1 <= len(ic.coms) <= MAX_PRICE_SLOTS:  # the statement has H^2 cells
        return False
    identity = ref.params.identity  # which commits to no bit
    for com in ic.coms:
        if com == identity or not ref.params.is_member(com):
            return False
    stmt = one_hot_statement(ref, list(ic.coms))
    return ni_verify(stmt, ic.proof, _context(ref, ic.coms, stmt))


def mpc_buyer_respond(
    ref: RefString, ic: IndicatorCommitment, value: int, rng: random.Random
) -> tuple[BuyerResponse, BuyerSecrets]:
    """Willing at price i iff i <= value; junk entries are uniform over the
    whole subgroup, so unwilling slots carry no structure at all."""
    if not verify_indicator(ref, ic):
        raise VerificationFailed("mpc-commit", "one-hot indicator proof does not verify")
    bound = len(ic.coms)
    if not 0 <= value < bound:
        raise ParameterError(f"value {value} outside {{0,...,{bound - 1}}}")
    params = ref.params
    rhos = tuple(params.exp_sample(rng) for _ in range(bound))
    ks = []
    zs = []
    for i, (com, rho) in enumerate(zip(ic.coms, rhos)):
        willing = 1 if i <= value else 0
        ks.append(commit_bit(ref, willing, rho))
        if willing:
            zs.append(params.pow_unchecked(com, rho))
        else:
            zs.append(params.sample_member(rng))
    return BuyerResponse(ks=tuple(ks), zs=tuple(zs)), BuyerSecrets(value=value, rhos=rhos)


def mpc_seller_finalize(
    ref: RefString, secrets: SellerSecrets, resp: BuyerResponse
) -> tuple[Outcome, BitOpening | None]:
    """Trade iff the buyer's masked value at the seller's slot matches.

    On trade the seller discloses the slot opening so the buyer learns the
    price; on no-trade nothing further is revealed.
    """
    if not len(resp.ks) == len(resp.zs) == len(secrets.exps):
        raise VerificationFailed("mpc-response", "response slot count differs from the indicator's")
    params = ref.params
    s = secrets.price
    for x in (resp.ks[s], resp.zs[s]):
        if not params.is_member(x):
            raise VerificationFailed("mpc-response", "response element outside the subgroup")
    r_s = secrets.exps[s]
    if resp.zs[s] == params.pow_unchecked(resp.ks[s], r_s):
        return Outcome(trade=True, item=0, payment=s), BitOpening(bit=1, r=r_s)
    return Outcome(trade=False, payment=0), None


def mpc_buyer_conclude(
    ref: RefString,
    ic: IndicatorCommitment,
    traded: bool,
    slot: int | None,
    opening: BitOpening | None,
) -> int | None:
    """On trade, check the revealed slot's opening; returns the price."""
    if not traded:
        return None
    if opening is None or slot is None or opening.bit != 1:
        raise VerificationFailed("mpc-final", "trade announced without a valid slot opening")
    if not 0 <= slot < len(ic.coms) or not verify_opening(ref, ic.coms[slot], opening):
        raise VerificationFailed("mpc-final", "revealed opening does not match the price slot")
    return slot


# -- wire framing (tags 0x11-0x13 extend the protocol framing) --------------------


def encode_indicator(ic: IndicatorCommitment) -> bytes:
    out = [encode_u8(len(ic.coms))]
    out.extend(encode_uint(c) for c in ic.coms)
    out.append(encode_proof(ic.proof))
    return b"".join(out)


def _slot_count(r: Reader) -> int:
    """The leading u8 slot count, refused above the bound before any slot is read."""
    count = r.u8()
    if count > MAX_PRICE_SLOTS:
        raise CodecError(f"{count} price slots exceed the bound {MAX_PRICE_SLOTS}", offset=0)
    return count


def decode_indicator(ref: RefString, payload: bytes) -> IndicatorCommitment:
    r = Reader(payload)
    count = _slot_count(r)  # before H commitments and an H x H proof are read
    coms = tuple(r.uint() for _ in range(count))
    proof = read_proof(r, ref.params, (count,) * count)
    r.finish()
    return IndicatorCommitment(coms=coms, proof=proof)


def encode_response(resp: BuyerResponse) -> bytes:
    out = [encode_u8(len(resp.ks))]
    out.extend(encode_uint(k) for k in resp.ks)
    out.extend(encode_uint(z) for z in resp.zs)
    return b"".join(out)


def decode_response(payload: bytes) -> BuyerResponse:
    r = Reader(payload)
    count = _slot_count(r)
    ks = tuple(r.uint() for _ in range(count))
    zs = tuple(r.uint() for _ in range(count))
    r.finish()
    return BuyerResponse(ks=ks, zs=zs)


def encode_final(traded: bool, slot: int | None, opening: BitOpening | None) -> bytes:
    if not traded:
        return encode_u8(0)
    return encode_u8(1) + encode_u8(slot) + encode_opening(opening)


def decode_final(payload: bytes, p: int) -> tuple[bool, int | None, BitOpening | None]:
    r = Reader(payload)
    flag = r.u8()
    if flag not in (0, 1):
        raise CodecError("bad trade flag", offset=0)
    final = (True, r.u8(), read_opening(r, p)) if flag else (False, None, None)
    r.finish()
    return final


def run_mpc_local(
    ref: RefString,
    price: int,
    value: int,
    bound: int,
    seller_rng: random.Random,
    buyer_rng: random.Random,
) -> tuple[Outcome, int | None, Transcript]:
    """Run both roles in-process; returns (outcome, price seen by buyer, log)."""
    ic, seller_secrets = mpc_seller_commit(ref, price, bound, seller_rng)
    messages = [Message(TAG_MPC_COMMIT, encode_indicator(ic))]
    resp, _ = mpc_buyer_respond(ref, ic, value, buyer_rng)
    messages.append(Message(TAG_MPC_RESPONSE, encode_response(resp)))
    outcome, opening = mpc_seller_finalize(ref, seller_secrets, resp)
    slot = seller_secrets.price if outcome.trade else None
    messages.append(Message(TAG_MPC_FINAL, encode_final(outcome.trade, slot, opening)))
    seen = mpc_buyer_conclude(ref, ic, outcome.trade, slot, opening)
    transcript = Transcript(kind="mpc", bound=bound, seed=ref.seed, messages=messages)
    return outcome, seen, transcript
