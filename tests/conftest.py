import hashlib
import importlib.util
import pathlib
import random

import pytest

from zkmech.codec import Reader
from zkmech.commitments import OPENING_FAILURE, reveal_int
from zkmech.errors import ParameterError, ShapeMismatch
from zkmech.group import GroupParams, derive_generators, params_from_modulus
from zkmech.sigma import (
    Batch,
    CdsStatement,
    NiProof,
    _encode_response,
    cds_verify,
    encode_first,
    fiat_shamir_challenge,
    read_proof,
)

# A 384-bit safe prime (the benchmark's BENCH_Q384): large enough for the
# Jacobi membership test and the fixed-base tables, small enough to be quick.
Q384 = int(
    "800000000000000000000000000000003de0f8454efdc61b6bdd877025aaf1a7"
    "43f3324fe4739628062c71cd6648215f",
    16,
)


@pytest.fixture(scope="session")
def q7():
    return params_from_modulus(7)


@pytest.fixture(scope="session")
def q23():
    return params_from_modulus(23)


@pytest.fixture(scope="session")
def q384():
    return params_from_modulus(Q384)


@pytest.fixture(scope="session")
def ref384(q384):
    return derive_generators(q384, b"test reference string")


@pytest.fixture(scope="session")
def ref7(q7):
    return derive_generators(q7, b"test reference string")


@pytest.fixture(scope="session")
def ref23(q23):
    return derive_generators(q23, b"test reference string")


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def _per_cell_verdict(items):
    for stmt, proof, context in items:
        if hashlib.sha256(context).digest() != proof.context_digest:
            return False
        if fiat_shamir_challenge(stmt.params, context + encode_first(stmt.params, proof.first)) != proof.challenge:
            return False
        try:
            if not cds_verify(stmt, proof.first, proof.challenge, proof.response):
                return False
        except (ShapeMismatch, ParameterError):
            return False
    return True


@pytest.fixture
def per_cell_verdict():
    """The reference for `sigma.ni_verify_all`: each proof's context digest
    and challenge, then `cds_verify` one cell at a time."""
    return _per_cell_verdict


# -- statement builders and a whole-buffer proof decoder for the tests -----------


def schnorr_statement(params: GroupParams, base: int, target: int) -> CdsStatement:
    """Knowledge of log_base(target): the 1x1 instance."""
    return CdsStatement(params=params, rows=(((base, target),),))


def or_statement(params: GroupParams, base: int, targets: list[int]) -> CdsStatement:
    """Knowledge of log_base of at least one target: the kx1 instance."""
    return CdsStatement(params=params, rows=tuple(((base, t),) for t in targets))


def and_statement(params: GroupParams, pairs: list[tuple[int, int]]) -> CdsStatement:
    """Knowledge of every log in one list of (base, target) pairs: 1xm."""
    return CdsStatement(params=params, rows=(tuple(pairs),))


def decode_proof(buf: bytes, params: GroupParams, shape: tuple[int, ...]) -> NiProof:
    r = Reader(buf)
    proof = read_proof(r, params, shape)
    r.finish()
    return proof


def rewired(params: GroupParams, proof: NiProof) -> NiProof:
    """`proof`, made by hand or by `dataclasses.replace`, with the bytes its
    fields encode to, as `ni_prove` gives a proof its bytes."""
    object.__setattr__(proof, "_wire", (encode_first(params, proof.first), _encode_response(proof)))
    return proof


def revealed(ref, com, ops) -> int:
    """`reveal_int` in a batch of its own, begun as a reveal's group and
    settled before this returns, as a replay begins and settles it."""
    batch = Batch(ref.params)
    batch.begin(*OPENING_FAILURE)
    value = reveal_int(ref, com, ops, batch)
    batch.check()
    return value


def load_script(name: str):
    """scripts/`name`.py, loaded as a module."""
    path = pathlib.Path(__file__).parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script
