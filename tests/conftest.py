"""Shared fixtures and hypothesis strategies for the test-suite.

Sequence generation delegates to the library's own generators
(:func:`repro.data.generator.random_sequence` /
:func:`~repro.data.generator.mutate_sequence`) so the test corpus and
the shipped workload generator cannot drift apart.

Hypothesis runs under a registered profile: ``ci`` (the default) is
derandomized so the suite is deterministic in CI; select ``dev`` via
``HYPOTHESIS_PROFILE=dev`` to explore fresh examples locally.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.core.penalties import AffinePenalties, EditPenalties, LinearPenalties
from repro.data.generator import mutate_sequence, random_sequence
from repro.pim import parallel

DNA = "ACGT"

settings.register_profile("ci", derandomize=True, max_examples=100)
settings.register_profile("dev", max_examples=100)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def make_rng(seed: int = 0) -> random.Random:
    return random.Random(seed)


def random_dna(rng: random.Random, length: int) -> str:
    return random_sequence(length, rng, DNA)


def mutate(rng: random.Random, seq: str, rate: float) -> str:
    """Rate-based wrapper over the library's exact-count mutator."""
    errors = sum(1 for _ in seq if rng.random() < rate)
    return mutate_sequence(seq, errors, rng, DNA)


# -- hypothesis strategies ---------------------------------------------------

dna_seq = st.text(alphabet=DNA, min_size=0, max_size=40)
dna_seq_nonempty = st.text(alphabet=DNA, min_size=1, max_size=40)


@st.composite
def similar_pair(draw, max_len: int = 48, max_edits: int = 6):
    """A (pattern, text) pair where text is pattern with a few edits."""
    pattern = draw(st.text(alphabet=DNA, min_size=0, max_size=max_len))
    n_edits = draw(st.integers(min_value=0, max_value=max_edits))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    text = mutate_sequence(pattern, n_edits, random.Random(seed), DNA)
    return pattern, text


affine_penalties = st.builds(
    AffinePenalties,
    mismatch=st.integers(min_value=1, max_value=8),
    gap_open=st.integers(min_value=0, max_value=10),
    gap_extend=st.integers(min_value=1, max_value=5),
)

linear_penalties = st.builds(
    LinearPenalties,
    mismatch=st.integers(min_value=1, max_value=8),
    indel=st.integers(min_value=1, max_value=5),
)

any_penalties = st.one_of(
    affine_penalties, linear_penalties, st.just(EditPenalties())
)


@pytest.fixture
def rng() -> random.Random:
    return make_rng(1234)


@pytest.fixture(autouse=True)
def own_dpu_pool():
    """Each test starts without a DPU pool and shuts down the one it
    started.  The pool lives for the process, and its workers fork with
    the module state of the moment, so a pool kept across tests would
    carry one test's monkeypatches (or stand-in executor) into the next."""
    parallel._drop_pool()
    yield
    parallel._drop_pool()
