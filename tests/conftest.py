from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from malgebra.datasets import sample_instance
from malgebra.equations import Equation
from malgebra.taxonomy import ProblemType


@dataclass(frozen=True)
class Corpus:
    """A test corpus of draws: the instance keyed ``key`` is drawn from the
    stream ``{seed}:{key}``, as ``generate`` seeds a record's draw."""

    seed: int
    coeff_min: int = -9
    coeff_max: int = 9

    def rng_for(self, key: str) -> random.Random:
        return random.Random(f"{self.seed}:{key}")

    def sample(self, t: ProblemType, key: str) -> Equation:
        root, _ = sample_instance(t, self.rng_for(key), self.coeff_min, self.coeff_max)
        return root.equation


@pytest.fixture
def sampler() -> Corpus:
    return Corpus(seed=1234)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(99)
