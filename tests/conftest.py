import random

import pytest
from hypothesis import settings

from weavesym.classify import classify
from weavesym.design import Design, reverse_row
from weavesym.weave import gen_twill

SEED = 20260814

# property tests draw the same examples on every run and never time out
settings.register_profile("weavesym", derandomize=True, deadline=None, database=None)
settings.load_profile("weavesym")


def random_design(rng, max_w=8, max_h=8):
    w = rng.randint(1, max_w)
    h = rng.randint(1, max_h)
    return Design(w, h, tuple(rng.randrange(1 << w) for _ in range(h)))


def build_corpus(rng, count=220):
    """Random designs up to 8x8, salted with structured ones so that
    non-trivial groups actually occur."""
    corpus = [random_design(rng) for _ in range(count - 100)]
    twills = [gen_twill(o, u, s)
              for o in range(1, 5) for u in range(1, 5) if o + u <= 8
              for s in range(1, o + u)]
    corpus.extend(rng.sample(twills, 40))
    for _ in range(30):
        d = random_design(rng, 4, 4)
        nx, ny = rng.choice([(2, 1), (1, 2), (2, 2)])
        corpus.append(d.tiled(nx, ny))
    for _ in range(30):
        d = random_design(rng, 4, 8)
        wide = tuple(r | (reverse_row(r, d.width) << d.width) for r in d.rows)
        corpus.append(Design(2 * d.width, d.height, wide))
    return corpus


@pytest.fixture(scope="session")
def design_corpus():
    return build_corpus(random.Random(SEED))


@pytest.fixture(scope="session")
def classified_corpus(design_corpus):
    return [(d, classify(d)) for d in design_corpus]
