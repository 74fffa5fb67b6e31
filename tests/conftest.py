import random
from fractions import Fraction

import pytest

from weilmod import linalg, metaplectic, theta
from weilmod.basefield import AdditiveCharacter, FqField, QpField
from weilmod.quadratic import QuadraticForm


@pytest.fixture(autouse=True)
def fresh_count_models(monkeypatch):
    """Each test starts with no sigma counts, no dual pairs and no
    characteristic-zero theta sides: some corrupt cached counts, others
    count the builds a fresh model, pair or side makes."""
    monkeypatch.setattr(metaplectic, "_COUNT_MODELS", {})
    monkeypatch.setattr(theta, "_DUAL_PAIRS", {})
    monkeypatch.setattr(theta, "_ZERO_SIDES", {})


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_form(field, rng, dim, nondegenerate=False):
    """Random symmetric Gram matrix over the base field."""
    while True:
        g = [[field.element(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                if field.flavor == "finite":
                    v = field.element(rng.randrange(field.q))
                else:
                    v = Fraction(rng.randrange(-6, 7),
                                 rng.choice([1, 1, 2, 3]))
                g[i][j] = v
                g[j][i] = v
        q = QuadraticForm(field, g)
        if not nondegenerate or q.is_nondegenerate():
            return q


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_scal(c, a):
    return tuple(tuple(c * x for x in r) for r in a)


def kron(a, b):
    """The Kronecker product: block (i, j) is a[i][j] * b."""
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def trace(a):
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


def random_unit(field, rng):
    if field.flavor == "finite":
        return field.element(rng.randrange(1, field.q))
    while True:
        v = Fraction(rng.randrange(-30, 31), rng.randrange(1, 31))
        if v != 0:
            return v
