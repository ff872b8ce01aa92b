"""The aligned-instance generator draws the same instances for every seed the
suite uses, pinned by a SHA-256 digest of their bytes, and its planted
certificate is an oracle for the explicit set's LPs.

``aligned_instance`` solves no LP, so a digest of an aligned stream moves only
when the generator's construction changes.  The misaligned streams still read
``theta`` to pick their shift, so theirs can also move with the gauge LP.
When a digest moves, the critic and acceptance fleets test other instances
than before.
"""

import hashlib

import numpy as np
import pytest

from fleet import aligned_instance, misaligned_instance
from ipmdro import balls, lambda_penalty, theta, worst_case_expectation

# seed: (count, generator, least n, greatest n) in the order the tests draw
STREAMS = {
    2: [(10, aligned_instance, 3, 5)],
    3: [(10, misaligned_instance, 3, 5)],
    4: [(10, aligned_instance, 3, 6)],
    5: [(1, aligned_instance, 4, 4)],
    6: [(1, aligned_instance, 4, 4)],
    1008: [(50, aligned_instance, 3, 6), (50, misaligned_instance, 3, 6)],
    1009: [(50, aligned_instance, 3, 6)],
}

DIGESTS = {
    2: "550906282025df023bff967c77f35804d7c4edebbcf911350cb1942b4151c9ca",
    3: "750f337d684eae40866833322b0138f14bdd2035814305b45bcc06c66837bbe3",
    4: "8b3da816385a2ae65091385764894afb5fadef0abb8c356bbb700dfea0d2c66e",
    5: "bd5a3ff3d3ce1e985f788f7f8b3e26b9663b7113febab98249d1d69a62a04fe6",
    6: "b7ac2bf3462fc7b70e9b4ed4120d37fe7bce224a9e79a346c3979071e4586130",
    1008: "94ebf6a2ddbe3b9fc9ebf926465757bd3ef4507a3aa5b64e6a67ad51d52d26c3",
    1009: "b67f7cf1f453131bdb1c6801f8025cddae80e83990fc3024036d0277f1a1415e",
}

ALIGNED_SEEDS = sorted(seed for seed, streams in STREAMS.items()
                       if streams[0][1] is aligned_instance)


def _draws(seed):
    """(generator, rng, n) for each instance of one seed's streams, in the
    order the tests draw them; ``generator(rng, n)`` draws the instance."""
    rng = np.random.default_rng(seed)
    for count, generator, low, high in STREAMS[seed]:
        for _ in range(count):
            yield generator, rng, low if low == high else int(rng.integers(low, high + 1))


def _aligned(seed):
    """The aligned instances of one seed: its streams up to the first
    misaligned one."""
    for generator, rng, n in _draws(seed):
        if generator is not aligned_instance:
            return
        yield generator(rng, n)


def _array(part):
    """The numbers of one instance part: a distribution's weights, a class's
    member matrix, a function's values or the radius."""
    for name in ("weights", "matrix", "values"):
        if hasattr(part, name):
            return getattr(part, name)
    return np.asarray(part, dtype=float)


@pytest.mark.parametrize("seed", sorted(STREAMS))
def test_aligned_instances_are_pinned(seed):
    digest = hashlib.sha256()
    for generator, rng, n in _draws(seed):
        for part in generator(rng, n):
            digest.update(_array(part).tobytes())
    assert digest.hexdigest() == DIGESTS[seed]


@pytest.mark.parametrize("seed", ALIGNED_SEEDS)
def test_aligned_instances_pose_no_lp(seed, monkeypatch):
    def refuse(problem):
        raise AssertionError("aligned_instance posed an LP")

    monkeypatch.setattr(balls, "solve_lp", refuse)
    assert sum(1 for _ in _aligned(seed)) == STREAMS[seed][0][0]


@pytest.mark.parametrize("seed", ALIGNED_SEEDS)
def test_the_planted_certificate_is_an_oracle(seed):
    """<mu - P, h> / eps is the gauge of h, and no LP computed it: the
    explicit set's gauge, penalty and worst-case LPs must each meet it."""
    for P, cls, eps, h, mu in _aligned(seed):
        gauge = float((mu.weights - P.weights) @ h.values) / eps
        assert theta(cls, h).value == pytest.approx(gauge, rel=1e-9)
        assert lambda_penalty(P, cls, eps, h).value == pytest.approx(eps * gauge, rel=1e-9)
        expected = float(P.weights @ h.values) + eps * gauge
        assert worst_case_expectation(P, cls, eps, h).value == pytest.approx(expected, rel=1e-9)
