"""The aligned-instance generator draws the same instances for every seed the
suite uses, pinned by a SHA-256 digest of their bytes.

A digest moves when ``_witness_direction`` poses a different LP or the LP
kernel pivots differently; the critic and acceptance fleets then test other
instances than before.
"""

import hashlib

import numpy as np
import pytest

from fleet import aligned_instance, misaligned_instance

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
    2: "640a27011ccec515ffed829877b9e2e418779d2d7759f324b03ebd21ef970809",
    3: "def822041f8232ff261e3da2b0cfa669cc3b25d8c81b4e98a1b271dafe126e0d",
    4: "1f58b99c756a2224828a65343f714f3c252f49f3997909a16c774be63e09ee70",
    5: "70c43c91d3568caf1f9d73f3ab8236aed0ae6cdb4f862634b89e178c74efed76",
    6: "31ac78021f699ec8ac8a34e0838f1a70457ec27c277301090176e40c446f15d4",
    1008: "88b7792e4293cbba9e983038cc1ae7870879f5b8157fbb664992b6679e60720d",
    1009: "7249a3b9f804dd8c083ccce6e9970fb815232a53fb30a5bb4702d4aaef2cdba7",
}


def _array(part):
    """The numbers of one instance part: a distribution's weights, a class's
    member matrix, a function's values or the radius."""
    for name in ("weights", "matrix", "values"):
        if hasattr(part, name):
            return getattr(part, name)
    return np.asarray(part, dtype=float)


@pytest.mark.parametrize("seed", sorted(STREAMS))
def test_aligned_instances_are_pinned(seed):
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for count, generator, low, high in STREAMS[seed]:
        for _ in range(count):
            n = low if low == high else int(rng.integers(low, high + 1))
            for part in generator(rng, n):
                digest.update(_array(part).tobytes())
    assert digest.hexdigest() == DIGESTS[seed]
