import copy
import os
import pickle
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

from reflect_lab import rng as rng_mod

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 1, 2**63, 2**64 - 1)
PATHS = ((), (0,), (3, 7), (2**64 - 1, 5, 9))


def test_derive_key_is_deterministic():
    assert rng_mod.derive_key(7, 1, 2, 3) == rng_mod.derive_key(7, 1, 2, 3)


def test_derive_key_distinguishes_paths():
    seen = set()
    for path in [(0,), (1,), (0, 0), (0, 1), (1, 0), (2, 7, 7), (7, 2, 7)]:
        seen.add(rng_mod.derive_key(5, *path))
    assert len(seen) == 7


def test_derive_key_distinguishes_seeds():
    assert rng_mod.derive_key(0, 4) != rng_mod.derive_key(1, 4)


def test_derive_key_masks_to_64_bits():
    seed, fold = rng_mod.derive_key(2**200 + 17, 2**99)
    assert 0 <= seed < 2**64
    assert 0 <= fold < 2**64


def test_stream_reproducible():
    a = rng_mod.stream(42, 3).random(8)
    b = rng_mod.stream(42, 3).random(8)
    assert np.array_equal(a, b)


def test_stream_differs_across_paths():
    a = rng_mod.stream(42, 3).random(8)
    b = rng_mod.stream(42, 4).random(8)
    assert not np.array_equal(a, b)


def test_stream_empty_path_allowed():
    g = rng_mod.stream(9)
    assert 0.0 <= g.random() < 1.0


def _philox_by_key(seed, *path):
    # The construction `stream` replaces, kept as the reference: numpy seeds
    # a SeedSequence from OS entropy, then drops it because a key is given.
    key = np.array(rng_mod.derive_key(seed, *path), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _assert_same_state(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for name in a:
            _assert_same_state(a[name], b[name])
    else:
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed, path", list(product(SEEDS, PATHS)))
def test_stream_is_the_philox_its_key_gives(seed, path):
    got, want = rng_mod.stream(seed, *path), _philox_by_key(seed, *path)
    _assert_same_state(got.bit_generator.state, want.bit_generator.state)
    assert np.array_equal(got.random(1000), want.random(1000))
    assert np.array_equal(got.integers(9, size=100), want.integers(9, size=100))
    assert np.array_equal(got.permutation(9), want.permutation(9))
    _assert_same_state(got.bit_generator.state, want.bit_generator.state)


def test_stream_draws_are_pinned():
    # Recorded from Philox(key=...); they pin numpy's Philox itself.
    assert rng_mod.stream(0).random(3).tolist() == [
        float.fromhex("0x1.78935e3e4f9c4p-2"),
        float.fromhex("0x1.7a0cce6898b9dp-1"),
        float.fromhex("0x1.ac1ad0535619ap-2"),
    ]
    assert rng_mod.stream(42, 3).random(3).tolist() == [
        float.fromhex("0x1.864daf86adc44p-3"),
        float.fromhex("0x1.1aa2d5ff30f58p-2"),
        float.fromhex("0x1.335fca04a112ap-1"),
    ]


def test_stream_reads_no_os_entropy(monkeypatch):
    from numpy.random import bit_generator

    def refuse(*args):
        raise RuntimeError("OS entropy read")

    monkeypatch.setattr(bit_generator, "randbits", refuse)
    with pytest.raises(RuntimeError, match="OS entropy read"):
        np.random.Philox()
    assert 0.0 <= rng_mod.stream(7, 1).random() < 1.0


@pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_used_stream_clones_and_continues(clone):
    g = rng_mod.stream(5, 2)
    g.random(7)
    twin = clone(g)
    assert np.array_equal(twin.random(50), g.random(50))
    assert np.array_equal(twin.integers(1000, size=50), g.integers(1000, size=50))


def test_stream_does_not_spawn():
    # As with Philox(key=...), a keyed stream has no spawnable seed sequence:
    # child streams come from derivation paths.
    with pytest.raises(TypeError):
        rng_mod.stream(5, 2).spawn(1)


def test_the_key_is_two_uint64_words():
    key = rng_mod._Key(rng_mod.derive_key(5, 2))
    assert key.generate_state(2, np.uint64) == rng_mod.derive_key(5, 2)
    for n_words, dtype in ((4, np.uint32), (1, np.uint64), (2, np.uint32)):
        with pytest.raises(ValueError):
            key.generate_state(n_words, dtype)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, reflect_lab.cli; print('numpy.random' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
