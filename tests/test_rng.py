import numpy as np
import pytest

from medqnn.rng import Rng, normal_blocks, normal_field, splitmix64, substream_seed


def test_streams_are_deterministic():
    a = Rng(42)
    b = Rng(42)
    assert [a.next_uint64() for _ in range(10)] == [b.next_uint64() for _ in range(10)]


def test_different_seeds_differ():
    assert Rng(1).next_uint64() != Rng(2).next_uint64()


def test_random_in_unit_interval():
    r = Rng(3)
    draws = [r.random() for _ in range(1000)]
    assert min(draws) >= 0.0 and max(draws) < 1.0
    assert abs(np.mean(draws) - 0.5) < 0.05


def test_splitmix_is_pure():
    s1, out1 = splitmix64(99)
    s2, out2 = splitmix64(99)
    assert (s1, out1) == (s2, out2)
    assert out1 != out2 or s1 == s2


def test_normal_moments():
    r = Rng(7)
    draws = np.array([r.normal() for _ in range(20000)])
    assert abs(draws.mean()) < 0.03
    assert abs(draws.std() - 1.0) < 0.03


def test_vectorized_field_matches_scalar_stream():
    seeds = np.array([5, 99, 2**63 + 17], dtype=np.uint64)
    field = normal_field(seeds, 9)
    for row, seed in enumerate(seeds):
        scalar = Rng(int(seed))
        expected = [scalar.normal() for _ in range(9)]
        np.testing.assert_allclose(field[row], expected, rtol=0, atol=0)


def test_shuffle_is_a_permutation():
    r = Rng(11)
    items = list(range(50))
    r.shuffle(items)
    assert sorted(items) == list(range(50))
    assert items != list(range(50))


def test_integer_bounds():
    r = Rng(13)
    draws = [r.integer(7) for _ in range(500)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        r.integer(0)


def test_substream_seed_is_xor():
    assert substream_seed(0b1100, 0b1010) == 0b0110
    assert substream_seed(5, 0) == 5


def test_splitmix64_reference_outputs():
    # the first outputs of the reference splitmix64.c from state 0
    state, words = 0, []
    for _ in range(4):
        state, word = splitmix64(state)
        words.append(word)
    assert words == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]


def test_xoshiro_outputs_pinned():
    r = Rng(0)
    assert [r.next_uint64() for _ in range(3)] == [
        0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0,
    ]


def test_normal_field_pinned():
    field = normal_field(np.array([0, 1, 2**64 - 1], dtype=np.uint64), 5)
    expected = [
        [-0.01410679738124918, -1.0085864725210538, -1.845895087695827,
         1.0669282078900473, 0.7881791614487657],
        [-0.8327414344656706, -0.10752148995724745, -0.8173209811151113,
         0.6647329691750302, 0.5265847839360694],
        [0.11775181095091963, -1.0705861656393871, -0.017250642598140967,
         -1.1649124540286773, -0.12190288029025144],
    ]
    np.testing.assert_array_equal(field, expected)


@pytest.mark.parametrize("seeds, draws", [([3], 4), ([3, 2**63 + 1], 7), ([3, 4], 0), ([], 3)])
def test_normal_field_shape_and_scalar_draws(seeds, draws):
    field = normal_field(np.array(seeds, dtype=np.uint64), draws)
    assert field.shape == (len(seeds), draws)
    for row, seed in zip(field, seeds):
        scalar = Rng(seed)
        np.testing.assert_array_equal(row, [scalar.normal() for _ in range(draws)])


@pytest.mark.parametrize("draws", [0, 9, 64, 70])
def test_normal_blocks_are_the_columns_of_the_field(draws):
    seeds = np.array([5, 99, 2**63 + 17], dtype=np.uint64)
    blocks = list(normal_blocks(seeds, draws))
    starts = [start for start, _ in blocks]
    assert starts == [sum(b.shape[1] for _, b in blocks[:i]) for i in range(len(blocks))]
    assert all(len(block) == 3 and block.shape[1] > 0 for _, block in blocks)
    field = np.concatenate([np.empty((3, 0)), *(block for _, block in blocks)], axis=1)
    assert np.array_equal(field, normal_field(seeds, draws))
