"""Unit and property tests for the extent allocator."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, NoSpaceError
from repro.fs.allocator import ExtentAllocator


class TestBasics:
    def test_starts_fully_free(self):
        alloc = ExtentAllocator(100)
        assert alloc.free_pages == 100
        assert alloc.free_extents() == [(0, 100)]

    def test_simple_alloc_free_roundtrip(self):
        alloc = ExtentAllocator(100)
        extents = alloc.alloc(10)
        assert sum(n for _, n in extents) == 10
        assert alloc.free_pages == 90
        for start, n in extents:
            alloc.free(start, n)
        assert alloc.free_pages == 100
        assert alloc.free_extents() == [(0, 100)]
        alloc.check_invariants()

    def test_alloc_too_large_raises(self):
        alloc = ExtentAllocator(10)
        with pytest.raises(NoSpaceError):
            alloc.alloc(11)

    def test_alloc_zero_rejected(self):
        alloc = ExtentAllocator(10)
        with pytest.raises(ConfigError):
            alloc.alloc(0)

    def test_double_free_detected(self):
        alloc = ExtentAllocator(100)
        [(start, n)] = alloc.alloc(10, contiguous=True)
        alloc.free(start, n)
        with pytest.raises(ConfigError):
            alloc.free(start, n)

    def test_contiguous_respected(self):
        alloc = ExtentAllocator(100, strategy="first-fit")
        [(s1, n1)] = alloc.alloc(40, contiguous=True)
        assert n1 == 40
        alloc.alloc(50)
        alloc.free(s1, 40)
        with pytest.raises(NoSpaceError):
            alloc.alloc(41, contiguous=True)
        [(s2, n2)] = alloc.alloc(40, contiguous=True)
        assert (s2, n2) == (s1, 40)


class TestNextFitBehaviour:
    def test_rotor_walks_forward(self):
        """Consecutive allocations land at increasing addresses even when
        earlier space is freed."""
        alloc = ExtentAllocator(1000, strategy="next-fit")
        [(s1, _)] = alloc.alloc(100, contiguous=True)
        alloc.free(s1, 100)
        [(s2, _)] = alloc.alloc(100, contiguous=True)
        assert s2 > s1  # did not immediately reuse the freed space

    def test_rotor_wraps_around(self):
        alloc = ExtentAllocator(300, strategy="next-fit")
        allocated = []
        for _ in range(3):
            [(s, n)] = alloc.alloc(100, contiguous=True)
            allocated.append((s, n))
        for s, n in allocated:
            alloc.free(s, n)
        [(s, _)] = alloc.alloc(100, contiguous=True)
        assert s == 0  # wrapped to the beginning

    def test_scatter_eventually_covers_address_space(self):
        """The aged-ext4 behaviour behind Fig 4: create/delete churn
        touches the whole address space over time."""
        alloc = ExtentAllocator(1024, strategy="scatter", seed=3)
        touched: set[int] = set()
        import collections
        held = collections.deque()
        for _ in range(300):
            extents = alloc.alloc(64)
            for start, n in extents:
                touched.update(range(start, start + n))
            held.append(extents)
            if len(held) > 8:
                for start, n in held.popleft():
                    alloc.free(start, n)
        assert len(touched) / 1024 > 0.95

    def test_first_fit_reuses_immediately(self):
        alloc = ExtentAllocator(1000, strategy="first-fit")
        [(s1, _)] = alloc.alloc(100, contiguous=True)
        alloc.free(s1, 100)
        [(s2, _)] = alloc.alloc(100, contiguous=True)
        assert s2 == s1

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            ExtentAllocator(10, strategy="best-fit")


class TestScatterPivotStream:
    def test_inlined_choice_matches_numpy_choice(self):
        # _scatter_pivot hand-inlines rng.choice(count, p=w / w.sum())
        # (same arithmetic, one random() draw).  Pin the equivalence so
        # a numpy whose Generator.choice internals differ is caught —
        # the extent stream, and with it every figure, depends on it.
        rng_master = np.random.default_rng(7)
        for _ in range(500):
            count = int(rng_master.integers(1, 60))
            weights = rng_master.integers(1, 5000, size=count).astype(np.float64)
            seed = int(rng_master.integers(0, 2**32))
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed)
            expected = int(a.choice(count, p=weights / weights.sum()))
            cdf = (weights / weights.sum()).cumsum()
            cdf /= cdf[-1]
            pivot = int(cdf.searchsorted(b.random(), side="right"))
            assert pivot == expected
            assert a.random() == b.random()  # streams stay aligned

    def test_length_cache_stays_in_sync(self):
        alloc = ExtentAllocator(512, strategy="scatter", seed=1)
        rng = np.random.default_rng(3)
        held: list[tuple[int, int]] = []
        for _ in range(300):
            if held and rng.random() < 0.45:
                start, npages = held.pop(int(rng.integers(len(held))))
                alloc.free(start, npages)
            elif alloc.free_pages:
                want = int(rng.integers(1, min(32, alloc.free_pages) + 1))
                held.extend(alloc.alloc(want))
            alloc.check_invariants()  # asserts Σ lengths == free_pages


class TestCoalescing:
    def test_adjacent_frees_merge(self):
        alloc = ExtentAllocator(100)
        a = alloc.alloc(30, contiguous=True)[0]
        b = alloc.alloc(30, contiguous=True)[0]
        alloc.alloc(40)
        alloc.free(a[0], a[1])
        alloc.free(b[0], b[1])
        assert alloc.free_extents() == [(0, 60)]
        alloc.check_invariants()


class TestPropertyBased:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["alloc", "free"]), st.integers(1, 40)),
            min_size=1,
            max_size=80,
        )
    )
    def test_random_alloc_free_keeps_invariants(self, ops):
        alloc = ExtentAllocator(512)
        held: list[tuple[int, int]] = []
        for kind, size in ops:
            if kind == "alloc":
                if size > alloc.free_pages:
                    with pytest.raises(NoSpaceError):
                        alloc.alloc(size)
                else:
                    held.extend(alloc.alloc(size))
            elif held:
                start, n = held.pop(0)
                alloc.free(start, n)
            alloc.check_invariants()
        assert alloc.free_pages == 512 - sum(n for _, n in held)

    @settings(max_examples=30, deadline=None)
    @given(sizes=st.lists(st.integers(1, 30), min_size=1, max_size=30))
    def test_no_extent_handed_out_twice(self, sizes):
        alloc = ExtentAllocator(1024)
        claimed: set[int] = set()
        for size in sizes:
            if size > alloc.free_pages:
                break
            for start, n in alloc.alloc(size):
                pages = set(range(start, start + n))
                assert not pages & claimed
                claimed |= pages
        alloc.check_invariants()


class FreePageModel:
    """Free space as a plain set of pages; shares no code with ``src/``.

    The free list is the set's maximal runs.  ``take``/``give`` replay
    what the allocator under test granted or was handed back (checking
    it only ever grants free pages); ``first_fit`` predicts the
    first-fit policy outright: the lowest free pages, or the lowest
    run that fits a contiguous request.
    """

    def __init__(self, npages):
        self.npages, self.pages, self.peak_used = npages, set(range(npages)), 0

    def take(self, extents):
        for start, n in extents:
            run = set(range(start, start + n))
            assert run <= self.pages, "granted a page that was not free"
            self.pages -= run
            self.peak_used = max(self.peak_used, self.npages - len(self.pages))

    def give(self, extents):
        for start, n in extents:
            self.pages |= set(range(start, start + n))

    def runs(self, pages=None):
        out = []
        for page in sorted(self.pages if pages is None else pages):
            if out and out[-1][0] + out[-1][1] == page:
                out[-1] = (out[-1][0], out[-1][1] + 1)
            else:
                out.append((page, 1))
        return out

    def first_fit(self, n, contiguous=False):
        if contiguous:
            return [next((s, n) for s, length in self.runs() if length >= n)]
        return self.runs(sorted(self.pages)[:n])


def _assert_matches(alloc, model):
    assert alloc.free_extents() == model.runs()
    assert alloc.free_pages == len(model.pages)
    assert alloc.peak_used_pages == model.peak_used
    alloc.check_invariants()


def _first_fit_pair(npages):
    return (ExtentAllocator(npages, strategy="first-fit"),
            FreePageModel(npages))


def _alloc(alloc, model, npages, contiguous=False):
    """Allocate on *alloc*; the first-fit model must predict the grant."""
    got = alloc.alloc(npages, contiguous=contiguous)
    assert got == model.first_fit(npages, contiguous)
    model.take(got)
    return got


def _free(alloc, model, start, npages):
    alloc.free(start, npages)
    model.give([(start, npages)])


#: The scatter strategy consumes RNG, so its extent stream — not just
#: the final free list — is part of every simulated fingerprint.
#: Recorded from ``test_scatter_stream_pinned_under_churn`` (512 pages,
#: seed 11) at the commit that retired the list-based twin allocator,
#: where both produced it; after a *deliberate* allocator change print
#: ``granted[-4:]`` and the digest there and update both.
SCATTER_STREAM_TAIL = [
    [(287, 2), (507, 3), (215, 1), (384, 3), (262, 2)],
    [(237, 24)], [(191, 1)], [(192, 4), (420, 6)],
]
SCATTER_STREAM_SHA256 = \
    "b497b1fb0349bca25e35015d85d1f1fb8dc6da64588842941374ad349d7b2daf"


class TestEdgeCasePins:
    """Edge cases pinned against :class:`FreePageModel`: identical free
    lists and accounting after every step, first-fit grants predicted
    by the model, the scatter extent stream pinned as a literal."""

    def test_coalescing_across_adjacent_frees(self):
        # free B, then A, then C where A|B|C are address-adjacent:
        # the final free list must be one merged run however the
        # frees are ordered.
        import itertools as it

        for order in it.permutations(range(3)):
            alloc, model = _first_fit_pair(128)
            runs = [_alloc(alloc, model, 10, contiguous=True)[0]
                    for _ in range(3)]
            _alloc(alloc, model, 20, contiguous=True)  # pin a neighbour
            assert runs == [(0, 10), (10, 10), (20, 10)]
            for idx in order:
                _free(alloc, model, *runs[idx])
                _assert_matches(alloc, model)
            assert alloc.free_extents()[0] == (0, 30)

    def test_exhaustion_mid_alloc_with_partial_extents(self):
        # Fragment the space into single free pages, then ask for more
        # than exists: the allocator must raise without corrupting
        # accounting, and a satisfiable scattered request must then
        # return the predicted multi-extent answer.
        alloc, model = _first_fit_pair(64)
        [(start, n)] = _alloc(alloc, model, 64)  # everything
        for page in range(start, start + n, 2):
            _free(alloc, model, page, 1)  # free alternate pages
        _assert_matches(alloc, model)
        assert alloc.free_pages == 32
        with pytest.raises(NoSpaceError):
            alloc.alloc(33)
        with pytest.raises(NoSpaceError):
            alloc.alloc(2, contiguous=True)
        _assert_matches(alloc, model)
        got = _alloc(alloc, model, 5)
        assert got == [(0, 1), (2, 1), (4, 1), (6, 1), (8, 1)]
        _assert_matches(alloc, model)

    def test_carve_splits_at_both_extent_boundaries(self):
        # Taking from the head, the tail, and the middle of one free
        # extent exercises all three _carve_at branches.
        for take_at in ("head", "tail", "middle"):
            alloc, model = _first_fit_pair(100)
            # leave one free extent [20, 80) surrounded by used space
            _alloc(alloc, model, 100, contiguous=True)
            _free(alloc, model, 20, 60)
            if take_at == "head":
                assert _alloc(alloc, model, 10, contiguous=True) == [(20, 10)]
            elif take_at == "tail":
                # first-fit takes from the head; carve the tail by
                # freeing a second, earlier extent the request skips
                _free(alloc, model, 0, 5)
                assert _alloc(alloc, model, 5, contiguous=True) == [(0, 5)]
                assert _alloc(alloc, model, 60) == [(20, 60)]
            else:
                got = _alloc(alloc, model, 10, contiguous=True)
                _free(alloc, model, got[0][0] + 2, 6)  # hole mid-extent
            _assert_matches(alloc, model)

    def test_scatter_stream_pinned_under_churn(self):
        alloc = ExtentAllocator(512, strategy="scatter", seed=11)
        model = FreePageModel(512)
        rng = np.random.default_rng(2)
        held: list[tuple[int, int]] = []
        granted: list[list[tuple[int, int]]] = []
        for _ in range(400):
            if held and rng.random() < 0.45:
                ext = held.pop(int(rng.integers(len(held))))
                _free(alloc, model, *ext)
            elif alloc.free_pages:
                want = int(rng.integers(1, min(48, alloc.free_pages) + 1))
                got = alloc.alloc(want)
                assert sum(n for _, n in got) == want
                model.take(got)
                granted.append(got)
                held.extend(got)
            _assert_matches(alloc, model)
        assert granted[-4:] == SCATTER_STREAM_TAIL
        assert hashlib.sha256(repr(granted).encode()).hexdigest() == \
            SCATTER_STREAM_SHA256

    def test_free_many_matches_the_model(self):
        alloc, model = _first_fit_pair(256)
        chunks = [_alloc(alloc, model, 16, contiguous=True)[0]
                  for _ in range(16)]
        # Non-adjacent chunks: eight separate runs join the free list.
        alloc.free_many(chunks[1::2])
        model.give(chunks[1::2])
        _assert_matches(alloc, model)
        assert len(alloc.free_extents()) == 8
        # The rest, in reverse order: everything coalesces into one run.
        alloc.free_many(chunks[-2::-2])
        model.give(chunks[-2::-2])
        _assert_matches(alloc, model)
        assert alloc.free_extents() == [(0, 256)]

    def test_free_many_double_free_detected(self):
        alloc = ExtentAllocator(64)
        got = alloc.alloc(16) + alloc.alloc(16)
        alloc.free_many(got)
        with pytest.raises(ConfigError):
            alloc.free_many(got)
        with pytest.raises(ConfigError):
            alloc.free_many(got[:1])
