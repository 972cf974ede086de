import random
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from nvmsim.crypto import payload_block
from nvmsim.model_core import (
    BLOCK_SIZE,
    BLOCKS_PER_PAGE,
    BlockAddr,
    GoldenMemory,
    MisalignedAddress,
    SplitCounter,
)


class TestBlockAddr:
    def test_page_and_block(self):
        addr = BlockAddr(0x1040)
        assert addr.page == 1
        assert addr.block_in_page == 1

    def test_alignment_required(self):
        with pytest.raises(MisalignedAddress):
            BlockAddr(0x1001)

    def test_range(self):
        with pytest.raises(MisalignedAddress):
            BlockAddr(-64)
        BlockAddr((1 << 64) - 64)  # top of the space is fine

    @given(st.integers(min_value=0, max_value=2**40))
    def test_page_block_consistent(self, block_index):
        addr = BlockAddr(block_index * BLOCK_SIZE)
        assert addr.page * BLOCKS_PER_PAGE + addr.block_in_page == block_index


@dataclass(frozen=True)
class TupleSplitCounter:
    """Reference split counter that keeps its minors as a 64-int tuple."""

    major: int = 0
    minors: tuple = tuple([0] * 64)

    def bump(self, block_in_page):
        if self.minors[block_in_page] >= 127:
            return TupleSplitCounter(self.major + 1, tuple([0] * 64))
        minors = list(self.minors)
        minors[block_in_page] += 1
        return TupleSplitCounter(self.major, tuple(minors))

    def effective(self, block_in_page):
        return (self.major, self.minors[block_in_page])

    def to_block_bytes(self):
        packed = 0
        for i, m in enumerate(self.minors):
            packed |= (m & 0x7F) << (7 * i)
        return self.major.to_bytes(8, "little") + packed.to_bytes(56, "little")


class TestSplitCounter:
    def test_simple_bump(self):
        ctr = SplitCounter()
        ctr = ctr.bump(3)
        assert ctr.effective(3) == (0, 1)
        assert ctr.effective(4) == (0, 0)

    def test_overflow_resets_page(self):
        minors = [0] * 64
        minors[3] = 127
        ctr = SplitCounter.from_minors(0, minors)
        ctr = ctr.bump(3)
        assert ctr.major == 1
        assert all(m == 0 for m in ctr.minors)

    def test_128_consecutive_bumps(self):
        ctr = SplitCounter()
        for _ in range(128):
            ctr = ctr.bump(0)
        assert ctr.major == 1
        assert ctr.minors[0] == 0
        ctr = ctr.bump(0)
        assert ctr.effective(0) == (1, 1)

    def test_index_range(self):
        with pytest.raises(IndexError):
            SplitCounter().bump(64)

    def test_block_bytes_is_one_block(self):
        assert len(SplitCounter().to_block_bytes()) == BLOCK_SIZE
        ctr = SplitCounter.from_minors(7, [127] * 64)
        assert len(ctr.to_block_bytes()) == BLOCK_SIZE

    def test_block_bytes_distinct(self):
        a = SplitCounter().bump(0)
        b = SplitCounter().bump(1)
        assert a.to_block_bytes() != b.to_block_bytes()

    @pytest.mark.parametrize("bad", [[0] * 63, [0] * 65, [0] * 63 + [128], [-1] + [0] * 63])
    def test_from_minors_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            SplitCounter.from_minors(0, bad)

    def test_from_minors_round_trips(self):
        minors = [(7 * i) % 128 for i in range(64)]
        ctr = SplitCounter.from_minors(3, minors)
        assert ctr.minors == tuple(minors)
        assert ctr == SplitCounter.from_minors(3, ctr.minors)

    @pytest.mark.parametrize("seed", range(6))
    def test_packed_matches_tuple_reference(self, seed):
        # few blocks per sequence, so minors cross the 127 overflow often
        rng = random.Random(seed)
        blocks = rng.sample(range(64), rng.choice([1, 2, 5]))
        ref, ctr = TupleSplitCounter(), SplitCounter()
        seen_ref, seen = set(), set()
        for _ in range(700):
            block = rng.choice(blocks)
            ref, ctr = ref.bump(block), ctr.bump(block)
            assert (ctr.major, ctr.minors) == (ref.major, ref.minors)
            assert all(ctr.effective(i) == ref.effective(i) for i in range(64))
            assert ctr.to_block_bytes() == ref.to_block_bytes()
            assert ctr == SplitCounter.from_minors(ref.major, ref.minors)
            seen_ref.add(ref)
            seen.add(ctr)
            assert len(seen) == len(seen_ref)
        assert ref.major >= 1

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300))
    def test_effective_counter_never_repeats(self, bumps):
        # oracle: a plain scalar per block; the effective value
        # major * 128 + minor must strictly increase on every bump
        ctr = SplitCounter()
        last = {}
        for block in bumps:
            ctr = ctr.bump(block)
            major, minor = ctr.effective(block)
            scalar = major * 128 + minor
            assert scalar > last.get(block, -1)
            last[block] = scalar


class TestGoldenMemory:
    def test_first_store(self):
        mem = GoldenMemory()
        pid = mem.apply_store(BlockAddr(0x1000), 0xAA)
        assert pid == 0
        assert mem.log[0].addr.value == 0x1000
        assert mem.log[0].plaintext == payload_block(0xAA)

    def test_last_writer_wins(self):
        mem = GoldenMemory()
        mem.apply_store(BlockAddr(0x1000), 1)
        mem.apply_store(BlockAddr(0x1000), 2)
        assert len(mem.log) == 2
        assert mem.state_at_epoch_end(0)[0x1000] == payload_block(2)

    def test_misaligned_store_rejected(self):
        mem = GoldenMemory()
        with pytest.raises(MisalignedAddress):
            mem.apply_store(0x1001, 0)

    def test_seed_out_of_range_rejected(self):
        mem = GoldenMemory()
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match="payload seed"):
                mem.apply_store(BlockAddr(0), seed)
        assert len(mem) == 0

    def test_log_order_matches_store_order(self):
        mem = GoldenMemory()
        for i in range(10):
            pid = mem.apply_store(BlockAddr(i * 64), i, epoch=i // 4)
            assert pid == i
        assert [r.persist_id for r in mem.log] == list(range(10))
        assert [r.plaintext for r in mem.log] == [payload_block(i) for i in range(10)]

    def test_plaintexts_are_derived_once_in_log_order(self):
        # a read derives the plaintexts up to the one it reads, and no more
        mem = GoldenMemory()
        for i in range(6):
            mem.apply_store(BlockAddr(i * 64), 100 + i)
        assert len(mem.plain) == 0
        assert mem.log[3].plaintext == payload_block(103) and len(mem.plain) == 4
        assert mem.plaintexts(2)[:2] == [payload_block(100), payload_block(101)] and len(mem.plain) == 4
        assert mem.plaintexts(6) == list(map(payload_block, range(100, 106)))

    def test_epoch_state(self):
        mem = GoldenMemory()
        mem.apply_store(BlockAddr(0), 1, epoch=0)
        mem.apply_store(BlockAddr(0), 2, epoch=1)
        assert mem.state_at_epoch_end(0)[0] == payload_block(1)
        assert mem.state_at_epoch_end(1)[0] == payload_block(2)

    def test_epochs_never_decrease_along_the_log(self):
        # state_at_epoch_end takes an epoch's stores as a log prefix
        mem = GoldenMemory()
        mem.apply_store(BlockAddr(0), 1, epoch=1)
        with pytest.raises(ValueError, match="must not decrease"):
            mem.apply_store(BlockAddr(64), 2, epoch=0)
        assert len(mem) == 1 and mem.state_at_epoch_end(0) == {}

    def test_counter_block_bytes_layout(self):
        # 8 bytes of major, then the 56 bytes of packed minors, both little-endian,
        # minor i in bits 7i .. 7i+6 of the packed int
        minors = [(37 * i + 5) % 128 for i in range(BLOCKS_PER_PAGE)]
        counter = SplitCounter.from_minors(0x0102030405060708, minors)
        block = counter.to_block_bytes()
        assert len(block) == BLOCK_SIZE
        assert block[:8] == bytes(range(8, 0, -1))
        assert block[8:] == counter.packed.to_bytes(56, "little")
        packed = int.from_bytes(block[8:], "little")
        assert [(packed >> (7 * i)) & 0x7F for i in range(BLOCKS_PER_PAGE)] == minors
