import pytest
from hypothesis import given, strategies as st

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


class TestSplitCounter:
    def test_simple_bump(self):
        ctr = SplitCounter()
        ctr = ctr.bump(3)
        assert ctr.effective(3) == (0, 1)
        assert ctr.effective(4) == (0, 0)

    def test_overflow_resets_page(self):
        minors = [0] * 64
        minors[3] = 127
        ctr = SplitCounter(major=0, minors=tuple(minors))
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
        ctr = SplitCounter(major=7, minors=tuple([127] * 64))
        assert len(ctr.to_block_bytes()) == BLOCK_SIZE

    def test_block_bytes_distinct(self):
        a = SplitCounter().bump(0)
        b = SplitCounter().bump(1)
        assert a.to_block_bytes() != b.to_block_bytes()

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
        pid = mem.apply_store(BlockAddr(0x1000), b"\xaa" * 64)
        assert pid == 0
        assert mem.blocks[0x1000] == b"\xaa" * 64

    def test_last_writer_wins(self):
        mem = GoldenMemory()
        mem.apply_store(BlockAddr(0x1000), b"\x01" * 64)
        mem.apply_store(BlockAddr(0x1000), b"\x02" * 64)
        assert len(mem.log) == 2
        assert mem.blocks[0x1000] == b"\x02" * 64

    def test_misaligned_store_rejected(self):
        mem = GoldenMemory()
        with pytest.raises(MisalignedAddress):
            mem.apply_store(0x1001, b"\x00" * 64)

    def test_log_order_matches_store_order(self):
        mem = GoldenMemory()
        for i in range(10):
            pid = mem.apply_store(BlockAddr(i * 64), bytes([i]) * 64, epoch=i // 4)
            assert pid == i
        assert [r.persist_id for r in mem.log] == list(range(10))

    def test_epoch_state(self):
        mem = GoldenMemory()
        mem.apply_store(BlockAddr(0), b"\x01" * 64, epoch=0)
        mem.apply_store(BlockAddr(0), b"\x02" * 64, epoch=1)
        assert mem.state_at_epoch_end(0)[0] == b"\x01" * 64
        assert mem.state_at_epoch_end(1)[0] == b"\x02" * 64
