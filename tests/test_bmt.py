import random
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from nvmsim.bmt import BmtGeometry, BmtState, rebuild_from_counters
from nvmsim.crypto import KeySet
from nvmsim.model_core import SplitCounter

from oracles import full_root, lca_bruteforce

KEYS = KeySet.from_seed(0)
G4 = BmtGeometry(arity=8, levels=4)  # labels 0..584, leaves 73..584


class TestGeometry:
    def test_label_arithmetic(self):
        assert G4.first_leaf == 73
        assert G4.node_count == 585
        assert G4.parent(73) == 9
        assert list(G4.children(9)) == list(range(73, 81))
        assert G4.level_of(0) == 1
        assert G4.level_of(9) == 3
        assert G4.level_of(73) == 4

    def test_update_path(self):
        assert G4.update_path(73) == [73, 9, 1, 0]
        assert G4.update_path(584)[-1] == 0
        assert len(G4.update_path(100)) == G4.levels

    @pytest.mark.parametrize("arity,levels", [(2, 5), (3, 4), (8, 4)])
    def test_path_node_matches_update_path(self, arity, levels):
        geo = BmtGeometry(arity, levels)
        for page in range(geo.leaf_count):
            path = geo.update_path(geo.leaf_for_page(page))
            assert list(geo.path_nodes([page] * levels, range(levels, 0, -1))) == path

    def test_update_path_rejects_non_leaf(self):
        with pytest.raises(ValueError):
            G4.update_path(9)

    def test_lca_identical_leaves(self):
        assert _merge_level(100, 100) == G4.levels

    def test_lca_siblings(self):
        assert _merge_level(73, 74) == G4.level_of(9)

    def test_lca_disjoint_subtrees_is_root(self):
        # leaves under different level-2 children intersect only at the root
        a = G4.leaf_for_page(0)
        b = G4.leaf_for_page(G4.arity ** 2)  # first leaf of the second level-2 subtree
        assert _merge_level(a, b) == 1

    def test_default_geometry(self):
        g = BmtGeometry()
        assert g.arity == 8 and g.levels == 9
        assert g.leaf_count == 8 ** 8

    @given(
        st.integers(min_value=0, max_value=G4.leaf_count - 1),
        st.integers(min_value=0, max_value=G4.leaf_count - 1),
    )
    @settings(max_examples=300)
    def test_lca_matches_bruteforce(self, pa, pb):
        a, b = G4.leaf_for_page(pa), G4.leaf_for_page(pb)
        level = _merge_level(a, b)
        assert G4.update_path(a)[G4.levels - level] == lca_bruteforce(a, b, G4)
        assert level == _merge_level(b, a)
        assert level >= 1


def _merge_level(leaf_a, leaf_b):
    return G4.merge_level(G4.update_path(leaf_a), G4.update_path(leaf_b))


def apply_node_update(state: BmtState, label: int, counter_block: Optional[SplitCounter] = None) -> int:
    """Recompute node ``label`` of ``state``, a leaf from its counter block,
    and commit the value: the tree updated one node at a time, which the
    oracles' full recomputation is checked against."""
    level = state.geometry.level_of(label)
    value = state.compute_node(label, level, counter_block and counter_block.to_block_bytes())
    state.commit_node(label, value)
    return value


def _update_page(state, counters, page, geometry=G4):
    """Recompute ``page``'s update path, its leaf from its counter block."""
    leaf, *above = geometry.update_path(geometry.leaf_for_page(page))
    apply_node_update(state, leaf, counters[page])
    for label in above:
        apply_node_update(state, label)


class TestStateUpdates:
    def test_incremental_equals_full_recompute(self):
        counters = {}
        state = BmtState(G4, KEYS)
        rng = random.Random(0)
        for _ in range(40):
            page = rng.randrange(G4.leaf_count)
            block = rng.randrange(64)
            counters[page] = counters.get(page, SplitCounter()).bump(block)
            _update_page(state, counters, page)
            assert state.root() == full_root(counters, G4, KEYS)

    def test_idempotent_update(self):
        counters = {3: SplitCounter().bump(1)}
        state = BmtState(G4, KEYS)
        leaf = G4.leaf_for_page(3)
        v1 = apply_node_update(state, leaf, counters[3])
        v2 = apply_node_update(state, leaf, counters[3])
        assert v1 == v2

    def test_two_bumps_under_one_lca_commute(self):
        # apply two counter updates in both orders; LCA value identical
        base = {0: SplitCounter().bump(0), 1: SplitCounter().bump(5)}
        values = []
        for order in ((0, 1), (1, 0)):
            state = BmtState(G4, KEYS)
            for page in order:
                _update_page(state, base, page)
            values.append(state.node_value(9))  # shared parent of leaves 73, 74
        assert values[0] == values[1]

    def test_permuted_batches_same_root(self):
        # 10^4 random permutations across 200 random update sets
        rng = random.Random(7)
        g3 = BmtGeometry(arity=8, levels=3)
        for _ in range(200):
            pages = [rng.randrange(g3.leaf_count) for _ in range(rng.randrange(2, 10))]
            counters = {}
            for page in pages:
                counters[page] = counters.get(page, SplitCounter()).bump(rng.randrange(64))
            distinct = list(dict.fromkeys(pages))
            roots = set()
            for _ in range(50):
                order = distinct[:]
                rng.shuffle(order)
                state = BmtState(g3, KEYS)
                for page in order:
                    _update_page(state, counters, page, g3)
                roots.add(state.root())
            assert len(roots) == 1


class TestRebuild:
    def test_rebuild_matches_full_root(self):
        rng = random.Random(3)
        counters = {}
        for _ in range(25):
            page = rng.randrange(G4.leaf_count)
            counters[page] = counters.get(page, SplitCounter()).bump(rng.randrange(64))
        rebuilt = rebuild_from_counters(counters, G4, KEYS)
        assert rebuilt.root() == full_root(counters, G4, KEYS)

    def test_rebuild_differs_after_tamper(self):
        counters = {1: SplitCounter().bump(0)}
        root_a = rebuild_from_counters(counters, G4, KEYS).root()
        root_b = rebuild_from_counters({1: counters[1].bump(0)}, G4, KEYS).root()
        assert root_a != root_b

    def test_empty_rebuild_is_default_root(self):
        state = rebuild_from_counters({}, G4, KEYS)
        assert state.root() == state.default_value(1)
