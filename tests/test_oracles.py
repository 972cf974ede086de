import random

from nvmsim.bmt import BmtGeometry, BmtState
from nvmsim.crypto import KeySet
from nvmsim.model_core import SplitCounter

from oracles import dedup_update_count, full_root, lca_bruteforce
from test_bmt import apply_node_update

KEYS = KeySet.from_seed(0)
G4 = BmtGeometry(arity=8, levels=4)

# regression anchor: the empty-tree root for seed-0 keys, recorded on the
# oracle's first run; catches accidental changes to hashing or layout
ZERO_ROOT_SEED0_8x4 = 0xFAE4F54F862F2C52


def test_zero_counter_root_pinned():
    assert full_root({}, G4, KEYS) == ZERO_ROOT_SEED0_8x4


def test_full_root_matches_incremental_state():
    rng = random.Random(11)
    counters = {}
    state = BmtState(G4, KEYS)
    for _ in range(30):
        page = rng.randrange(G4.leaf_count)
        counters[page] = counters.get(page, SplitCounter()).bump(rng.randrange(64))
        leaf, *above = G4.update_path(G4.leaf_for_page(page))
        apply_node_update(state, leaf, counters[page])
        for label in above:
            apply_node_update(state, label)
    assert state.root() == full_root(counters, G4, KEYS)


def test_full_root_sensitive_to_single_tamper():
    counters = {4: SplitCounter().bump(0)}
    before = full_root(counters, G4, KEYS)
    counters[4] = counters[4].bump(1)
    assert full_root(counters, G4, KEYS) != before


def test_lca_bruteforce_agrees_over_sampled_pairs():
    # 10^5 sampled leaf pairs on the 585-node tree
    rng = random.Random(12)
    for _ in range(100_000):
        a = G4.leaf_for_page(rng.randrange(G4.leaf_count))
        b = G4.leaf_for_page(rng.randrange(G4.leaf_count))
        path_a, path_b = G4.update_path(a), G4.update_path(b)
        assert lca_bruteforce(a, b, G4) == path_a[G4.levels - G4.merge_level(path_a, path_b)]
    leaf = G4.leaf_for_page(17)
    assert lca_bruteforce(leaf, leaf, G4) == leaf
    a, b = G4.leaf_for_page(2), G4.leaf_for_page(500)
    assert lca_bruteforce(a, b, G4) == lca_bruteforce(b, a, G4)


def test_dedup_single_persist_is_full_path():
    assert dedup_update_count([G4.leaf_for_page(3)], G4) == G4.levels


def test_dedup_two_same_page():
    leaf = G4.leaf_for_page(0)
    assert dedup_update_count([leaf, leaf], G4) == G4.levels + 1


def test_dedup_three_persist_merge_scenario():
    leaves = [G4.leaf_for_page(0), G4.leaf_for_page(1), G4.leaf_for_page(8)]
    assert dedup_update_count(leaves, G4) == 7


def test_dedup_disjoint_pair():
    leaves = [G4.leaf_for_page(0), G4.leaf_for_page(64)]
    assert dedup_update_count(leaves, G4) == 2 * (G4.levels - 1) + 1


def test_dedup_never_exceeds_uncoalesced():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randrange(1, 16)
        leaves = [G4.leaf_for_page(rng.randrange(G4.leaf_count)) for _ in range(n)]
        count = dedup_update_count(leaves, G4)
        assert G4.levels <= count <= n * G4.levels
