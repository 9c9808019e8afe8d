"""Metamorphic relations of the hit-counting pass, `nuca.count_hits`: ways
to change a stream whose effect on its hit table is known without running
any reference, so they check the pass at any size.

(a) Set partition.  Sets are independent, so the tables of the stream split
    into three set classes sum to the whole stream's: counts, accesses,
    writes and shuffle moves.
(b) Tag relabelling.  XOR-ing every tag of a set with one constant of that
    set keeps the set and bank bits and renames the set's lines one to one,
    so the table does not change.
(c) Doubling.  A reference repeated in place hits its line, which its
    first copy left in the set, and leaves it at the front of the set's
    stack.  So each first copy sees the set's lines in LRU order: every
    (row, bank)'s hits grow by its references over the hits plain LRU
    banks count on the stream alone, and the misses equal theirs.  For an
    LRU or PD bank that is its own table of the stream alone.  For a DS
    bank it is not: a fill into a slower group enters behind the faster
    groups' blocks, not at the stack's front, so on the stream alone a DS
    set can evict a line that LRU keeps (the lines 1 2 3 4 5 1 on the
    groups [0, 1] and [2, 3] hit once, and doubled six times, not seven).
    Shuffle moves are not compared: a repeat just after a fill into a
    slower group is a hit there, which promotes the block.  This is a
    statement on the table: a row priced under way aligned partial
    disabling counts the repeats in its disabled sets as misses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnfetcache import cache_core, nuca, vasa
from cnfetcache.cache_core import BankPolicy
from cnfetcache.timing import CacheGeometry, LayoutKind
from cnfetcache.workload import Trace

GEOMETRY = CacheGeometry(4 * 1024, 4, 64)          # 16 sets x 4 ways
TAG_SHIFT = GEOMETRY.offset_bits + GEOMETRY.set_bits
MESHES = {"uca": None, "mesh": (1, 2)}             # NUCA rows, cols


def _policy(kind, groups):
    """One bank's policy of each kind: plain LRU, partial disabling (its
    last group off, the rest at one clock) or data shuffling."""
    if kind == "lru":
        return BankPolicy(list(range(6, 6 + groups)))
    if kind == "pd":
        return BankPolicy([7] * (groups - 1) + [9], {groups - 1})
    return BankPolicy([6, 7, 8, 9],
                      shuffle=vasa.WayGroups([[0], [1, 2], [3]]))


# (layout, policy kind): LRU and PD on both layouts, DS on set aligned.
KINDS = [(LayoutKind.SET_ALIGNED, "lru"), (LayoutKind.SET_ALIGNED, "pd"),
         (LayoutKind.SET_ALIGNED, "ds"), (LayoutKind.WAY_ALIGNED, "lru"),
         (LayoutKind.WAY_ALIGNED, "pd")]


@st.composite
def streams(draw):
    """A few sets of the LLC, each with up to ways + 3 lines, referenced by
    four cores, so that lines hit at every depth and sets evict."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    length = draw(st.integers(1, 300))
    sets = rng.choice(GEOMETRY.num_sets, size=draw(st.integers(1, 5)),
                      replace=False).astype(np.uint64)
    tags = rng.integers(0, GEOMETRY.num_ways + 3, size=length, dtype=np.uint64)
    line = tags << np.uint64(GEOMETRY.set_bits) | rng.choice(sets, size=length)
    addr = line << np.uint64(GEOMETRY.offset_bits) | rng.integers(
        0, GEOMETRY.line_bytes, size=length, dtype=np.uint64)
    return Trace(rng.integers(0, 4, size=length), rng.random(length) < 0.4,
                 np.zeros(length, dtype=bool), addr)


def _count(trace, layout, kind, mesh):
    noc = None if mesh is None else nuca.noc_table(*mesh, 1, 2)
    banks = 1 if mesh is None else mesh[0] * mesh[1]
    groups = (GEOMETRY.num_sets // banks if layout is LayoutKind.WAY_ALIGNED
              else GEOMETRY.num_ways)
    return nuca.count_hits(trace, GEOMETRY, layout,
                           [_policy(kind, groups)] * banks, noc)


def _set(trace):
    return (trace.addr >> np.uint64(GEOMETRY.offset_bits)) & np.uint64(
        GEOMETRY.num_sets - 1)


def _part(trace, keep):
    return Trace(trace.core[keep], trace.write[keep], trace.instr[keep],
                 trace.addr[keep])


RELATIONS = settings(max_examples=30, deadline=None, derandomize=True,
                     database=None)
CASES = pytest.mark.parametrize(
    "layout, kind, mesh",
    [(layout, kind, mesh) for layout, kind in KINDS for mesh in MESHES.values()],
    ids=[f"{layout.value}-{kind}-{name}" for layout, kind in KINDS
         for name in MESHES])


@CASES
@RELATIONS
@given(trace=streams())
def test_set_classes_sum_to_the_whole(layout, kind, mesh, trace):
    whole = _count(trace, layout, kind, mesh)
    parts = [_count(_part(trace, _set(trace) % np.uint64(3) == k), layout,
                    kind, mesh) for k in range(3)]
    assert all(part.shape == whole.shape for part in parts)
    assert np.array_equal(sum(part.counts for part in parts), whole.counts)
    assert sum(part.accesses for part in parts) == whole.accesses
    assert sum(part.writes for part in parts) == whole.writes
    assert sum(part.shuffle_moves for part in parts) == whole.shuffle_moves


@CASES
@RELATIONS
@given(trace=streams(), seed=st.integers(0, 2 ** 32 - 1))
def test_tags_relabelled_per_set_leave_the_table(layout, kind, mesh, trace,
                                                 seed):
    constant = np.random.default_rng(seed).integers(
        0, 1 << 20, size=GEOMETRY.num_sets, dtype=np.uint64)
    relabelled = Trace(trace.core, trace.write, trace.instr, trace.addr ^ (
        constant[_set(trace)] << np.uint64(TAG_SHIFT)))
    assert (_count(relabelled, layout, kind, mesh)
            == _count(trace, layout, kind, mesh))


@CASES
@RELATIONS
@given(trace=streams())
def test_doubling_each_reference_adds_one_hit_per_reference(layout, kind,
                                                            mesh, trace):
    once = _count(trace, layout, kind, mesh)
    lru = _count(trace, layout, "lru", mesh) if kind == "ds" else once
    twice = _count(Trace(*(np.repeat(column, 2) for column in (
        trace.core, trace.write, trace.instr, trace.addr))), layout, kind, mesh)
    rows, banks = once.shape[:2]
    # Each reference's (row, bank): the bank bits sit atop the set index.
    row = 0 if mesh is None else trace.core
    bank = (_set(trace) // np.uint64(GEOMETRY.num_sets // banks)).astype(int)
    references = np.zeros((rows, banks), dtype=np.int64)
    np.add.at(references, (row, bank), 1)

    def hits(table):
        return table.counts.reshape(table.shape).sum(axis=(2, 3))

    assert twice.shape == once.shape
    assert (twice.accesses, twice.writes) == (2 * once.accesses,
                                              2 * once.writes)
    assert np.array_equal(hits(twice), hits(lru) + references)
    assert (twice.accesses - hits(twice).sum()
            == lru.accesses - hits(lru).sum())


def test_a_doubled_ds_set_hits_as_lru_does():
    groups = vasa.WayGroups([[0, 1], [2, 3]])
    lines = np.array([1, 2, 3, 4, 5, 1], dtype=np.uint64)

    def hits(tags, shuffle):
        sets = np.zeros(len(tags), dtype=np.int64)
        if shuffle:
            return int((vasa.replay_shuffle(sets, tags, groups)[0] >= 0).sum())
        return int((cache_core.replay_lru(sets, tags, 4) >= 0).sum())

    assert hits(lines, True) == 1                   # 3 evicted, 1 kept
    assert hits(lines, False) == 0                  # LRU evicts 1
    assert hits(np.repeat(lines, 2), True) == 6     # 1 evicted, as LRU does
