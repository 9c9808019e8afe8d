"""Variation-aware page mapping: profile page hotness, tag physical frames by
cache latency, and allocate the hottest pages to the fastest frames.

The mapping is a two-pass scheme: a profiling pass counts LLC-bound accesses
per virtual page (of the raw or the L1-filtered stream), then pages sorted by
access count greedily claim the cheapest untaken frame for their dominant
core.  Frame cost is the latency class of the cache sets the frame's lines
occupy, plus the NoC round-trip from the core to the frame's bank (read
from `nuca.noc_table`) under unified (NoC-aware) mapping.

When the cost does not depend on the core (a single core, or NoC-oblivious
mapping), the greedy order minimizes total count-weighted latency.  Under
unified mapping it charges each page at its dominant core only, while the
true cost is weighted over every core that touches the page, so the result
is a close upper bound on the optimum rather than the optimum itself.

Profiles and inventories are numpy columns.  A frame's cost depends only on
(frame, core), so one `np.lexsort` orders the frames for each dominant core.
With a core-independent cost every page shares that order and the hottest
pages take its first frames, with no loop over pages; under unified mapping
each page takes the first untaken frame of its core's order.
"""

import io
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .cache_core import run_starts
from .workload import Trace, as_trace


class PageProfile:
    """Per-virtual-page LLC access counts, with per-core breakdowns.

    The profile is its run columns: one (page, core, count) run per pair
    that occurs, in ascending (page, core) order, with count > 0.  Per page
    (`page_ids` ascending) it derives the total (`totals`) and the dominant
    core (`dominant`: most accesses, lowest core id on ties).
    """

    def __init__(self, pages, cores, counts):
        pages = np.asarray(pages, dtype=np.uint64)
        cores = np.asarray(cores, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        self.pages, self.cores, self.run_counts = pages, cores, counts
        starts = run_starts(pages)   # each page's first run
        self.page_ids = pages[starts]
        self.totals = np.add.reduceat(counts, starts) if len(starts) else counts
        # Sorted by page, then most accesses, then lowest core, each page's
        # block starts with its dominant core.
        self.dominant = cores[np.lexsort((cores, -counts, pages))[starts]]

    @cached_property
    def counts(self):
        """{vpage: accesses}."""
        return dict(zip(self.page_ids.tolist(), self.totals.tolist()))

    @cached_property
    def core_counts(self):
        """{vpage: {core: accesses}}."""
        out = {}
        for page, core, n in zip(self.pages.tolist(), self.cores.tolist(),
                                  self.run_counts.tolist()):
            out.setdefault(page, {})[core] = n
        return out


class Frame(NamedTuple):
    """One physical page frame: its bank and the latency class of the cache
    sets its lines occupy."""

    index: int
    bank: int = 0
    latency_class: int = 0


class FrameInventory:
    """Physical frames as three columns: `index`, `bank` and
    `latency_class`, one entry per frame.  `frames` reads them as `Frame`s."""

    def __init__(self, index, bank, latency_class):
        self.index = np.asarray(index, dtype=np.int64)
        self.bank = np.asarray(bank, dtype=np.int64)
        self.latency_class = np.asarray(latency_class)

    @cached_property
    def frames(self):
        """The frames as `Frame`s, in column order."""
        return [Frame(*frame) for frame in zip(
            self.index.tolist(), self.bank.tolist(),
            self.latency_class.tolist())]


def frame_span_sets(page_bytes, line_bytes, num_sets):
    """Consecutive sets actually touched by one frame's lines: one line per
    set under standard indexing, bounded by the set count."""
    if page_bytes % line_bytes != 0:
        raise ValueError("page size not divisible by line size")
    return min(page_bytes // line_bytes, num_sets)


def _window_max(rows, span):
    """Per row and set s, the max of row[s:s + span], cut at the row's end;
    the windows double in width, so it takes about log2(span) steps."""
    out = np.array(rows)
    width = 1
    while width < span:
        step = min(width, span - width)
        out[:, :-step] = np.maximum(out[:, :-step], out[:, step:])
        width += step
    return out


def build_frame_inventory(geometry, page_bytes, num_frames, set_latencies):
    """Enumerate frames 0..num_frames-1 with their bank and latency class.

    Frame i starts at physical address i*page_bytes.  The bank bits sit
    directly above the per-bank set bits, so the set index of its first
    line over every bank divides into (bank, first set of its footprint).
    set_latencies[bank][set_index] is the effective latency of a set, one
    list per bank; the frame is tagged with the maximum over its footprint,
    so a frame whose footprint falls entirely inside one latency class gets
    that class and any straddling frame is tagged conservatively.
    """
    span = frame_span_sets(page_bytes, geometry.line_bytes, geometry.num_sets)
    classes = _window_max(set_latencies, span)
    sets = len(classes) * geometry.num_sets   # over every bank
    index = np.arange(num_frames)
    bank, start = np.divmod((index * page_bytes >> geometry.offset_bits) % sets,
                            geometry.num_sets)
    return FrameInventory(index, bank, classes[bank, start])


def profile_trace(records, page_bytes):
    """Count accesses per virtual page, per core."""
    trace = as_trace(records)
    pages = trace.addr // page_bytes
    order = np.lexsort((trace.core, pages))
    pages, cores = pages[order], trace.core[order]
    starts = run_starts(pages, cores)   # each (page, core) run's first
    counts = np.diff(np.append(starts, len(pages)))
    return PageProfile(pages[starts], cores[starts], counts)


def _cheapest_first(inventory, hops=None):
    """Frame positions by cost, ties by frame index.  A frame costs its
    latency class, plus hops[bank] when a core's NoC row `hops` is given."""
    cost = inventory.latency_class
    if hops is not None:
        cost = cost + np.asarray(hops)[inventory.bank]
    return np.lexsort((inventory.index, cost))


def assign_pages(profile, inventory, noc=None):
    """Greedy hot-page-to-fast-frame assignment.

    Pages are taken hottest first (count descending, page number ascending on
    ties); each claims the untaken frame of least cost for its dominant core,
    ties broken by frame index.  A frame costs its latency class, plus
    noc[core][frame.bank] when the NoC table `noc` (see `nuca.noc_table`) is
    given.  The inventory is left untouched.  Raises if the touched pages
    outnumber the frames.
    """
    hot = np.lexsort((profile.page_ids, -profile.totals))
    pages = profile.page_ids[hot]
    if len(pages) > len(inventory.index):
        raise ValueError(f"{len(pages)} pages exceed {len(inventory.index)} "
                         f"frames")
    if not noc:
        # One order for every page: the i-th hottest takes its i-th frame.
        claimed = _cheapest_first(inventory)[:len(pages)]
    else:
        cores = profile.dominant[hot].tolist()
        # Each order stays a numpy array: a memoryview reads it as Python
        # ints without a list of them per core.
        orders = {core: memoryview(_cheapest_first(inventory, noc[core]))
                  for core in set(cores)}
        at = dict.fromkeys(orders, 0)   # core -> its order's first untried
        taken = bytearray(len(inventory.index))
        claimed = []
        for core in cores:
            order, i = orders[core], at[core]
            while taken[order[i]]:
                i += 1
            taken[order[i]] = 1
            at[core] = i + 1
            claimed.append(order[i])
    return dict(zip(pages.tolist(), inventory.index[claimed].tolist()))


def translate(vaddr, mapping, page_bytes):
    """Rewrite the page bits of a virtual address per the assignment."""
    vpage, offset = divmod(vaddr, page_bytes)
    frame = mapping.get(vpage)
    if frame is None:
        return vaddr
    return frame * page_bytes + offset


def translate_trace(trace, mapping, page_bytes):
    """The trace with each address rewritten by `translate`, built in place
    in its one output column: each address's page, less the mapped page
    the search puts it at (0 exactly where its page is mapped), then how
    far that mapping moves its addresses, (frame - page) * page_bytes
    modulo 2^64, or 0, plus the address."""
    if not mapping:
        return trace
    vpages, frames = np.array(sorted(mapping.items()), dtype=np.uint64).T
    moves = (frames - vpages) * page_bytes
    addr = trace.addr // page_bytes
    # A page past the last mapped one is put at it ("clip"), which also
    # lets take write straight into its output.
    at = np.searchsorted(vpages, addr)
    addr -= vpages.take(at, mode="clip")
    mapped = addr == 0
    moves.take(at, out=addr, mode="clip")
    del at
    addr *= mapped
    addr += trace.addr
    return Trace(trace.core, trace.write, trace.instr, addr)


def serialize_profile(profile):
    """`vpage,count,core:count,...` lines ordered by virtual page."""
    out = io.StringIO()
    for vpage in sorted(profile.counts):
        per = profile.core_counts.get(vpage, {})
        cores = ",".join(f"{c}:{per[c]}" for c in sorted(per))
        out.write(f"{vpage},{profile.counts[vpage]}" + ("," + cores if cores else "") + "\n")
    return out.getvalue()
