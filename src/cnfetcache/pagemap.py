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

A frame's cost depends only on (frame, core), so the frames are sorted once
per dominant core and each page takes the first untaken frame of its
core's order: O(F K log F + P) for F frames, K cores and P pages.
"""

import io
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .workload import Trace, as_trace


@dataclass
class PageProfile:
    """Per-virtual-page LLC access counts, with per-core breakdowns."""

    counts: dict = field(default_factory=dict)        # vpage -> count
    core_counts: dict = field(default_factory=dict)   # vpage -> {core: count}

    def dominant_core(self, vpage):
        """Core issuing the most accesses to the page (ties: lowest id)."""
        per = self.core_counts.get(vpage)
        if not per:
            return None
        best = max(per.values())
        return min(c for c, n in per.items() if n == best)

    def pages_by_hotness(self):
        """Pages ordered by access count descending, ties by page number."""
        return sorted(self.counts, key=lambda p: (-self.counts[p], p))


class Frame(NamedTuple):
    """One physical page frame: its bank and the latency class of the cache
    sets its lines occupy."""

    index: int
    bank: int = 0
    latency_class: int = 0


@dataclass
class FrameInventory:
    frames: list


def frame_span_sets(page_bytes, line_bytes, num_sets):
    """Consecutive sets actually touched by one frame's lines: one line per
    set under standard indexing, bounded by the set count."""
    if page_bytes % line_bytes != 0:
        raise ValueError("page size not divisible by line size")
    return min(page_bytes // line_bytes, num_sets)


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
    sets = len(set_latencies) * geometry.num_sets   # over every bank
    frames = []
    for idx in range(num_frames):
        bank, start = divmod((idx * page_bytes >> geometry.offset_bits) % sets,
                             geometry.num_sets)
        lat = max(set_latencies[bank][start:start + span])
        frames.append(Frame(idx, bank, lat))
    return FrameInventory(frames)


def profile_trace(records, page_bytes):
    """Count accesses per virtual page, per core.  Pages and each page's
    cores are in ascending order."""
    trace = as_trace(records)
    pages = trace.addr // page_bytes
    order = np.lexsort((trace.core, pages))
    pages, cores = pages[order], trace.core[order]
    # The first reference of each (page, core) run; none in an empty trace.
    starts = np.flatnonzero(np.concatenate((
        [len(pages) > 0], (pages[1:] != pages[:-1]) | (cores[1:] != cores[:-1]))))
    counts = np.diff(np.append(starts, len(pages)))
    profile = PageProfile()
    for page, core, n in zip(pages[starts].tolist(), cores[starts].tolist(),
                             counts.tolist()):
        profile.core_counts.setdefault(page, {})[core] = n
        profile.counts[page] = profile.counts.get(page, 0) + n
    return profile


def assign_pages(profile, inventory, noc=None):
    """Greedy hot-page-to-fast-frame assignment.

    Pages are taken hottest first (count descending, page number ascending on
    ties); each claims the untaken frame of least cost for its dominant core,
    ties broken by frame index.  A frame costs its latency class, plus
    noc[core][frame.bank] when the NoC table `noc` (see `nuca.noc_table`) is
    given.  The inventory is left untouched.  Raises if the touched pages
    outnumber the frames.
    """
    pages = profile.pages_by_hotness()
    frames = inventory.frames
    if len(pages) > len(frames):
        raise ValueError(f"{len(pages)} pages exceed {len(frames)} frames")
    taken = set()
    orders = {}   # core -> iterator over the frames, cheapest first
    mapping = {}
    for vpage in pages:
        core = profile.dominant_core(vpage)
        order = orders.get(core)
        if order is None:
            hops = noc[core] if noc else None
            order = orders[core] = iter(sorted(frames, key=lambda f: (
                f.latency_class + (hops[f.bank] if hops else 0), f.index)))
        index = next(f.index for f in order if f.index not in taken)
        taken.add(index)
        mapping[vpage] = index
    return mapping


def translate(vaddr, mapping, page_bytes):
    """Rewrite the page bits of a virtual address per the assignment."""
    vpage, offset = divmod(vaddr, page_bytes)
    frame = mapping.get(vpage)
    if frame is None:
        return vaddr
    return frame * page_bytes + offset


def translate_trace(trace, mapping, page_bytes):
    """The trace with each address rewritten by `translate`."""
    if not mapping:
        return trace
    vpages, frames = np.array(sorted(mapping.items()), dtype=np.uint64).T
    pages, offsets = np.divmod(trace.addr, page_bytes)
    at = np.minimum(np.searchsorted(vpages, pages), len(vpages) - 1)
    addr = np.where(vpages[at] == pages, frames[at] * page_bytes + offsets,
                    trace.addr)
    return Trace(trace.core, trace.write, trace.instr, addr)


def serialize_profile(profile):
    """`vpage,count,core:count,...` lines ordered by virtual page."""
    out = io.StringIO()
    for vpage in sorted(profile.counts):
        per = profile.core_counts.get(vpage, {})
        cores = ",".join(f"{c}:{per[c]}" for c in sorted(per))
        out.write(f"{vpage},{profile.counts[vpage]}" + ("," + cores if cores else "") + "\n")
    return out.getvalue()
