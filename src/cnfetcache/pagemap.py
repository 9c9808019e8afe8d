"""Variation-aware page mapping: profile page hotness, tag physical frames by
cache latency, and allocate the hottest pages to the fastest frames.

The mapping is a two-pass scheme: a profiling pass counts LLC-bound accesses
per virtual page (of the raw or the L1-filtered stream), then pages sorted by
access count greedily claim the cheapest free frame for their dominant
core.  Frame cost is the latency class of the cache sets the frame's lines
occupy, plus the NoC round-trip from the core to the frame's bank under
unified (NoC-aware) mapping.

When the cost does not depend on the core (a single core, or NoC-oblivious
mapping), the greedy order minimizes total count-weighted latency.  Under
unified mapping it charges each page at its dominant core only, while the
true cost is weighted over every core that touches the page, so the result
is a close upper bound on the optimum rather than the optimum itself.

A frame's cost depends only on (frame, core), so the free frames are sorted
once per dominant core and each page takes the first untaken frame of its
core's order: O(F K log F + P) for F frames, K cores and P pages.
"""

import io
from dataclasses import dataclass, field

from .nuca import bank_of


@dataclass
class PageProfile:
    """Per-virtual-page LLC access counts, with per-core breakdowns."""

    counts: dict = field(default_factory=dict)        # vpage -> count
    core_counts: dict = field(default_factory=dict)   # vpage -> {core: count}

    def record(self, vpage, core_id, n=1):
        self.counts[vpage] = self.counts.get(vpage, 0) + n
        per = self.core_counts.setdefault(vpage, {})
        per[core_id] = per.get(core_id, 0) + n

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


@dataclass
class Frame:
    """One physical page frame and the cache footprint of its lines."""

    index: int
    start_set: int
    span_sets: int
    bank: int = 0
    latency_class: int = 0
    free: bool = True


@dataclass
class FrameInventory:
    frames: list
    page_bytes: int

    def free_frames(self):
        return [f for f in self.frames if f.free]


def frame_span_sets(page_bytes, line_bytes, num_sets):
    """Consecutive sets actually touched by one frame's lines: one line per
    set under standard indexing, bounded by the set count."""
    if page_bytes % line_bytes != 0:
        raise ValueError("page size not divisible by line size")
    return min(page_bytes // line_bytes, num_sets)


def build_frame_inventory(geometry, page_bytes, num_frames, set_latencies):
    """Enumerate frames 0..num_frames-1 with their set footprint and latency.

    Frame placement follows the address math (frame i starts at physical
    address i*page_bytes, bank bits above the per-bank set bits).
    set_latencies[bank][set_index] is the effective latency of a set, one
    list per bank; the frame is tagged with the maximum over its footprint,
    so a frame whose footprint falls entirely inside one latency class gets
    that class and any straddling frame is tagged conservatively.
    """
    span = frame_span_sets(page_bytes, geometry.line_bytes, geometry.num_sets)
    frames = []
    for idx in range(num_frames):
        address = idx * page_bytes
        bank = bank_of(address, len(set_latencies), geometry)
        start = (address >> geometry.offset_bits) & (geometry.num_sets - 1)
        lat = max(set_latencies[bank][start:start + span])
        frames.append(Frame(idx, start, span, bank, lat))
    return FrameInventory(frames, page_bytes)


def profile_trace(records, page_bytes):
    """Count accesses per virtual page, per core."""
    profile = PageProfile()
    for rec in records:
        profile.record(rec.vaddr // page_bytes, rec.core_id)
    return profile


def assign_pages(profile, inventory, latency_of_frame=None):
    """Greedy hot-page-to-fast-frame assignment.

    Pages are taken hottest first (count descending, page number ascending on
    ties); each claims the free frame minimizing latency_of_frame(frame,
    dominant_core), ties broken by frame index.  Default cost is the frame's
    latency class.  Raises if the touched pages outnumber the free frames.
    """
    if latency_of_frame is None:
        latency_of_frame = lambda frame, core: frame.latency_class
    pages = profile.pages_by_hotness()
    free = inventory.free_frames()
    if len(pages) > len(free):
        raise ValueError(f"{len(pages)} pages exceed {len(free)} free frames")
    taken = bytearray(len(free))
    orders = {}   # core -> iterator over free-list positions, cheapest first
    mapping = {}
    for vpage in pages:
        core = profile.dominant_core(vpage)
        order = orders.get(core)
        if order is None:
            order = orders[core] = iter(sorted(
                range(len(free)),
                key=lambda i: (latency_of_frame(free[i], core), free[i].index)))
        pos = next(i for i in order if not taken[i])
        taken[pos] = 1
        frame = free[pos]
        frame.free = False
        mapping[vpage] = frame.index
    return mapping


def translate(vaddr, mapping, page_bytes):
    """Rewrite the page bits of a virtual address per the assignment."""
    vpage, offset = divmod(vaddr, page_bytes)
    frame = mapping.get(vpage)
    if frame is None:
        return vaddr
    return frame * page_bytes + offset


def serialize_profile(profile):
    """`vpage,count,core:count,...` lines ordered by virtual page."""
    out = io.StringIO()
    for vpage in sorted(profile.counts):
        per = profile.core_counts.get(vpage, {})
        cores = ",".join(f"{c}:{per[c]}" for c in sorted(per))
        out.write(f"{vpage},{profile.counts[vpage]}" + ("," + cores if cores else "") + "\n")
    return out.getvalue()
