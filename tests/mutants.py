"""Hand-made mutants of the package, each with the tests that must catch it.

Run by hand from anywhere; it is not part of the tier-1 suite:

    python tests/mutants.py            # every mutant
    python tests/mutants.py --list     # names only
    python tests/mutants.py NAME ...   # the named mutants

Each mutant replaces one piece of text in one file of a temporary copy of
`src/` and runs only its named tests against that copy.  A mutant is caught
when those tests fail.  The script exits 1 if any mutant survives, if a
mutant's old text does not appear exactly once in its file (re-express the
mutant against the current code rather than dropping it), or if the named
tests do not pass on the unmutated copy.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = "tests/test_reference_workload.py::"
CORE = "tests/test_cache_core.py::"
PASS = "tests/test_pass.py::test_pass_and_pricing_match_the_per_access_engine"
PASS_COUNT = "tests/test_cli.py::test_compare_makes_one_pass_per_stream"
ASSIGN = "tests/test_pagemap.py::test_assignment_matches_quadratic_reference"
TRANSLATE = "tests/test_pagemap.py::test_translate_trace_matches_translate"
INVENTORY = ("tests/test_pagemap.py::"
             "test_inventory_matches_the_per_frame_reference")
DOMINANT = ("tests/test_pagemap.py::"
            "test_profile_columns_give_counts_and_dominant_core")
NG_RUNS = ("tests/test_properties.py::"
           "test_flattened_ng_never_undercuts_physical_latency",
           "tests/test_vawa.py::"
           "test_nonuniform_groups_match_the_per_block_reference")
STARTUP = "tests/test_startup.py::"
ORACLE = "tests/test_vasa.py::test_engine_agrees_with_straight_line_oracle"
DS_KERNEL = ("tests/test_vasa.py::"
             "test_replay_shuffle_matches_the_straight_shuffle_replay")
OBJECT_ENGINE = ("tests/test_reference_engine.py::"
                 "test_list_engines_match_object_reference")


class Mutant(NamedTuple):
    name: str
    path: str          # relative to src/
    old: str
    new: str
    tests: tuple       # pytest ids, relative to the repository root


WORKLOAD = "cnfetcache/workload.py"
NUCA = "cnfetcache/nuca.py"
CLI = "cnfetcache/cli.py"
PAGEMAP = "cnfetcache/pagemap.py"
INIT = "cnfetcache/__init__.py"
VASA = "cnfetcache/vasa.py"
VAWA = "cnfetcache/vawa.py"
CACHE_CORE = "cnfetcache/cache_core.py"
METRICS = "cnfetcache/metrics.py"
TOTALS = "tests/test_metrics.py::test_totals_follow_from_the_counts"
LATENCY_KEY = ("tests/test_cli.py::"
               "test_sweep_keeps_rows_with_different_latency_inputs_apart")

MUTANTS = [
    # The trace and L1 mutants of the columnar trace change, re-expressed
    # against the one LRU replay: the L1 finds its dirty write-backs from
    # each (set, way) slot's lives, one fill to the next.
    Mutant("read hit clears the dirty bit", WORKLOAD,
           "np.logical_or.reduceat(writes[by_slot], lives)[:-1]",
           "writes[by_slot][np.append(lives[1:], len(by_slot)) - 1][:-1]",
           (REFERENCE + "test_l1_columns_match_the_per_record_filter",)),
    Mutant("write-back placed after its fill", WORKLOAD,
           "[2 * victim_at, 2 * fills + 1]", "[2 * victim_at + 1, 2 * fills]",
           (REFERENCE + "test_l1_columns_match_the_per_record_filter",)),
    Mutant("L1 one way short", CACHE_CORE,
           "if len(stack) < ways else", "if len(stack) < ways - 1 else",
           (REFERENCE + "test_l1_columns_match_the_per_record_filter",)),
    Mutant("instruction fetch parity flipped", WORKLOAD,
           "instr = rank % 2 == 1", "instr = rank % 2 == 0",
           (REFERENCE + "test_generated_columns_match_the_per_record_generator",)),
    # The block reader's line numbers and block size, and the lines a
    # block that falls back is split into.
    Mutant("chunk line numbers off by one", WORKLOAD,
           "lines = int(line[-1]) - 1", "lines = int(line[-1])",
           (REFERENCE + "test_parse_matches_the_per_line_parser",)),
    Mutant("fallback block's line count off by one", WORKLOAD,
           "first_lineno, num_cores), len(split) - 1",
           "first_lineno, num_cores), len(split)",
           (REFERENCE + "test_parse_matches_the_per_line_parser",)),
    Mutant("whole trace in one chunk", WORKLOAD,
           "PARSE_BLOCK_CHARS = 1 << 16", "PARSE_BLOCK_CHARS = 1 << 24",
           (REFERENCE + "test_parse_peak_memory_per_record",)),
    Mutant("block read without the rest of its last line", WORKLOAD,
           "        text += stream.readline()\n", "",
           (REFERENCE + "test_parse_matches_the_per_line_parser",)),
    Mutant("fallback lines split on every line break", WORKLOAD,
           'split = text.split("\\n")', "split = text.splitlines()",
           (REFERENCE + "test_parse_matches_the_per_line_parser",)),
    # The byte scan and the run collapse.
    Mutant("scan skips the num_cores check", WORKLOAD,
           "if num_cores is not None and np.any(core >= num_cores):",
           "if False:",
           (REFERENCE + "test_parse_matches_the_per_line_parser",)),
    Mutant("run collapse drops the OR of its writes", WORKLOAD,
           "np.logical_or.reduceat(trace.write[positions[order]], runs)",
           "trace.write[positions[order]][runs]",
           (REFERENCE + "test_l1_columns_match_the_per_record_filter",
            REFERENCE + "test_l1_sends_a_run_of_repeats_through_lru_once")),
    Mutant("scan accepts 17 hex digits", WORKLOAD,
           "addr_end, 16, 16, np.uint64)", "addr_end, 17, 16, np.uint64)",
           (REFERENCE + "test_parse_rejects_values_beyond_the_columns",)),
    Mutant("scan accepts 19 decimal digits", WORKLOAD,
           "ends[head], 18, 10, np.int64)", "ends[head], 19, 10, np.int64)",
           (REFERENCE + "test_parse_rejects_values_beyond_the_columns",)),
    Mutant("scan splits on every control byte", WORKLOAD,
           "b < 128 and chr(b).isspace()", "b <= 32",
           (REFERENCE + "test_parse_matches_the_per_line_parser",)),
    Mutant("run collapse ignores the set", WORKLOAD,
           "(np.diff(sets, prepend=-1) != 0)", "(np.arange(len(sets)) == 0)",
           (REFERENCE + "test_l1_columns_match_the_per_record_filter",)),
    Mutant("not-UTF-8 error names the next line", WORKLOAD,
           'bad = text.count("\\n", 0, exc.start)',
           'bad = text.count("\\n", 0, exc.start) + 1',
           ("tests/test_cli.py::test_simulate_rejects_malformed_trace",)),
    # The pass and pricing mutants of the one-pass change, re-expressed
    # against the per-set replays: `count_hits` sorts the stream by set,
    # replays each bank's run and counts the landings with numpy, and
    # `price` reads the table as an array.
    Mutant("PD hit test d <= k + 1", NUCA,
           "within[:, bank, :, -1 - len(off)]", "within[:, bank, :, -len(off)]",
           (PASS + "[set_aligned-baseline_pd]",)),
    Mutant("bypass ignored", NUCA,
           "hits[:, bank, off] = 0", "pass",
           (PASS + "[way_aligned-baseline_pd]",)),
    Mutant("NoC dropped", NUCA,
           "hops = 0 if noc is None else", "hops = 0 if True else",
           (PASS + "[way_aligned-baseline]",)),
    Mutant("set aligned banks priced by set", NUCA,
           "    if not per_set:\n", "    if False:\n",
           (PASS + "[set_aligned-vasa]",)),
    Mutant("DS moves dropped", NUCA,
           "moves += step", "moves += 0",
           (PASS + "[set_aligned-vasa_ds4]",)),
    Mutant("LRU depth one too deep", CACHE_CORE,
           "depth = stack.index(tag)", "depth = stack.index(tag) + 1",
           (PASS + "[set_aligned-baseline_pd]", PASS + "[set_aligned-vasa]")),
    Mutant("DS hit priced after the shuffle", VASA,
           "            if hit is None:\n                out.append(-1 - way)\n",
           "            if hit is None:\n                out.append(-1 - way)\n"
           "            else:\n                out[-1] = way * ways\n",
           (PASS + "[set_aligned-vasa_ds4]",)),
    Mutant("core rows swapped", NUCA,
           "(row * num_sets + sets)", "((rows - 1 - row) * num_sets + sets)",
           (PASS + "[way_aligned-baseline]",)),
    Mutant("PM addresses not translated", PAGEMAP,
           "frames[at] * page_bytes + offsets", "pages * page_bytes + offsets",
           (PASS + "[way_aligned-vawa_ug]", TRANSLATE)),
    Mutant("pass key ignoring the mapping", CLI,
           "if mapping is not None or any(", "if any(",
           (PASS_COUNT + "[way-uca-3-0]",)),
    Mutant("shuffling row shares the LRU pass", CLI,
           "if mapping is not None or any(bank.shuffle is not None\n"
           "                                      for bank in machinery.banks):",
           "if mapping is not None:",
           (PASS_COUNT + "[set-uca-2-1]",)),
    Mutant("pass key ignores the l1 setting", CLI,
           "pass_key = (cfg.l1_enabled, cfg.geometry,", "pass_key = (cfg.geometry,",
           ("tests/test_cli.py::"
            "test_compare_gives_each_l1_setting_its_own_stream",)),
    # Two on the merged pass and the one PD depth rule.
    Mutant("shuffling bank sent down the LRU branch", NUCA,
           "if policy.shuffle is not None:", "if False:",
           (PASS + "[set_aligned-vasa_ds2]",)),
    Mutant("disabled ways left out of the depth rule", NUCA,
           "        elif off:\n", "        elif False:\n",
           (PASS + "[set_aligned-baseline_pd]",)),
    # The array hit table: the mesh check, the landing code, the depth
    # `price` reads and the translation that moved to `pagemap`.
    Mutant("core off the mesh not rejected", NUCA,
           "    if outside.size:\n", "    if False:\n",
           ("tests/test_pass.py::test_pass_rejects_a_core_off_the_mesh",)),
    Mutant("way and depth strides swapped", CACHE_CORE,
           "out.append(way * ways + depth)", "out.append(depth * ways + way)",
           (PASS + "[set_aligned-baseline_pd]", PASS + "[set_aligned-vasa]")),
    Mutant("histogram drops single-hit latencies", NUCA,
           "landed = np.flatnonzero(count)",
           "landed = np.flatnonzero(count > 1)",
           (PASS + "[way_aligned-vawa_ug]",)),
    Mutant("price's depth cut off by one", NUCA,
           "within[:, bank, :, -1 - len(off)]",
           "within[:, bank, :, -2 - len(off)]",
           (PASS + "[set_aligned-baseline_pd]",)),
    Mutant("mapped stream not translated before its pass", CLI,
           "        if mapping is not None:\n            llc = pagemap",
           "        if False:\n            llc = pagemap",
           (PASS + "[way_aligned-vawa_ug]",)),
    Mutant("translation search not clamped", PAGEMAP,
           "np.searchsorted(vpages, pages), len(vpages) - 1)",
           "np.searchsorted(vpages, pages), len(vpages))",
           (TRANSLATE,)),
    # Data shuffling's two placements: the engine's (`vasa.shuffle`, with
    # the contents `shift` moves) and the pass's LRU stack per set
    # (`vasa.replay_shuffle`).  Each is the other's oracle, so the pass
    # tests now catch the engine's placement mutants too.
    Mutant("DS hit way left off the chain", VASA,
           "        chain.append(way)\n", "",
           (ORACLE, OBJECT_ENGINE, PASS + "[set_aligned-vasa_ds4]")),
    Mutant("DS moves counted on a G0 hit", VASA,
           "return chain, len(chain) if k else 0", "return chain, len(chain)",
           (ORACLE, OBJECT_ENGINE, PASS + "[set_aligned-vasa_ds4]")),
    Mutant("DS free fill always takes the group's first way", VASA,
           "way = group[len(order)]", "way = group[0]",
           (ORACLE, OBJECT_ENGINE, PASS + "[set_aligned-vasa_ds4]")),
    Mutant("DS pass does not shift its tags", VASA,
           "                way_of[held], way = way, way_of[held]\n",
           "                way = way_of[held]\n",
           (PASS + "[set_aligned-vasa_ds2]", PASS + "[set_aligned-vasa_ds4]",
            DS_KERNEL)),
    Mutant("DS chain one tail short", VASA,
           "for end in ends[g - 1::-1]]", "for end in ends[g - 1:0:-1]]",
           (DS_KERNEL, PASS + "[set_aligned-vasa_ds4]")),
    Mutant("DS fill inserted at the front of the stack", VASA,
           "stack.insert(at, tag)", "stack.insert(0, tag)",
           (DS_KERNEL, PASS + "[set_aligned-vasa_ds4]")),
    Mutant("DS full-miss moves counted one short", VASA,
           "ends[-2::-1]], len(sizes))", "ends[-2::-1]], len(sizes) - 1)",
           (DS_KERNEL, PASS + "[set_aligned-vasa_ds4]")),
    Mutant("DS fill takes its group's ways in sorted order", VASA,
           "way) for way in group]", "way) for way in sorted(group)]",
           (DS_KERNEL,)),
    Mutant("DS dirty victim not written back", VASA,
           "    if ev_dirty:\n", "    if False:\n",
           (OBJECT_ENGINE,)),
    Mutant("DS write hit keeps the old value", VASA,
           "block = (tag, value if write else state.data[set_index][way],",
           "block = (tag, state.data[set_index][way],",
           (OBJECT_ENGINE,)),
    # The page-mapping mutants of the near-linear greedy, re-expressed
    # against the array greedy: one lexsort of the frames per dominant core,
    # one bytearray of taken frames.
    Mutant("frame-index tie-break dropped", PAGEMAP,
           "np.lexsort((inventory.index, cost))",
           'np.argsort(cost, kind="stable")',
           (ASSIGN,)),
    Mutant("one frame order shared by every core", PAGEMAP,
           "_cheapest_first(inventory, noc[core])",
           "_cheapest_first(inventory, noc[min(cores)])",
           (ASSIGN,)),
    Mutant("taken never updated", PAGEMAP,
           "taken[order[i]] = 1", "pass",
           (ASSIGN,)),
    # The frame inventory's windowed max and the profile's dominant core.
    Mutant("frame window one set short", PAGEMAP,
           "while width < span:", "while width < span - 1:",
           (INVENTORY,)),
    Mutant("dominant core tie to the highest id", PAGEMAP,
           "np.lexsort((cores, -counts, page_of))",
           "np.lexsort((-cores, -counts, page_of))",
           (DOMINANT,)),
    # Non-uniform grouping's runs (the four of the plain-list NG change),
    # re-expressed against the block reduction and the array fill.
    Mutant("NG runs left unsorted", VAWA,
           "keep = np.sort(np.lexsort((starts, starts - ends))[:budget_per_class])",
           "keep = np.lexsort((starts, starts - ends))[:budget_per_class]",
           NG_RUNS),
    Mutant("NG keeps budget + 1 runs", VAWA,
           "ends))[:budget_per_class])", "ends))[:budget_per_class + 1])",
           NG_RUNS),
    Mutant("NG drops a qualifying run", VAWA,
           "return edges[::2], edges[1::2] - 1",
           "return edges[2::2], edges[3::2] - 1",
           NG_RUNS),
    Mutant("NG fill one set short", VAWA,
           "out[a:b + 1] = cycles", "out[a:b] = cycles",
           NG_RUNS),
    # Start-up: numpy loads with one OpenBLAS thread and os.environ is kept.
    Mutant("thread variable left set after import", INIT,
           'del os.environ["OPENBLAS_NUM_THREADS"]', "pass",
           (STARTUP + "test_import_loads_numpy_with_one_thread_and_keeps_environ",)),
    Mutant("caller's thread variable overwritten", INIT,
           ' and "OPENBLAS_NUM_THREADS" not in os.environ:', ":",
           (STARTUP + "test_callers_thread_count_wins",)),
    Mutant("environ set although numpy is loaded", INIT,
           'if "numpy" not in sys.modules and ', "if ",
           (STARTUP + "test_numpy_imported_first_leaves_environ_alone",)),
    # The sweep hands the front end's freed heap back once its streams exist.
    Mutant("heap never trimmed", CLI,
           "            trim(0)", "            pass",
           ("tests/test_cli.py::"
            "test_release_free_heap_returns_freed_blocks_below_a_live_one",)),
    Mutant("sweep never releases the heap", CLI,
           "    release_free_heap()\n    rows, passes = [], {}\n",
           "    rows, passes = [], {}\n",
           ("tests/test_cli.py::"
            "test_sweep_releases_the_heap_once_its_streams_are_built",)),
    # The latency-map inputs: the config owns them, the sweep shares maps
    # by them, and page mapping charges a set aligned bank its mean.
    Mutant("latency key without cnt.seed", CLI,
           "cfg.cnt_params, cfg.cnt_seed,", "cfg.cnt_params,",
           (LATENCY_KEY + "[cnt.seed-13]",)),
    Mutant("latency key without cnt_params", CLI,
           "cfg.cycle_range, cfg.cnt_params,", "cfg.cycle_range,",
           (LATENCY_KEY + "[cnt.sigma-1.5]",)),
    Mutant("every bank drawn from one cnt.seed generator", CLI,
           "nominal, np.random.default_rng(seq))\n            for seq in seeds]",
           "nominal, rng)\n            for rng in [np.random.default_rng("
           "cfg.cnt_seed)] * cfg.num_banks]",
           ("tests/test_cli.py::test_benchmark_compare_csvs_are_pinned",)),
    Mutant("PD policy with two clocks accepted", CACHE_CORE,
           "if len(enabled) > 1:", "if False:",
           ("tests/test_cache_core.py::"
            "test_bank_policy_rejects_bad_disabled_groups",)),
    Mutant("partial disabling disables nothing", CACHE_CORE,
           "disabled = worst_groups(latmap)", "disabled = set()",
           ("tests/test_cache_core.py::test_partial_disable_hand_trace",)),
    Mutant("bank average takes the slowest group", NUCA,
           "return sum(latencies) / len(latencies)", "return max(latencies)",
           ("tests/test_cli.py::"
            "test_set_aligned_page_mapping_charges_each_bank_its_mean_way_"
            "latency",)),
    # The one LRU replay: its input order, the bank runs of the pass, and
    # the L1's reading of its landings.
    Mutant("unstable set order", CACHE_CORE,
           '(initial=0))),\n                      kind="stable")',
           '(initial=0))),\n                      kind="quicksort")',
           (PASS + "[set_aligned-baseline_pd]",
            REFERENCE + "test_l1_columns_match_the_per_record_filter")),
    Mutant("bank run boundary off by one", NUCA,
           "np.arange(banks + 1) * bank_sets)",
           "np.arange(banks + 1) * bank_sets + 1)",
           ("tests/test_pass.py::"
            "test_pass_replays_each_bank_with_its_own_policy",)),
    Mutant("fill way decoded as a hit way", WORKLOAD,
           "np.where(fill, -1 - landing, landing // ways)", "landing // ways",
           (REFERENCE + "test_l1_columns_match_the_per_record_filter",)),
    Mutant("life boundary off by one", WORKLOAD,
           "by_slot[lives[1:]]", "by_slot[lives[1:] - 1]",
           (REFERENCE + "test_l1_columns_match_the_per_record_filter",)),
    Mutant("L1 counts listed in core order", WORKLOAD,
           "order = np.argsort(first)", "order = np.arange(len(first))",
           (REFERENCE + "test_l1_columns_match_the_per_record_filter",)),
    # The closed-form 2-way replay of the L1s: a hit is a repeat of the
    # set's reference before last, and the ways alternate within a set.
    Mutant("2-way hit tests the previous reference", CACHE_CORE,
           "(tags[2:] == tags[:-2])", "(tags[2:] == tags[1:-1])",
           (REFERENCE + "test_two_way_closed_form_matches_the_lru_replay",
            REFERENCE + "test_l1_columns_match_the_per_record_filter")),
    Mutant("2-way hit across a set boundary", CACHE_CORE,
           " & (rank[2:] >= 2)", "",
           (REFERENCE + "test_two_way_closed_form_matches_the_lru_replay",
            REFERENCE + "test_l1_columns_match_the_per_record_filter")),
    Mutant("2-way way parity flipped", CACHE_CORE,
           "way = (rank % 2)", "way = (1 - rank % 2)",
           (REFERENCE + "test_two_way_closed_form_matches_the_lru_replay",)),
    Mutant("2-way way parity taken over the stream", CACHE_CORE,
           "way = (rank % 2)", "way = (np.arange(len(sets)) % 2)",
           (REFERENCE + "test_two_way_closed_form_matches_the_lru_replay",
            REFERENCE + "test_l1_columns_match_the_per_record_filter")),
    Mutant("hit tables equal whatever their counts", NUCA,
           "for field in fields(self))", "for field in fields(self)[1:])",
           ("tests/test_pass.py::test_hit_tables_compare_field_by_field",)),
    # The LRU hits of a way aligned pass without a replay: the line links,
    # the two filters, the gap scan and the blocks of whole sets.  These
    # edits change no answer, so they are notes, not mutants:
    # - a weaker filter (`ref - prev > ways` to `>= ways`, or the cold count
    #   `>= ways` to `> ways`) leaves more references to the exact scan;
    # - `prev.take(at) < last` to `<= last`: no position j of a gap has
    #   prev[j] == last, since that would reference the gap's own line;
    # - the stretch-end test `start < pending` to `start <= pending`, or the
    #   scan's bound `at < pending` to `at <= pending`: the extra stage, or
    #   position, reads only the reference itself or later ones the bound
    #   drops, and the reference's own prev is `last`, not below it.
    Mutant("LRU sure hit one reference too far", CACHE_CORE,
           "hit & (ref - prev > ways)", "hit & (ref - prev > ways + 1)",
           (CORE + "test_lru_hits_match_the_replay",
            PASS + "[way_aligned-baseline]")),
    Mutant("LRU line link ignores the set", CACHE_CORE,
           "(t[1:] == t[:-1]) & (s[1:] == s[:-1])", "(t[1:] == t[:-1])",
           (CORE + "test_lru_hits_match_the_replay",)),
    Mutant("LRU cold-count miss one short", CACHE_CORE,
           "cold[pending - 1] - cold[last] >= ways",
           "cold[pending - 1] - cold[last] >= ways - 1",
           (CORE + "test_lru_hits_match_the_replay",
            PASS + "[way_aligned-baseline]")),
    Mutant("LRU scan reads past its reference", CACHE_CORE,
           '((prev.take(at, mode="clip") < last[part, None])\n'
           '                     & (at < pending[part, None]))',
           '(prev.take(at, mode="clip") < last[part, None])',
           (CORE + "test_lru_hits_match_the_replay",
            "tests/test_pass.py::"
            "test_way_aligned_pass_matches_the_engine_on_sets_of_256_ways")),
    Mutant("LRU scan stops a stretch early", CACHE_CORE,
           "keep = ~miss & (start < pending)",
           "keep = ~miss & (start + stretch < pending)",
           (CORE + "test_lru_hits_match_the_replay",
            "tests/test_pass.py::"
            "test_way_aligned_pass_matches_the_engine_on_sets_of_256_ways")),
    Mutant("LRU scan skips a row of each part", CACHE_CORE,
           "part = slice(low, low + rows)", "part = slice(low, low + rows - 1)",
           (CORE + "test_lru_hits_match_the_replay",)),
    Mutant("LRU block cut inside a set", CACHE_CORE,
           "ends = np.append(np.flatnonzero(np.diff(sets)) + 1, len(sets))",
           "ends = np.arange(1, len(sets) + 1)",
           (CORE + "test_lru_hits_match_the_replay",
            CORE + "test_lru_hits_cut_a_long_stream_into_blocks_of_whole_sets")),
    Mutant("unstable line order", CACHE_CORE,
           'np.argsort(tags, kind="stable")', 'np.argsort(tags, kind="quicksort")',
           (CORE + "test_lru_hits_match_the_replay",)),
    Mutant("way aligned LRU bank replayed", NUCA,
           "        elif per_set:\n", "        elif False:\n",
           ("tests/test_pass.py::test_only_set_aligned_lru_passes_replay",)),
    # A run's totals follow from its counts in `metrics.RunStats`, which
    # the pass and the per-access engine share: the hand-built counts pin
    # them, with a memory latency other than the default.
    Mutant("misses derived from the writes", METRICS,
           "return self.accesses - self.hits", "return self.accesses - self.writes",
           (TOTALS,)),
    Mutant("hits counted per distinct latency", METRICS,
           "return sum(self.hit_latency_histogram.values())",
           "return len(self.hit_latency_histogram)",
           (TOTALS,)),
    Mutant("miss term dropped from the cycle total", METRICS,
           "+ self.misses * self.memory_latency_cycles)", ")",
           (TOTALS,)),
    Mutant("AMAT charges a literal 30 per miss", METRICS,
           "stats.llc_miss_rate * stats.memory_latency_cycles)",
           "stats.llc_miss_rate * 30)",
           (TOTALS,)),
    Mutant("record_access does not count writes", METRICS,
           "        stats.writes += 1\n", "        pass\n",
           (PASS + "[set_aligned-baseline]",
            "tests/test_pass.py::test_dirty_evictions_and_fills_are_not_charged")),
]


def pytest_configure(config):
    """Loaded into each pytest run as a plugin: a mutant is caught by its
    first failing example, so hypothesis need not shrink it."""
    from hypothesis import Phase, settings
    settings.register_profile("mutants", phases=[
        Phase.explicit, Phase.reuse, Phase.generate])
    settings.load_profile("mutants")


def run_tests(src, tests):
    """pytest's exit code for the tests run against the package in src."""
    # PYTHONPATH makes this file importable as the pytest plugin "mutants".
    path = [str(Path(__file__).parent)] + os.environ.get("PYTHONPATH", "").split(
        os.pathsep)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "mutants",
               "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default all)")
    parser.add_argument("--list", action="store_true", help="list the mutants")
    args = parser.parse_args(argv)
    if args.list:
        for mutant in MUTANTS:
            print(mutant.name)
        return 0
    unknown = set(args.names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        parser.error(f"no mutant named {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({test for mutant in chosen for test in mutant.tests})
        if run_tests(src, tests) != 0:
            print("the named tests fail on the unmutated package")
            return 1
        caught = 0
        for mutant in chosen:
            path = src / mutant.path
            original = path.read_text()
            if original.count(mutant.old) != 1:
                status = "stale"
            else:
                path.write_text(original.replace(mutant.old, mutant.new))
                code = run_tests(src, mutant.tests)
                path.write_text(original)
                status = {0: "SURVIVED", 1: "caught"}.get(
                    code, f"error (pytest exit {code})")
            caught += status == "caught"
            print(f"{status:10} {mutant.name}", flush=True)
    print(f"{caught} of {len(chosen)} mutants caught")
    return 0 if caught == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
