"""Numpy-vectorized batch engine for the simulation hot paths.

``CacheHierarchy.access_batch`` and ``MemoryController.access_run`` spend
most of their time in per-element Python dispatch: dict probes, bound
method calls, and result-object construction for every simulated access.
At channel-sweep scale (ROADMAP item 2) that interpreter cost is the
throughput ceiling.  This module replaces the *interior* of those loops
with array passes while preserving the repo's hard invariant: the vector
backend is **bit-identical** to the reference scalar path — same
latencies, same statistics, same replacement/row-buffer state, snapshot
for snapshot.

Design: classify, bulk-commit, fall back.

- **Cache side** (:func:`access_batch_vector`): set indices and tags for
  a whole chunk are computed with int64 array arithmetic and resolved
  against the L1's numpy tag mirror
  (:meth:`repro.cache.cache.Cache.tag_matrix`) in one pass.  Runs of
  proven L1 hits commit in bulk — replacement metadata through the
  policies' bulk-update rules
  (:meth:`~repro.cache.replacement.ReplacementPolicy.on_hit_run`),
  counters as single ``+= k`` increments, latencies in closed form.
  Anything the classifier cannot prove an L1 hit (L2/LLC hits, DRAM
  misses, demoted elements) drops to an inline copy of the reference
  scalar body, which walks the controller, prefetchers, and fills one
  element at a time exactly as ``access_batch`` does.
- **Staleness is handled by demotion, never by trusting the mirror**: a
  chunk is classified once, and every event that can remove a line from
  L1 (an L1 fill eviction, an inclusive-LLC back-invalidation — reported
  through the hierarchy's removal sink) demotes all not-yet-processed
  elements on that line to the scalar path.  Demotion is always safe:
  the scalar path re-checks everything; the only unsafe direction would
  be trusting a stale "hit", which never happens.
- **Cache miss path** (:func:`_commit_miss_run`): when the prefetchers
  are off, a run of proven *full misses* (absent from L1, L2, and LLC,
  first occurrence of its line in the chunk) descends the hierarchy as
  one planned span.  On an all-clean hierarchy under LRU/SRRIP the
  whole span commits in bulk (:func:`_commit_miss_bulk`): a *pure* LLC
  fill plan (:func:`_plan_llc_fills`) resolves every victim way first —
  closed forms cover the common regimes (fills landing on invalid ways,
  full sets taking one fill each, whole-set turnovers, LRU eviction
  cycles) as array passes, the rest replays per group — then a
  vectorized membership check proves no planned eviction needs an
  inclusive back-invalidation (a stale positive merely falls back; the
  plan mutated nothing), and only then do the grouped apply passes land
  LLC, L2, and L1 fills (:func:`_apply_llc_plan`,
  :func:`_commit_upper_fills`), the DRAM chain commits as one span
  (:func:`_commit_dram_span`), and statistics and latencies are added
  as arrays.  Runs the bulk preconditions reject — dirty lines
  anywhere, writes, random replacement — use the per-element fallback
  loop with lean inlined fill bodies; events neither path can
  represent (a dirty write-back leaving the LLC, a refresh window or
  open-row-timeout boundary) *cut* the span: the clean prefix commits
  exactly and the next element re-enters classification.
- **DRAM side** (:func:`controller_run_vector`): a back-to-back run
  decodes every address with
  :meth:`~repro.dram.address.AddressMapping.decode_banks_rows`,
  classifies row hit/empty/conflict per bank with a grouped previous-row
  compare, and derives service starts and finishes as one cumulative
  sum.  Closed-row policy and the constant-time defense keep the
  reference ``controller.access`` path (so every PR 3 sanitizer
  invariant holds); refresh windows, partition boundaries, and open-row
  timeouts *split* runs — the clean prefix commits in bulk and the
  boundary element runs through the reference path, which applies the
  refresh window, raises the partition error, or re-times the
  timed-out row exactly.

Backend selection is per call: ``backend=None`` (auto) engages the
vector path when the batch is at least :data:`MIN_VECTOR_BATCH` elements
and no observer is installed; ``backend="scalar"`` forces the reference
loop; ``backend="vector"`` is a hard request — it raises a clear error
when numpy is missing *or* when an observer is attached (observers must
see per-element events in order; auto silently falls back instead).
``REPRO_NO_VECTOR=1`` is the global kill switch, and ``REPRO_SANITIZE``
also forces scalar so sanitized runs always exercise the reference
event stream — both silently, for explicit requests too, so a
sanitized or kill-switched CI run exercises the same call sites.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from repro.cache.replacement import LRUPolicy, SRRIPPolicy
from repro.obs import sanitize_requested

try:  # pragma: no cover - import outcome depends on the environment
    import numpy as np

    _NUMPY_ERROR: Optional[str] = None
    _version = tuple(int(part) for part in np.__version__.split(".")[:2])
    if _version < (1, 24):
        _NUMPY_ERROR = (
            f"repro.sim.vector needs numpy>=1.24 for stable int64 batch "
            f"semantics; found numpy {np.__version__}. Upgrade with "
            f"`pip install 'numpy>=1.24'`, or set REPRO_NO_VECTOR=1 to "
            f"run the scalar backend only."
        )
        np = None  # type: ignore[assignment]
except ImportError:
    np = None  # type: ignore[assignment]
    _NUMPY_ERROR = (
        "repro.sim.vector needs numpy (declared in pyproject.toml) but it "
        "is not importable. Install it with `pip install 'numpy>=1.24'`, "
        "or stay on the scalar backend (backend='scalar', or set "
        "REPRO_NO_VECTOR=1 to silence vector-backend requests)."
    )

#: Auto mode engages the vector engine at this batch length; below it the
#: classification pass costs more than it saves.
MIN_VECTOR_BATCH = 64

#: Batches are classified and processed in chunks of this many elements,
#: bounding demotion scans and keeping the classification close to the
#: state it was computed against.
CHUNK = 8192

#: Below this initial L1-hit fraction a chunk has no bulk hit runs to
#: win.  When the miss engine is *ineligible* (prefetchers live, or a
#: defense/observer on the controller) such a chunk runs the reference
#: scalar loop outright; when it is eligible, only such miss-leaning
#: chunks pay the full-miss classification (L2/LLC gathers plus the
#: first-occurrence scan) — hit-dominated chunks skip it and handle
#: their stray misses through the per-element fallback as before.
MIN_HIT_FRACTION = 0.5

#: With the miss engine eligible, a chunk below MIN_HIT_FRACTION *and*
#: below this full-miss fraction is dominated by mid-level (L2/LLC) hits
#: — neither engine can bulk-commit those, so bail to the scalar loop.
MIN_MISS_FRACTION = 0.25

#: Minimum full-miss run length worth planning as one span; shorter runs
#: go through the inline scalar element path (span setup — fresh tag
#: mirrors, chain classification, victim planning — costs more than it
#: saves below this).
_MIN_MISS_RUN = 64

#: Prefix length for the miss-dominated pre-check: when the miss engine
#: is ineligible and a chunk is at least 8x this long, a prefix this
#: size is classified first and a sub-threshold hit fraction there bails
#: to the scalar loop without paying the full-chunk compare (all-miss
#: streaming sweeps then run within ~1% of the pure scalar path).
_SAMPLE = 256


def numpy_available() -> bool:
    """True when a usable numpy (>= 1.24) imported."""
    return np is not None


def numpy_error() -> Optional[str]:
    """Why numpy is unusable, or ``None`` when it is available."""
    return _NUMPY_ERROR


def require_numpy() -> None:
    """Raise a clear error when the vector backend was explicitly
    requested but numpy is missing or too old."""
    if np is None:
        raise RuntimeError(_NUMPY_ERROR or "numpy unavailable")


def vector_killed() -> bool:
    """True when ``REPRO_NO_VECTOR`` globally disables the vector paths."""
    return os.environ.get("REPRO_NO_VECTOR", "").strip().lower() \
        not in ("", "0", "false", "no", "off")


def choose_backend(backend: Optional[str], count: int,
                   observer: object) -> str:
    """Pick ``"vector"`` or ``"scalar"`` for one batch call.

    ``backend=None`` (or ``"auto"``) is auto; ``"vector"`` is a hard
    request: it raises a clear error when numpy is missing or an
    observer is attached (observers must see per-element events in
    order — a silent fallback here hid real configuration mistakes).
    The kill switch and ``REPRO_SANITIZE`` still downgrade an explicit
    request silently: both are environment-level "run everything on the
    reference path" directives, and sanitized runs *cause* an observer
    to be attached to every system — raising for it would make
    ``REPRO_SANITIZE=1`` CI unable to execute ``backend="vector"`` call
    sites at all.
    """
    if backend == "auto":
        backend = None
    if backend == "scalar":
        return "scalar"
    if backend == "vector":
        require_numpy()
        if vector_killed() or sanitize_requested():
            return "scalar"
        if observer is not None:
            raise RuntimeError(
                "backend='vector' cannot run with an observer attached: "
                "observers must see per-element events in order, which "
                "the bulk-commit engine does not produce. Detach the "
                "observer (set_observer(None)), pass backend='scalar', "
                "or leave backend unset — auto falls back silently.")
        return "vector"
    if backend is not None:
        raise ValueError(
            f"unknown backend {backend!r}; choose 'scalar', 'vector', "
            f"or 'auto' (None)")
    if (np is None or count < MIN_VECTOR_BATCH or observer is not None
            or vector_killed() or sanitize_requested()):
        return "scalar"
    return "vector"


# ---------------------------------------------------------------------------
# Cache-hierarchy batch engine
# ---------------------------------------------------------------------------


def access_batch_vector(h, core: int, addrs, issued: int, *,
                        is_write: bool = False, pc: Optional[int] = None,
                        requestor: str = "cpu",
                        collect_latencies: bool = False,
                        ) -> Tuple[int, Optional[List[int]]]:
    """Vectorized equivalent of ``CacheHierarchy.access_batch``.

    Returns ``(finish, latencies)``; ``latencies`` is ``None`` unless
    ``collect_latencies`` (the ``probe_batch`` shape).  The dispatcher
    guarantees no observer is attached; the inline scalar body still
    carries the observer hooks as guarded no-ops for defense in depth.
    """
    if not isinstance(addrs, (list, tuple)):
        addrs = list(addrs)
    latencies: Optional[List[int]] = [] if collect_latencies else None
    now = issued
    sink: List[int] = []
    h._l1_removal_sink = sink
    try:
        for start in range(0, len(addrs), CHUNK):
            chunk = addrs[start:start + CHUNK]
            now = _run_chunk(h, core, chunk, now, is_write, pc, requestor,
                             latencies, sink)
            sink.clear()
    finally:
        h._l1_removal_sink = None
    return now, latencies


def _run_chunk(h, core: int, addrs, now: int, is_write: bool,
               pc: Optional[int], requestor: str,
               latencies: Optional[List[int]], sink: List[int]) -> int:
    """Classify one chunk against the current L1 state and process it."""
    l1 = h.l1[core]
    n = len(addrs)
    line_bytes = l1._line_bytes
    addrs_np = np.asarray(addrs, dtype=np.int64)
    lines = _div(addrs_np, line_bytes)
    sets = _mod(lines, l1._num_sets)
    tags = l1.tag_matrix()
    lean = bool(h._pf_observe) or bool(h._inflight_fills)
    controller = h.controller
    # The miss engine needs the easy regime end to end: no prefetchers
    # (they evolve per demand element), no in-flight fills (per-element
    # stall pops), and a controller without per-request arbitration the
    # chain cannot represent (CRP/CTD/partitions/observer; refresh and
    # the open-row timeout are handled by splitting runs).
    miss_ok = (not lean and not controller._close_after
               and not controller._constant_time
               and not controller._partition and controller._obs is None)
    if not miss_ok and n >= 8 * _SAMPLE:
        # Cheap pre-check: classify a small prefix first so miss-dominated
        # chunks (streaming sweeps) skip the full-chunk compare and go
        # straight to the reference loop.  The prefix is only a heuristic
        # — the authoritative per-element classification below decides
        # what actually gets bulk-committed.
        head = tags[sets[:_SAMPLE]] == lines[:_SAMPLE, None]
        if float(head.any(axis=1).mean()) < MIN_HIT_FRACTION:
            return _scalar_span(h, core, addrs, now, is_write, pc,
                                requestor, latencies, sink)
    match = tags[sets] == lines[:, None]
    hit = match.any(axis=1)
    miss_l = None
    if float(hit.mean()) < MIN_HIT_FRACTION:
        if not miss_ok:
            # Miss-dominated chunk, miss engine ineligible — reference
            # loop.
            return _scalar_span(h, core, addrs, now, is_write, pc,
                                requestor, latencies, sink)
        # Full-miss classification: absent from L1 (above), L2, and LLC,
        # and the first occurrence of its line in the chunk (a repeat
        # may have been filled by an earlier element).  Mid-chunk events
        # cannot invalidate a True entry: lines only enter the hierarchy
        # as chunk lines (first-occurrence-guarded) or as dirty-victim
        # refills, which were resident somewhere at classification time
        # and therefore never classified full-miss.  Hit-dominated
        # chunks skip all of this: their stray misses run the scalar
        # fallback as before, and the L2/LLC gathers they would never
        # use measurably tax the bulk hit path.
        l2 = h.l2[core]
        llc = h.llc
        l2_hit = (l2.tag_matrix()[_mod(lines, l2._num_sets)]
                  == lines[:, None]).any(axis=1)
        llc_hit = (llc.tag_matrix()[_mod(lines, llc._num_sets)]
                   == lines[:, None]).any(axis=1)
        first_seen = np.zeros(n, dtype=bool)
        first_seen[np.unique(lines, return_index=True)[1]] = True
        full_miss = ~hit & ~l2_hit & ~llc_hit & first_seen
        if float(full_miss.mean()) < MIN_MISS_FRACTION:
            # Dominated by mid-level hits — neither engine helps.
            return _scalar_span(h, core, addrs, now, is_write, pc,
                                requestor, latencies, sink)
        miss_l = full_miss.tolist()
        # Run boundaries as a sorted index array: an all-miss chunk (the
        # streaming/conflict regime) resolves each span end with one
        # binary search instead of a per-element scan.
        miss_breaks = np.flatnonzero(~full_miss)
    hit_l = hit.tolist()
    if hit.any():
        ways = match.argmax(axis=1)
        sets_l = sets.tolist()
        ways_l = ways.tolist()
    else:
        # No hit commits will run, so their gathers are dead weight.
        ways = sets_l = ways_l = None
    chunk_lines: Optional[set] = None

    def drain_sink(frm: int) -> None:
        # A line leaving L1 demotes every unprocessed element on it.
        # Over-demotion is always safe (the scalar path re-checks), so
        # LLC back-invalidations demote without asking whether this L1
        # actually held the line.
        nonlocal chunk_lines
        if frm >= n:
            # Nothing left to demote — common after a miss span runs to
            # the end of the chunk, where eviction-heavy spans would
            # otherwise pay one array scan per removed line for nothing.
            sink.clear()
            return
        if chunk_lines is None:
            chunk_lines = set(lines.tolist())
        for removed_addr in sink:
            removed_line = removed_addr // line_bytes
            if removed_line not in chunk_lines:
                continue
            for pos in np.flatnonzero(lines[frm:] == removed_line).tolist():
                hit_l[frm + pos] = False
        sink.clear()

    i = 0
    while i < n:
        if hit_l[i]:
            j = i + 1
            while j < n and hit_l[j]:
                j += 1
            if lean:
                now, i = _commit_hits_lean(h, core, addrs, sets_l, ways_l,
                                           i, j, now, is_write, pc,
                                           requestor, latencies, sink,
                                           drain_sink, hit_l, l1)
            else:
                now = _commit_hits_bulk(h, sets, ways, i, j, now, is_write,
                                        requestor, latencies, l1)
                i = j
        else:
            if miss_l is not None and miss_l[i]:
                b = int(np.searchsorted(miss_breaks, i))
                j = int(miss_breaks[b]) if b < miss_breaks.size else n
                if j - i >= _MIN_MISS_RUN:
                    committed, now = _commit_miss_run(
                        h, core, addrs_np, lines, i, j, now, is_write,
                        requestor, latencies, sink)
                    if committed:
                        i += committed
                        if sink:
                            drain_sink(i)
                        continue
                    # Span could not start (lock/busy window) — one
                    # reference element clears it, then retry the run.
            now = _scalar_element(h, core, addrs[i], now, is_write, pc,
                                  requestor, latencies)
            i += 1
            if sink:
                drain_sink(i)
    return now


def _commit_hits_bulk(h, sets, ways, i: int, j: int, now: int,
                      is_write: bool, requestor: str,
                      latencies: Optional[List[int]], l1) -> int:
    """Commit ``[i, j)`` — all proven L1 hits, prefetchers off, no
    in-flight fills, so every element is a constant-latency hit — with
    array updates equivalent to ``k`` reference iterations."""
    k = j - i
    lat = h._l1_latency
    run_sets = sets[i:j]
    run_ways = ways[i:j]
    l1._policy.on_hit_run(run_sets, run_ways)
    if is_write:
        dirty = l1._dirty
        width = l1._ways
        for flat in np.unique(run_sets * width + run_ways).tolist():
            row = dirty[flat // width]
            if not row[flat % width]:
                row[flat % width] = True
                l1._dirty_lines += 1
    l1.stats.hits += k
    stats = h.stats
    stats.demand_accesses += k
    rs = stats.requestor(requestor)
    if rs.accesses == 0 and rs.clflushes == 0:
        rs.first_seen_cycle = now
    last_issue = now + (k - 1) * lat
    if last_issue > rs.last_seen_cycle:
        rs.last_seen_cycle = last_issue
    rs.accesses += k
    if latencies is not None:
        latencies.extend([lat] * k)
    return now + k * lat


def _commit_hits_lean(h, core: int, addrs, sets_l, ways_l, i: int, j: int,
                      now: int, is_write: bool, pc: Optional[int],
                      requestor: str, latencies: Optional[List[int]],
                      sink: List[int], drain_sink, hit_l, l1,
                      ) -> Tuple[int, int]:
    """Commit proven hits ``[i, j)`` with the prefetchers live.

    Prefetcher state must evolve per element (it feeds on the demand
    stream), so this is a lean per-element loop: replacement, stats, and
    stall bookkeeping inlined, the two prefetcher ``observe`` calls kept
    (inside ``_run_prefetchers``), and the heavyweight issue path only
    when candidates appear.  A prefetch that back-invalidates a line
    demotes the tail; the loop stops early if its own next element was
    demoted.  Returns ``(now, next_index)``.
    """
    stats = h.stats
    rs = stats.requestor(requestor)
    rrpv = l1._rrpv
    policy_on_hit = l1._policy_on_hit
    dirty = l1._dirty
    l1_stats = l1.stats
    lat = h._l1_latency
    inflight = h._inflight_fills
    late_stall = h._late_prefetch_stall
    run_prefetchers = h._run_prefetchers
    virgin = rs.accesses == 0 and rs.clflushes == 0
    idx = i
    while idx < j:
        addr = addrs[idx]
        stall = late_stall(addr, now) if inflight else 0
        s = sets_l[idx]
        w = ways_l[idx]
        if rrpv is not None:
            rrpv[s][w] = 0
        else:
            policy_on_hit(s, w)
        if is_write:
            dirty_row = dirty[s]
            if not dirty_row[w]:
                dirty_row[w] = True
                l1._dirty_lines += 1
        l1_stats.hits += 1
        stats.demand_accesses += 1
        if virgin:
            rs.first_seen_cycle = now
            virgin = False
        if now > rs.last_seen_cycle:
            rs.last_seen_cycle = now
        rs.accesses += 1
        latency = stall + lat
        if latencies is not None:
            latencies.append(latency)
        finish = now + latency
        run_prefetchers(core, addr, pc, finish, requestor)
        now = finish
        idx += 1
        if sink:
            drain_sink(idx)
            if idx < j and not hit_l[idx]:
                break
    return now, idx


def _scalar_span(h, core: int, addrs, now: int, is_write: bool,
                 pc: Optional[int], requestor: str,
                 latencies: Optional[List[int]], sink: List[int]) -> int:
    """Run a whole span through the reference scalar loop.

    The removal sink is detached for the duration: the caller classifies
    its next chunk fresh, so removals inside the span are irrelevant and
    recording them would only queue useless demotion scans.
    """
    h._l1_removal_sink = None
    try:
        if latencies is None:
            return h._access_batch_scalar(core, addrs, now,
                                          is_write=is_write, pc=pc,
                                          requestor=requestor)
        finish, span_lat = h._probe_batch_scalar(core, addrs, now,
                                                 is_write=is_write, pc=pc,
                                                 requestor=requestor)
        latencies.extend(span_lat)
        return finish
    finally:
        h._l1_removal_sink = sink


def _scalar_element(h, core: int, addr: int, now: int, is_write: bool,
                    pc: Optional[int], requestor: str,
                    latencies: Optional[List[int]]) -> int:
    """One element through the reference path — a line-for-line mirror of
    the ``access_batch`` loop body.  The hierarchy's removal sink is
    live, so fills report the L1 lines they displace."""
    h.stats.demand_accesses += 1
    latency = ((h._late_prefetch_stall(addr, now) if h._inflight_fills
                else 0) + h._l1_latency)
    miss = False
    if h.l1[core].access(addr, is_write=is_write):
        pass
    else:
        latency += h._l2_latency
        if h.l2[core].access(addr):
            h._fill_l1(core, addr, is_write)
        else:
            latency += h._llc_latency
            if h.llc.access(addr):
                h._fill_upper(core, addr, is_write)
            else:
                mem = h.controller.access(addr, now + latency,
                                          requestor=requestor,
                                          is_write=is_write)
                finish = mem.finish
                latency = finish - now
                h._fill_all(core, addr, is_write, time=finish,
                            requestor=requestor)
                miss = True
                if h._obs is not None:  # pragma: no cover - gate keeps obs off
                    h._obs.on_cache_miss(core, addr, now, finish, requestor)
    h.stats.observe(requestor, now, miss=miss)
    if latencies is not None:
        latencies.append(latency)
    finish = now + latency
    h._run_prefetchers(core, addr, pc, finish, requestor)
    return finish



def _mod(a, n: int):
    """``a % n`` with the mask fast path for power-of-two ``n``.

    Set counts and line sizes are powers of two in every shipped
    config, and a bitwise AND over a chunk-sized array is several
    times cheaper than the general remainder.
    """
    return a & (n - 1) if n & (n - 1) == 0 else a % n


def _div(a, n: int):
    """``a // n`` for non-negative ``a``, shifting when ``n`` is a
    power of two."""
    return a >> (n.bit_length() - 1) if n & (n - 1) == 0 else a // n


def _set_groups(sets, m: int):
    """Grouped iteration order for a span's per-set fill walkers.

    Returns ``(order_l, starts, ends)``: element positions sorted by set
    (stable, so groups stay in element order) and the ``[start, end)``
    bounds of every same-set group, found with one array compare instead
    of a per-element Python scan.
    """
    order = np.argsort(sets, kind="stable")
    ssets = sets[order]
    cuts = np.flatnonzero(ssets[1:] != ssets[:-1]) + 1
    cuts_l = cuts.tolist()
    return order.tolist(), [0] + cuts_l, cuts_l + [m]


def _scatter_mirror(cache, f_sets, f_ways, f_lines,
                    dedup: bool = True) -> None:
    """Land a span's final ``(set, way, line)`` placements on the numpy
    tag mirror directly.

    A direct scatter is only sound when the mirror is current (building
    or replaying it later would overwrite the scatter with older state),
    so a stale mirror is left for the next wholesale rebuild and queued
    patches fall back to extending the patch log in order.  Duplicate
    ``(set, way)`` placements keep the last occurrence, matching an
    in-order replay; callers that know every placement hit a distinct
    way (an eviction-free span fills only invalid ways) pass
    ``dedup=False`` to skip the sort.
    """
    mirror = cache._np_tags
    if mirror is None or cache._np_stale:
        return
    if cache._np_pending:
        cache._np_pending.extend(zip(f_sets, f_ways, f_lines))
        return
    if not f_sets:
        return
    sa = np.asarray(f_sets, dtype=np.int64)
    wa = np.asarray(f_ways, dtype=np.int64)
    la = np.asarray(f_lines, dtype=np.int64)
    if not dedup:
        mirror[sa, wa] = la
        return
    flat = sa * cache._ways + wa
    _, rev_index = np.unique(flat[::-1], return_index=True)
    sel = flat.size - 1 - rev_index
    mirror[sa[sel], wa[sel]] = la[sel]


def _plan_llc_fills(llc, span_lines, lines_l, m: int):
    """Pure LLC fill plan for ``m`` distinct, absent lines.

    Returns ``(sets_l, ways_l, old_l, rrpv_finals, evictions)``:
    ``ways_l[i]`` is the victim way of fill ``i``; ``old_l[i]`` is the
    line it displaces (``-2`` for an invalid-way fill); ``rrpv_finals``
    is a list of ``(set, final_rrpv_row)`` pairs for SRRIP sets that
    aged mid-plan (unaged sets need only the per-way insert writes the
    apply pass does anyway).  Nothing is mutated — the caller applies
    the plan only once every span-wide precondition holds.

    Exactness relies on the bulk-commit preconditions: the span's lines
    are distinct and absent everywhere, the cache is all-clean, and no
    hit touches it mid-span.  Two SRRIP regimes are planned as pure
    array passes:

    - groups that fit their set's invalid ways (a warming LLC under a
      streaming sweep) take those ways in index order — no aging, no
      eviction, so the victim gather is the whole plan;
    - full sets receiving exactly one fill (the steady state for a
      large LLC) get the closed form of ``Cache.fill``'s victim scan:
      first invalid way, else one-shot aging plus first max-RRPV way.

    The rare remainder — full or nearly-full sets taking several fills
    — replays the fill body per group: max-RRPV ways in index order
    while they last, else on copied rows.  LRU sets are closed-form
    cycles: invalid ways in index order, then valid ways in last-use
    order, then FIFO through the span's own fills (every span fill's
    stamp exceeds every pre-span stamp).
    """
    sets = _mod(span_lines, llc._num_sets)
    sets_l = sets.tolist()
    ways_l = [0] * m
    old_l = [-2] * m
    tags_all = llc._tags
    rrpv_all = llc._rrpv
    mirror = llc.tag_matrix()
    finals: List[tuple] = []
    evictions = 0
    ways = llc._ways
    if rrpv_all is not None:
        max_rrpv = llc._max_rrpv
        insert_rrpv = llc._insert_rrpv
        order = np.argsort(sets, kind="stable")
        ssets = sets[order]
        newgrp = np.empty(m, dtype=bool)
        newgrp[0] = True
        np.not_equal(ssets[1:], ssets[:-1], out=newgrp[1:])
        idx = np.arange(m)
        rank = idx - np.maximum.accumulate(np.where(newgrp, idx, 0))
        group_of = np.cumsum(newgrp) - 1
        grp_sets = ssets[newgrp]
        grp_start = idx[newgrp]
        grp_size = np.diff(np.append(grp_start, m))
        rows_t = mirror[grp_sets]
        invmask = rows_t == -1
        easy_grp = grp_size <= invmask.sum(axis=1)
        easy_el = easy_grp[group_of]
        if bool(easy_el.any()):
            # Invalid ways per set in index order; ``rank`` selects the
            # n-th for the group's n-th fill.  The defaulted ``old_l``
            # of -2 and the apply pass's insert-RRPV writes complete
            # the plan for these elements.
            inv_order = np.argsort(~invmask, axis=1, kind="stable")
            w_el = inv_order[group_of, np.minimum(rank, ways - 1)]
            if bool(easy_el.all()):
                for pos, w in zip(order.tolist(), w_el.tolist()):
                    ways_l[pos] = w
                return sets_l, ways_l, old_l, finals, 0
            for pos, w in zip(order[easy_el].tolist(),
                              w_el[easy_el].tolist()):
                ways_l[pos] = w
        hard = np.flatnonzero(~easy_grp)
        single = hard[grp_size[hard] == 1]
        if single.size:
            # Full sets, one fill each: closed-form victim scan.
            srows = rows_t[single]
            sinv = invmask[single]
            has_inv = sinv.any(axis=1)
            rrpv_rows = np.array(
                [rrpv_all[s] for s in grp_sets[single].tolist()],
                dtype=np.int64)
            step = max_rrpv - rrpv_rows.max(axis=1)
            vict = (rrpv_rows + step[:, None] == max_rrpv).argmax(axis=1)
            chosen = np.where(has_inv, sinv.argmax(axis=1), vict)
            olds = np.where(has_inv, np.int64(-2),
                            srows[np.arange(single.size), vict])
            for pos, w, old in zip(order[grp_start[single]].tolist(),
                                   chosen.tolist(), olds.tolist()):
                ways_l[pos] = w
                old_l[pos] = old
            evictions += int(single.size) - int(np.count_nonzero(has_inv))
            # Aging only fires on a *full* set (an invalid way wins the
            # victim scan before any aging round runs).
            aged = np.flatnonzero((step > 0) & ~has_inv)
            if aged.size:
                aged_rows = rrpv_rows[aged] + step[aged, None]
                for row, s, w in zip(aged_rows.tolist(),
                                     grp_sets[single[aged]].tolist(),
                                     vict[aged].tolist()):
                    row[w] = insert_rrpv
                    finals.append((s, row))
        multi = hard[grp_size[hard] > 1]
        if multi.size:
            order_l = order.tolist()
            for g, i, size in zip(multi.tolist(),
                                  grp_start[multi].tolist(),
                                  grp_size[multi].tolist()):
                j = i + size
                s = sets_l[order_l[i]]
                tgs = tags_all[s]
                row_live = rrpv_all[s]
                if -1 in tgs:
                    # More fills than invalid ways (easy groups were
                    # peeled off above): take the invalid ways in index
                    # order, then replay the rest on copied rows.
                    pass
                elif min(row_live) >= insert_rrpv < max_rrpv:
                    # Full set, RRPVs in {insert..max}: fills never
                    # mint a new max-RRPV way, so as long as current
                    # max-RRPV ways last, victims are exactly those
                    # ways in index order — no row copies.
                    maxed = [w for w in range(ways)
                             if row_live[w] == max_rrpv]
                    if size <= len(maxed):
                        for t in range(i, j):
                            pos = order_l[t]
                            w = maxed[t - i]
                            old_l[pos] = tgs[w]
                            ways_l[pos] = w
                        evictions += size
                        continue
                tgs_c = list(tgs)
                row = list(row_live)
                n_inv = tgs_c.count(-1)
                aged_set = False
                for t in range(i, j):
                    pos = order_l[t]
                    ln = lines_l[pos]
                    if n_inv:
                        w = tgs_c.index(-1)
                        n_inv -= 1
                    else:
                        if max_rrpv in row:
                            w = row.index(max_rrpv)
                        else:
                            step_s = max_rrpv - max(row)
                            row = [r + step_s for r in row]
                            aged_set = True
                            w = row.index(max_rrpv)
                        old_l[pos] = tgs_c[w]
                        evictions += 1
                    tgs_c[w] = ln
                    row[w] = insert_rrpv
                    ways_l[pos] = w
                if aged_set:
                    finals.append((s, row))
        return sets_l, ways_l, old_l, finals, evictions
    last_all = llc._policy._last_use
    order_l, starts, ends = _set_groups(sets, m)
    for i, j in zip(starts, ends):
        s = sets_l[order_l[i]]
        k = j - i
        tgs = tags_all[s]
        n_inv = tgs.count(-1)
        if n_inv == ways:
            cyc = list(range(ways))
        elif n_inv:
            cyc = [w for w in range(ways) if tgs[w] == -1]
            last = last_all[s]
            cyc += sorted((w for w in range(ways) if tgs[w] != -1),
                          key=last.__getitem__)
        else:
            cyc = sorted(range(ways), key=last_all[s].__getitem__)
        for t in range(k):
            pos = order_l[i + t]
            w = cyc[t % ways]
            ways_l[pos] = w
            if t < ways:
                old = tgs[w]
                old_l[pos] = -2 if old < 0 else old
            else:
                old_l[pos] = lines_l[order_l[i + t - ways]]
        evictions += k - n_inv if k > n_inv else 0
    return sets_l, ways_l, old_l, finals, evictions


def _apply_llc_plan(llc, plan, lines_l, m: int) -> None:
    """Apply a :func:`_plan_llc_fills` plan to the live LLC state."""
    sets_l, ways_l, old_l, finals, evictions = plan
    tags_all = llc._tags
    where_all = llc._where
    valid_all = llc._valid
    rrpv_all = llc._rrpv
    if rrpv_all is None:
        policy = llc._policy
        lu = policy._last_use
        stamp = policy._stamp
        for s, w, ln, old in zip(sets_l, ways_l, lines_l, old_l):
            stamp += 1
            wd = where_all[s]
            if old >= 0:
                del wd[old]
            else:
                valid_all[s][w] = True
            tags_all[s][w] = ln
            wd[ln] = w
            lu[s][w] = stamp
        policy._stamp = stamp
    else:
        insert_rrpv = llc._insert_rrpv
        if evictions == 0:
            # Every fill landed on an invalid way (``old_l`` is all -2
            # and no set aged): the displacement branch drops out.
            for s, w, ln in zip(sets_l, ways_l, lines_l):
                valid_all[s][w] = True
                tags_all[s][w] = ln
                where_all[s][ln] = w
                rrpv_all[s][w] = insert_rrpv
        else:
            for s, w, ln, old in zip(sets_l, ways_l, lines_l, old_l):
                wd = where_all[s]
                if old >= 0:
                    del wd[old]
                else:
                    valid_all[s][w] = True
                tags_all[s][w] = ln
                wd[ln] = w
                rrpv_all[s][w] = insert_rrpv
        for s, row in finals:
            rrpv_all[s][:] = row
    # The plan's tag_matrix() call drained the patch log, so the span's
    # placements scatter straight onto the mirror.  An eviction-free
    # span fills pairwise-distinct invalid ways — no dedup pass needed.
    _scatter_mirror(llc, sets_l, ways_l, lines_l, dedup=evictions > 0)
    stats = llc.stats
    stats.misses += m
    stats.fills += m
    stats.evictions += evictions


def _commit_upper_fills(cache, span_lines, lines_l, m: int,
                        want_evicted: bool):
    """Fused plan-and-apply of a full-miss span into an upper cache.

    The LLC needs a pure plan (its evictions gate the whole bulk commit)
    but L1/L2 do not: by the time they fill, the span is committed, so
    each set's fill sequence is planned and applied in a single grouped
    pass.  Returns the list of evicted lines when ``want_evicted`` (L1
    evictions feed the demotion sink); L2 callers pass ``False`` —
    reference ``_fill_all`` discards clean L2 victims silently.

    Closed forms, per set group of ``k`` fills:

    - LRU with ``k >= ways`` (the streaming steady state for a small
      L1): every prior resident and all but the last ``ways`` span
      fills are evicted, and the survivors land via the eviction cycle
      (invalid ways in index order, then valid ways by last use) with
      their element-order stamps — no per-fill bookkeeping.
    - SRRIP on a full set with every RRPV in ``{insert..max}``: fills
      never mint a new max-RRPV way, so victims are exactly the current
      max-RRPV ways in index order; while they last, each fill is three
      list writes and two dict ops.
    - Everything else (cold sets, post-promotion RRPVs, aging): an
      in-place replay of the inlined ``Cache.fill`` body.
    """
    sets = _mod(span_lines, cache._num_sets)
    sets_l = sets.tolist()
    order_l, starts, ends = _set_groups(sets, m)
    tags_all = cache._tags
    where_all = cache._where
    valid_all = cache._valid
    rrpv_all = cache._rrpv
    ways = cache._ways
    evicted: Optional[List[int]] = [] if want_evicted else None
    evictions = 0
    if rrpv_all is None:
        policy = cache._policy
        lu = policy._last_use
        base = policy._stamp
        for i, j in zip(starts, ends):
            s = sets_l[order_l[i]]
            k = j - i
            tgs = tags_all[s]
            wd = where_all[s]
            lurow = lu[s]
            n_inv = tgs.count(-1)
            if k >= ways:
                # Every way turns over: rebuild the set from the last
                # ``ways`` fills instead of replaying all ``k``.
                if n_inv == 0:
                    cyc = sorted(range(ways), key=lurow.__getitem__)
                    if evicted is not None:
                        evicted.extend(tgs)
                else:
                    cyc = [w for w in range(ways) if tgs[w] == -1]
                    if n_inv < ways:
                        cyc += sorted(
                            (w for w in range(ways) if tgs[w] != -1),
                            key=lurow.__getitem__)
                        if evicted is not None:
                            evicted.extend(t for t in tgs if t != -1)
                    valid_all[s][:] = [True] * ways
                evictions += k - n_inv
                if evicted is not None:
                    evicted.extend(
                        [lines_l[p] for p in order_l[i:j - ways]])
                wd.clear()
                for t in range(k - ways, k):
                    pos = order_l[i + t]
                    w = cyc[t % ways]
                    ln = lines_l[pos]
                    tgs[w] = ln
                    wd[ln] = w
                    lurow[w] = base + pos + 1
            else:
                vrow = valid_all[s]
                for t in range(i, j):
                    pos = order_l[t]
                    ln = lines_l[pos]
                    if n_inv:
                        w = tgs.index(-1)
                        n_inv -= 1
                        vrow[w] = True
                    else:
                        w = lurow.index(min(lurow))
                        old = tgs[w]
                        del wd[old]
                        if evicted is not None:
                            evicted.append(old)
                        evictions += 1
                    tgs[w] = ln
                    wd[ln] = w
                    lurow[w] = base + pos + 1
        policy._stamp = base + m
    else:
        max_rrpv = cache._max_rrpv
        insert_rrpv = cache._insert_rrpv
        closed_ok = insert_rrpv < max_rrpv
        for i, j in zip(starts, ends):
            s = sets_l[order_l[i]]
            k = j - i
            tgs = tags_all[s]
            wd = where_all[s]
            row = rrpv_all[s]
            if closed_ok and -1 not in tgs and min(row) >= insert_rrpv:
                if k < ways:
                    maxed = [w for w in range(ways) if row[w] == max_rrpv]
                    if k <= len(maxed):
                        for t in range(i, j):
                            pos = order_l[t]
                            ln = lines_l[pos]
                            w = maxed[t - i]
                            old = tgs[w]
                            del wd[old]
                            if evicted is not None:
                                evicted.append(old)
                            tgs[w] = ln
                            wd[ln] = w
                            row[w] = insert_rrpv
                        evictions += k
                        continue
                elif row.count(row[0]) == ways:
                    # Uniform full set turning completely over (the
                    # conflict-replay steady state: every line inserted
                    # at the same RRPV, none promoted): aging rounds hit
                    # the whole row at once, so victims walk the ways in
                    # pure index order and the set rebuilds from its
                    # last ``ways`` fills, like the LRU rebuild above.
                    if evicted is not None:
                        evicted.extend(tgs)
                        evicted.extend(
                            [lines_l[p] for p in order_l[i:j - ways]])
                    if k == ways:
                        # One full turnover exactly: the survivors are
                        # the whole group in element order, so the set
                        # rebuilds by slice assignment.
                        grp = [lines_l[p] for p in order_l[i:j]]
                        tgs[:] = grp
                        wd.clear()
                        wd.update(zip(grp, range(ways)))
                        row[:] = [insert_rrpv] * ways
                        evictions += ways
                        continue
                    wd.clear()
                    for t in range(k - ways, k):
                        pos = order_l[i + t]
                        w = t % ways
                        ln = lines_l[pos]
                        tgs[w] = ln
                        wd[ln] = w
                    rem = k % ways
                    # Post-rebuild RRPVs: the fills after the last aging
                    # round sit at insert, everything older aged to max.
                    if rem:
                        row[:] = ([insert_rrpv] * rem
                                  + [max_rrpv] * (ways - rem))
                    else:
                        row[:] = [insert_rrpv] * ways
                    evictions += k
                    continue
            n_inv = tgs.count(-1)
            vrow = valid_all[s]
            for t in range(i, j):
                pos = order_l[t]
                ln = lines_l[pos]
                if n_inv:
                    w = tgs.index(-1)
                    n_inv -= 1
                    vrow[w] = True
                else:
                    if max_rrpv in row:
                        w = row.index(max_rrpv)
                    else:
                        step = max_rrpv - max(row)
                        row[:] = [r + step for r in row]
                        w = row.index(max_rrpv)
                    old = tgs[w]
                    del wd[old]
                    if evicted is not None:
                        evicted.append(old)
                    evictions += 1
                tgs[w] = ln
                wd[ln] = w
                row[w] = insert_rrpv
    # Refresh the mirror's touched rows from the final tag lists — far
    # cheaper than the wholesale rebuild the next chunk's classification
    # would otherwise pay.  Only sound on a current mirror; a stale or
    # patch-backed one is left for the normal rebuild/replay path.
    mirror = cache._np_tags
    if (mirror is not None and not cache._np_stale
            and not cache._np_pending):
        touched = [sets_l[order_l[i]] for i in starts]
        mirror[np.asarray(touched, dtype=np.int64)] = np.array(
            [tags_all[s] for s in touched], dtype=np.int64)
    else:
        cache._np_stale = True
    stats = cache.stats
    stats.misses += m
    stats.fills += m
    stats.evictions += evictions
    return evicted


def _commit_miss_bulk(h, l1, l2, llc, controller, span_lines, banks, rows,
                      kinds, finishes, service_starts, m: int, now: int,
                      requestor: str, latencies: Optional[List[int]],
                      sink: List[int]) -> Optional[Tuple[int, int]]:
    """Commit a full-miss span with no per-element Python fill loop.

    Only called when the span provably cannot produce any cut or any
    real upper-cache work: a read-only run, LRU/SRRIP at every level,
    zero dirty lines in L1/L2/LLC (so no victim anywhere can write
    back), and — checked here — no planned LLC eviction resident in any
    upper cache (so every back-invalidation sweep is a no-op in the
    reference loop too; mid-span L1/L2 fills only ever *add* span lines,
    which are part of the membership haystack, and evictions only make
    the check stale-conservative).  Under those preconditions the three
    per-level fill sequences are planned purely (closed-form LRU cycles,
    local SRRIP replays), validated, and applied as flat passes; DRAM
    state, statistics, and latencies commit exactly as the per-element
    span path would.  Returns ``None`` when the membership check fails —
    the caller falls through to the general per-element span.
    """
    line_bytes = l1._line_bytes
    lines_l = span_lines.tolist()
    plan3 = _plan_llc_fills(llc, span_lines, lines_l, m)
    evicted = None
    if plan3[4]:
        old3 = np.asarray(plan3[2], dtype=np.int64)
        evicted = old3[old3 >= 0]
        hay = [c.tag_matrix().ravel() for c in (*h.l1, *h.l2)]
        hay.append(span_lines)
        if bool(np.isin(evicted, np.concatenate(hay)).any()):
            return None
    _apply_llc_plan(llc, plan3, lines_l, m)
    _commit_upper_fills(l2, span_lines, lines_l, m, False)
    evicted1 = _commit_upper_fills(l1, span_lines, lines_l, m, True)
    if evicted is not None and evicted.size:
        sink.extend((evicted * line_bytes).tolist())
    if evicted1:
        sink.extend([ln * line_bytes for ln in evicted1])
    _commit_dram_span(controller, banks, rows, kinds, finishes,
                      service_starts, requestor, False)
    if latencies is not None:
        latencies.extend(np.diff(finishes, prepend=now).tolist())
    h_stats = h.stats
    h_stats.demand_accesses += m
    rs = h_stats.requestor(requestor)
    if rs.accesses == 0 and rs.clflushes == 0:
        rs.first_seen_cycle = now
    last_issue = int(finishes[m - 2]) if m >= 2 else now
    if last_issue > rs.last_seen_cycle:
        rs.last_seen_cycle = last_issue
    rs.accesses += m
    rs.llc_misses += m
    return m, int(finishes[m - 1])


def _commit_miss_run(h, core: int, addrs_np, lines, i: int, j: int,
                     now: int, is_write: bool, requestor: str,
                     latencies: Optional[List[int]],
                     sink: List[int]) -> Tuple[int, int]:
    """Commit ``[i, j)`` — all proven full misses — as one planned span.

    Every element descends L1 -> L2 -> LLC -> DRAM exactly as the
    reference loop would, but the span-invariant work is hoisted into
    arrays: the DRAM chain is classified in bulk (the three cache-probe
    latencies are a constant per-element gap), LLC victims for LRU/SRRIP
    are planned in bulk, and a membership precheck marks evicted lines
    provably absent from every upper cache so their back-invalidation
    sweep can be skipped.  The remaining per-element loop runs inlined
    ``Cache.fill`` bodies (the ``existing`` probes are dropped — span
    lines are absent from all three levels and distinct by
    construction), logging tag patches so the numpy mirrors replay them
    in order.

    Three events *cut* the span — the prefix commits exactly and the
    caller re-enters classification:

    - a dirty write-back leaving the LLC (the DRAM span through the
      current element commits first, then the write-back lands on the
      chain's bank state, in scalar order);
    - a dirty L2 victim refilling the LLC (the real ``llc.fill`` mutates
      LLC replacement state, so later planned victims are stale);
    - an open-row-timeout or refresh boundary in the DRAM chain.

    A dirty *L1* victim refilling L2 does not cut: the refilled line was
    resident above at span start (the precheck already counts it) and
    can never equal a planned LLC eviction, so no planning goes stale.

    Returns ``(elements_committed, finish_time)``; ``(0, now)`` when the
    span cannot start (atomic-lock or bank-busy window, or an immediate
    refresh/timeout boundary) — the caller runs one reference element
    and retries.
    """
    controller = h.controller
    q = controller._queue_cycles
    depth = h._l1_latency + h._l2_latency + h._llc_latency
    span_lines = lines[i:j]
    banks, rows = controller.mapper.decode_banks_rows(addrs_np[i:j])
    device_banks = controller.device.banks
    start0 = now + depth + q
    max_busy = max(device_banks[b].busy_until
                   for b in np.unique(banks).tolist())
    if start0 < controller._locked_until or start0 < max_busy:
        return 0, now
    kinds, lats, finishes, service_starts, clean = _classify_dram_chain(
        controller, banks, rows, now, q + depth)
    upto = min(clean, _refresh_cut(controller, banks, service_starts))
    if upto == 0:
        return 0, now
    m = j - i
    if upto < m:
        m = upto
        span_lines = span_lines[:m]
        banks = banks[:m]
        rows = rows[:m]
        kinds = kinds[:m]
        finishes = finishes[:m]
        service_starts = service_starts[:m]

    l1 = h.l1[core]
    l2 = h.l2[core]
    llc = h.llc
    if (not is_write and m >= _MIN_MISS_RUN
            and llc._dirty_lines == 0 and l2._dirty_lines == 0
            and l1._dirty_lines == 0
            and type(l1._policy) in (LRUPolicy, SRRIPPolicy)
            and type(l2._policy) in (LRUPolicy, SRRIPPolicy)
            and type(llc._policy) in (LRUPolicy, SRRIPPolicy)):
        # All-clean read-only span under bulk-plannable policies: no
        # victim anywhere can write back, so the only remaining cut
        # source is an LLC eviction resident above — which the bulk
        # committer checks itself, falling back here when it trips.
        bulk = _commit_miss_bulk(h, l1, l2, llc, controller, span_lines,
                                 banks, rows, kinds, finishes,
                                 service_starts, m, now, requestor,
                                 latencies, sink)
        if bulk is not None:
            return bulk
    # Fresh mirrors (drains pending patches from preceding scalar work):
    # the LLC's feeds victim planning and the eviction precheck; the
    # upper mirrors feed the precheck only.
    llc_mirror = llc.tag_matrix()
    llc_sets = _mod(span_lines, llc._num_sets)
    uniq_sets, first_idx = np.unique(llc_sets, return_index=True)
    planned = np.full(m, -1, dtype=np.int64)
    policy = llc._policy
    if type(policy) is LRUPolicy or type(policy) is SRRIPPolicy:
        # Pure bulk planning, first occurrence of each set only — later
        # elements on the same set see state the plan didn't, and fall
        # back to the inline victim path (planned = -1).  Other policies
        # (RandomPolicy draws its RNG in victim()) stay inline entirely.
        rows_t = llc_mirror[uniq_sets]
        invmask = rows_t == -1
        invalid_ways = np.where(invmask.any(axis=1),
                                invmask.argmax(axis=1), -1)
        planned[first_idx] = policy.select_victims_bulk(uniq_sets,
                                                        invalid_ways)
    vict_ways = np.where(planned >= 0, planned, 0)
    evict_lines = llc_mirror[llc_sets, vict_ways]
    will_evict = (planned >= 0) & (evict_lines >= 0)
    member = np.zeros(m, dtype=bool)
    if bool(will_evict.any()):
        for cache in (*h.l1, *h.l2):
            c_mirror = cache.tag_matrix()
            member |= (c_mirror[_mod(evict_lines, cache._num_sets)]
                       == evict_lines[:, None]).any(axis=1)
    # Mid-span fills can only make a membership bit stale-*positive*
    # (lines entering upper caches were counted at span start or are
    # span lines, which never equal planned evictions) — a stale
    # positive just runs the full sweep, which is always exact.
    skip_l = (will_evict & ~member).tolist()

    line_bytes = l1._line_bytes
    lines_l = span_lines.tolist()
    l1_sets_l = _mod(span_lines, l1._num_sets).tolist()
    l2_sets_l = (span_lines % l2._num_sets).tolist()
    llc_sets_l = llc_sets.tolist()
    planned_l = planned.tolist()
    finishes_l = finishes.tolist()
    upper_invalidates = h._upper_invalidates
    access_finish = controller.access_finish
    llc_where = llc._where
    llc_tags = llc._tags
    llc_valid = llc._valid
    llc_dirty = llc._dirty
    llc_pending = llc._np_pending
    llc_rrpv = llc._rrpv
    llc_max = llc._max_rrpv
    llc_insert = llc._insert_rrpv
    llc_victim = llc._policy_victim
    llc_on_fill = llc._policy_on_fill
    llc_stats = llc.stats
    llc_fill = llc.fill
    l2_where = l2._where
    l2_tags = l2._tags
    l2_valid = l2._valid
    l2_dirty = l2._dirty
    l2_pending = l2._np_pending
    l2_rrpv = l2._rrpv
    l2_max = l2._max_rrpv
    l2_insert = l2._insert_rrpv
    l2_victim = l2._policy_victim
    l2_on_fill = l2._policy_on_fill
    l2_stats = l2.stats
    l2_fill = l2.fill
    l1_where = l1._where
    l1_tags = l1._tags
    l1_valid = l1._valid
    l1_dirty = l1._dirty
    l1_pending = l1._np_pending
    l1_rrpv = l1._rrpv
    l1_max = l1._max_rrpv
    l1_insert = l1._insert_rrpv
    l1_victim = l1._policy_victim
    l1_on_fill = l1._policy_on_fill
    l1_stats = l1.stats
    memory_writebacks = 0
    dram_done = False
    cut = False
    idx = 0
    while idx < m:
        line = lines_l[idx]
        # --- LLC fill (inlined Cache.fill; line provably absent) ---
        s3 = llc_sets_l[idx]
        valid3 = llc_valid[s3]
        way = planned_l[idx]
        if way < 0:
            if llc_rrpv is not None:
                if False in valid3:
                    way = valid3.index(False)
                else:
                    rrpvs = llc_rrpv[s3]
                    if llc_max not in rrpvs:
                        step = llc_max - max(rrpvs)
                        rrpvs[:] = [r + step for r in rrpvs]
                    way = rrpvs.index(llc_max)
            else:
                way = llc_victim(s3, valid3)
        elif llc_rrpv is not None and valid3[way]:
            # Planned victim of a full SRRIP set: apply the one-shot
            # aging Cache.fill runs before picking this way (the bulk
            # plan computed it without writing).
            rrpvs = llc_rrpv[s3]
            if llc_max not in rrpvs:
                step = llc_max - max(rrpvs)
                rrpvs[:] = [r + step for r in rrpvs]
        tags3 = llc_tags[s3]
        if valid3[way]:
            old_line = tags3[way]
            del llc_where[s3][old_line]
            old_dirty = llc_dirty[s3][way]
            llc_stats.evictions += 1
            if old_dirty:
                llc_stats.writebacks += 1
                llc._dirty_lines -= 1
            ev_addr = old_line * line_bytes
            sink.append(ev_addr)
            wb_dirty = old_dirty
            if not skip_l[idx]:
                for invalidate in upper_invalidates:
                    if invalidate(ev_addr):
                        wb_dirty = True
            if wb_dirty:
                # Dirty write-back leaving the LLC: scalar order is the
                # element's demand access, then the fill-time write-back
                # — so the DRAM span through this element commits first,
                # the write-back lands on the chain's bank state, and
                # the span cuts (later chain times no longer hold).
                k = idx + 1
                _commit_dram_span(controller, banks[:k], rows[:k],
                                  kinds[:k], finishes[:k],
                                  service_starts[:k], requestor, is_write)
                dram_done = True
                access_finish(ev_addr, finishes_l[idx],
                              requestor=requestor, is_write=True)
                memory_writebacks += 1
                cut = True
        tags3[way] = line
        llc_where[s3][line] = way
        valid3[way] = True
        llc_dirty[s3][way] = False
        llc_pending.append((s3, way, line))
        if llc_rrpv is not None:
            llc_rrpv[s3][way] = llc_insert
        else:
            llc_on_fill(s3, way)
        # --- L2 fill ---
        s2 = l2_sets_l[idx]
        valid2 = l2_valid[s2]
        if l2_rrpv is not None:
            if False in valid2:
                w2 = valid2.index(False)
            else:
                rrpvs = l2_rrpv[s2]
                if l2_max not in rrpvs:
                    step = l2_max - max(rrpvs)
                    rrpvs[:] = [r + step for r in rrpvs]
                w2 = rrpvs.index(l2_max)
        else:
            w2 = l2_victim(s2, valid2)
        tags2 = l2_tags[s2]
        if valid2[w2]:
            old2 = tags2[w2]
            del l2_where[s2][old2]
            l2_stats.evictions += 1
            if l2_dirty[s2][w2]:
                l2_stats.writebacks += 1
                l2._dirty_lines -= 1
                # A dirty L2 victim refills the LLC (reference
                # ``_fill_all`` discards the return — any line that
                # refill displaces is silently dropped).  The real call
                # mutates LLC replacement state, so the span's victim
                # plan is stale past this element: cut.
                llc_fill(old2 * line_bytes, dirty=True)
                cut = True
        tags2[w2] = line
        l2_where[s2][line] = w2
        valid2[w2] = True
        l2_dirty[s2][w2] = False
        l2_pending.append((s2, w2, line))
        if l2_rrpv is not None:
            l2_rrpv[s2][w2] = l2_insert
        else:
            l2_on_fill(s2, w2)
        # --- L1 fill ---
        s1 = l1_sets_l[idx]
        valid1 = l1_valid[s1]
        if l1_rrpv is not None:
            if False in valid1:
                w1 = valid1.index(False)
            else:
                rrpvs = l1_rrpv[s1]
                if l1_max not in rrpvs:
                    step = l1_max - max(rrpvs)
                    rrpvs[:] = [r + step for r in rrpvs]
                w1 = rrpvs.index(l1_max)
        else:
            w1 = l1_victim(s1, valid1)
        tags1 = l1_tags[s1]
        if valid1[w1]:
            old1 = tags1[w1]
            del l1_where[s1][old1]
            l1_stats.evictions += 1
            ev1_addr = old1 * line_bytes
            sink.append(ev1_addr)
            if l1_dirty[s1][w1]:
                l1_stats.writebacks += 1
                l1._dirty_lines -= 1
                # Dirty L1 victim refills L2 (return discarded, as in
                # ``_fill_l1``).  No cut needed: only LLC state feeds
                # the span plan, and the refilled line cannot equal a
                # planned LLC eviction.
                l2_fill(ev1_addr, dirty=True)
        tags1[w1] = line
        l1_where[s1][line] = w1
        valid1[w1] = True
        l1_dirty[s1][w1] = is_write
        if is_write:
            l1._dirty_lines += 1
        l1_pending.append((s1, w1, line))
        if l1_rrpv is not None:
            l1_rrpv[s1][w1] = l1_insert
        else:
            l1_on_fill(s1, w1)
        idx += 1
        if cut:
            break
    committed = idx
    if not dram_done:
        _commit_dram_span(controller, banks[:committed], rows[:committed],
                          kinds[:committed], finishes[:committed],
                          service_starts[:committed], requestor, is_write)
    if latencies is not None:
        latencies.extend(np.diff(finishes[:committed],
                                 prepend=now).tolist())
    # Bulk statistics: one miss + one fill per level per element; the
    # real calls along the way (back-invalidations, victim refills, the
    # DRAM span and write-back) counted themselves.
    l1_stats.misses += committed
    l1_stats.fills += committed
    l2_stats.misses += committed
    l2_stats.fills += committed
    llc_stats.misses += committed
    llc_stats.fills += committed
    h_stats = h.stats
    h_stats.demand_accesses += committed
    h_stats.memory_writebacks += memory_writebacks
    rs = h_stats.requestor(requestor)
    if rs.accesses == 0 and rs.clflushes == 0:
        rs.first_seen_cycle = now
    last_issue = finishes_l[committed - 2] if committed >= 2 else now
    if last_issue > rs.last_seen_cycle:
        rs.last_seen_cycle = last_issue
    rs.accesses += committed
    rs.llc_misses += committed
    return committed, finishes_l[committed - 1]


# ---------------------------------------------------------------------------
# DRAM back-to-back run engine
# ---------------------------------------------------------------------------

_KIND_HIT = 0
_KIND_EMPTY = 1
_KIND_CONFLICT = 2


def controller_run_vector(controller, addrs, issued: int, *,
                          requestor: str = "cpu", is_write: bool = False,
                          collect_latencies: bool = False,
                          ) -> Tuple[int, Optional[List[int]]]:
    """Vectorized back-to-back DRAM run (``MemoryController.access_run``).

    Semantics: each access is issued at the previous access's finish.
    The dispatcher guarantees open-row policy, no constant-time defense,
    and no observer.  Every remaining hazard is handled inline by
    *splitting* the run: an atomic-lock window or a bank still busy
    beyond the chain's issue times runs a scalar prefix until the chain
    clears it; open-row-timeout violations and refresh windows commit the
    exact clean prefix and hand the boundary element to the reference
    path (which re-times the timed-out row or applies the refresh
    window); a partitioned bank bounds each span so the violating element
    raises :class:`~repro.dram.controller.PartitionViolationError` from
    the reference path with all prior state committed, exactly as the
    scalar loop would.
    """
    latencies: Optional[List[int]] = [] if collect_latencies else None
    addrs_np = np.asarray(addrs, dtype=np.int64)
    banks_np, rows_np = controller.mapper.decode_banks_rows(addrs_np)
    q = controller._queue_cycles
    device_banks = controller.device.banks
    now = issued
    i = 0
    n = len(addrs)
    part = controller._partition
    if part:
        num_banks = controller.config.geometry.num_banks
        allowed = np.array([part.get(b, requestor) == requestor
                            for b in range(num_banks)])
        viol = np.flatnonzero(~allowed[banks_np])
    else:
        viol = None
    # Scalar prefix: until the chain's post-queue start time clears the
    # atomic-lock window and every touched bank's pre-existing busy
    # window, service starts are not the simple closed form.  Once past,
    # they stay past: every later mutation (bulk commit, boundary access,
    # even an applied refresh window) leaves the touched bank's
    # busy_until at that element's own finish, which the next issue time
    # already equals.
    max_busy = max(device_banks[b].busy_until
                   for b in np.unique(banks_np).tolist())
    while i < n and (now + q < controller._locked_until
                     or now + q < max_busy):
        result = controller.access(addrs[i], now, requestor=requestor,
                                   is_write=is_write)
        if latencies is not None:
            latencies.append(result.latency)
        now = result.finish
        i += 1
    while i < n:
        if viol is not None:
            nxt = int(np.searchsorted(viol, i))
            m = (int(viol[nxt]) - i) if nxt < viol.size else n - i
        else:
            m = n - i
        committed = 0
        if m:
            committed, now = _commit_dram_run(
                controller, banks_np[i:i + m], rows_np[i:i + m], now, q,
                requestor, is_write, latencies)
            i += committed
        if committed < m or m == 0:
            # Boundary element: open-row timeout, refresh window, or a
            # partition violation — the reference path evaluates it
            # exactly (and raises for the partition case).
            result = controller.access(addrs[i], now, requestor=requestor,
                                       is_write=is_write)
            if latencies is not None:
                latencies.append(result.latency)
            now = result.finish
            i += 1
    return now, latencies


def _classify_dram_chain(controller, banks, rows, issued: int,
                         overhead: int):
    """Classify a chained run and derive its optimistic timing arrays.

    ``overhead`` is the fixed per-element gap between one element's
    finish and the next one's *service start* — ``queue_cycles`` for a
    pure DRAM run, ``queue_cycles`` plus the three cache-probe latencies
    for the hierarchy miss engine's spans.  Returns ``(kinds, lats,
    finishes, service_starts, clean)`` where ``clean`` is the length of
    the prefix unaffected by open-row-timeout violations (``n`` when the
    timeout is disabled).  Times past ``clean`` are optimistic only; the
    caller must not commit beyond it.
    """
    device_banks = controller.device.banks
    ref_bank = device_banks[0]
    timeout = ref_bank._timeout_cycles
    n = len(banks)
    order = np.argsort(banks, kind="stable")
    sorted_banks = banks[order]
    sorted_rows = rows[order]
    # Previous row touched on the same bank within the run; the initial
    # open row (or -1 for precharged) for each bank's first touch.
    prev_rows = np.empty(n, dtype=np.int64)
    prev_rows[1:] = sorted_rows[:-1]
    first_mask = np.empty(n, dtype=bool)
    first_mask[0] = True
    first_mask[1:] = sorted_banks[1:] != sorted_banks[:-1]
    uniq_banks = sorted_banks[first_mask].tolist()
    init_rows = np.array([_open_row_int(device_banks[b])
                          for b in uniq_banks], dtype=np.int64)
    group_ordinal = np.cumsum(first_mask) - 1
    prev_rows[first_mask] = init_rows[group_ordinal[first_mask]]

    kinds_sorted = np.where(
        prev_rows < 0, _KIND_EMPTY,
        np.where(prev_rows == sorted_rows, _KIND_HIT, _KIND_CONFLICT))
    kinds = np.empty(n, dtype=np.int64)
    kinds[order] = kinds_sorted
    lat_table = np.array([ref_bank._hit_cycles, ref_bank._empty_cycles,
                          ref_bank._conflict_cycles], dtype=np.int64)
    lats = lat_table[kinds]
    finishes = issued + np.cumsum(lats + overhead)
    service_starts = finishes - lats

    clean = n
    if timeout > 0:
        finishes_sorted = finishes[order]
        last_act_sorted = np.empty(n, dtype=np.int64)
        last_act_sorted[1:] = finishes_sorted[:-1]
        init_act = np.array([device_banks[b].last_activation
                             for b in uniq_banks], dtype=np.int64)
        last_act_sorted[first_mask] = init_act[group_ordinal[first_mask]]
        ss_sorted = service_starts[order]
        violated_sorted = (prev_rows >= 0) & (
            ss_sorted - last_act_sorted > timeout)
        violated = np.empty(n, dtype=bool)
        violated[order] = violated_sorted
        bad = np.flatnonzero(violated)
        if bad.size:
            clean = int(bad[0])
    return kinds, lats, finishes, service_starts, clean


def _refresh_cut(controller, banks, service_starts) -> int:
    """Length of the run prefix untouched by refresh windows.

    The scalar path evaluates the refresh schedule at each request's
    *service* start (``_refresh_service_start``); past the busy-clearing
    scalar prefix that is exactly the chain's ``service_starts``.  The
    phase formula mirrors :meth:`DRAMDevice._refresh_phase` vectorized
    (numpy ``%`` matches Python's non-negative semantics for a positive
    modulus), so the first element whose phase lands inside ``tRFC``
    bounds the commit — it re-runs through the reference path, which
    applies the window to the bank.
    """
    device = controller.device
    if not device.refresh_enabled:
        return len(banks)
    timings = device.timings
    period = timings.refi_cycles
    ranks = (banks // device.geometry.banks_per_rank)
    staggers = (ranks * period) // max(1, device.geometry.ranks)
    phases = (service_starts + device.refresh_epoch - staggers) % period
    bad = np.flatnonzero(phases < timings.rfc_cycles)
    return int(bad[0]) if bad.size else len(banks)


def _commit_dram_span(controller, banks, rows, kinds, finishes,
                      service_starts, requestor: str,
                      is_write: bool) -> None:
    """Commit a fully-validated span's bank state and statistics in bulk.

    All arrays are pre-sliced to the committed span.  The bank's last
    access in the span decides its row-buffer state; per-kind counts feed
    the stats.
    """
    device_banks = controller.device.banks
    rp = device_banks[0]._rp_cycles
    commit = len(banks)
    hit_mask = kinds == _KIND_HIT
    empty_mask = kinds == _KIND_EMPTY
    hits = int(np.count_nonzero(hit_mask))
    empties = int(np.count_nonzero(empty_mask))
    conflicts = commit - hits - empties
    num_banks = len(device_banks)
    per_bank = np.bincount(banks, minlength=num_banks)
    per_bank_hits = np.bincount(banks[hit_mask], minlength=num_banks)
    per_bank_empties = np.bincount(banks[empty_mask], minlength=num_banks)
    uniq_banks, rev_index = np.unique(banks[::-1], return_index=True)
    last_pos = commit - 1 - rev_index
    for bank_index, last in zip(uniq_banks.tolist(), last_pos.tolist()):
        bank = device_banks[bank_index]
        bank.open_row = int(rows[last])
        bank.busy_until = int(finishes[last])
        bank.last_activation = int(finishes[last])
        bank_hits = int(per_bank_hits[bank_index])
        bank_empties = int(per_bank_empties[bank_index])
        bank_conflicts = int(per_bank[bank_index]) - bank_hits - bank_empties
        stats = bank.stats
        stats.hits += bank_hits
        stats.empties += bank_empties
        stats.conflicts += bank_conflicts
        stats.activations += bank_empties + bank_conflicts
    non_hit = np.flatnonzero(~hit_mask)
    if non_hit.size:
        # row_opened_at tracks the open row's activation start: the
        # bank's last EMPTY opens at its service start, a CONFLICT
        # after the precharge completes; a pure-HIT group leaves it.
        nh_banks = banks[non_hit]
        uniq_nh, nh_rev = np.unique(nh_banks[::-1], return_index=True)
        nh_last = non_hit[non_hit.size - 1 - nh_rev]
        for bank_index, pos in zip(uniq_nh.tolist(), nh_last.tolist()):
            bank = device_banks[bank_index]
            if kinds[pos] == _KIND_EMPTY:
                bank.row_opened_at = int(service_starts[pos])
            else:
                bank.row_opened_at = int(service_starts[pos]) + rp
    rstats = controller._stats_for(requestor)
    if is_write:
        rstats.writes += commit
    else:
        rstats.reads += commit
    rstats.hits += hits
    rstats.conflicts += conflicts


def _commit_dram_run(controller, banks, rows, issued: int, q: int,
                     requestor: str, is_write: bool,
                     latencies: Optional[List[int]],
                     ) -> Tuple[int, int]:
    """Classify and commit a maximal clean prefix of a run.

    Returns ``(elements_committed, finish_time)``.  With the default
    timings (timeout and refresh disabled) the whole run commits;
    otherwise the prefix before the first open-row-timeout violation or
    refresh window commits (optimistic times are exact up to that point —
    either boundary only changes its own and later elements' latencies).
    """
    kinds, lats, finishes, service_starts, clean = _classify_dram_chain(
        controller, banks, rows, issued, q)
    upto = min(clean, _refresh_cut(controller, banks, service_starts))
    if upto == 0:
        return 0, issued
    if upto < len(banks):
        banks = banks[:upto]
        rows = rows[:upto]
        kinds = kinds[:upto]
        lats = lats[:upto]
        finishes = finishes[:upto]
        service_starts = service_starts[:upto]
    if latencies is not None:
        # Reference latency is finish - issue, which includes the queue
        # overhead (service_start = previous finish + queue_cycles).
        latencies.extend((lats + q).tolist())
    _commit_dram_span(controller, banks, rows, kinds, finishes,
                      service_starts, requestor, is_write)
    return upto, int(finishes[-1])


def _open_row_int(bank) -> int:
    """The bank's open row with ``None`` (precharged) encoded as -1."""
    row = bank.open_row
    return -1 if row is None else row
