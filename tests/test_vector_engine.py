"""Randomized bit-identity: the numpy vector engine vs the scalar path.

The vector backend (``repro.sim.vector``) is only allowed to exist
because it is *indistinguishable* from the reference loop — same finish
times, same per-access latencies, same cache tags/dirty bits/replacement
state, same hierarchy and DRAM statistics, access for access.  These
tests drive randomized mixed streams through both backends on twin
systems and compare everything observable, plain and sanitized, through
snapshot round-trips, and for the chained DRAM run engine
across every bundled address mapping.
"""

import dataclasses
import random

import pytest

from repro.config import SystemConfig
from repro.sim import vector
from repro.system import System

pytestmark = pytest.mark.skipif(
    not vector.numpy_available(),
    reason=f"numpy unavailable: {vector.numpy_error()}")


# ----------------------------------------------------------------------
# Helpers: build twin systems, extract every observable bit of state
# ----------------------------------------------------------------------


def _config(prefetchers=True, replacement=None, mapping="row",
            refresh=False, row_timeout_ns=None):
    config = SystemConfig.paper_default()
    hier = config.hierarchy
    if not prefetchers:
        hier = dataclasses.replace(hier, prefetchers_enabled=False)
    if replacement is not None:
        hier = dataclasses.replace(hier, l1_replacement=replacement,
                                   l2_replacement=replacement,
                                   llc_replacement=replacement)
    config = dataclasses.replace(config, hierarchy=hier, mapping=mapping,
                                 refresh_enabled=refresh)
    if row_timeout_ns is not None:
        config = dataclasses.replace(
            config, timings=dataclasses.replace(
                config.timings, row_timeout_ns=row_timeout_ns))
    return config


def _statsdict(stats):
    if dataclasses.is_dataclass(stats):
        return dataclasses.asdict(stats)
    if hasattr(stats, "__dict__"):
        return dict(stats.__dict__)
    return {name: getattr(stats, name) for name in stats.__slots__}


def _caches(hierarchy):
    for attr in ("l1", "l2", "llc"):
        level = getattr(hierarchy, attr)
        if isinstance(level, list):
            for i, cache in enumerate(level):
                yield f"{attr}[{i}]", cache
        else:
            yield attr, level


def _full_state(system):
    """Everything the two backends must agree on, as plain comparables."""
    state = {}
    for name, cache in _caches(system.hierarchy):
        policy = cache._policy
        state[name] = (
            tuple(map(tuple, cache._tags)),
            tuple(map(tuple, cache._dirty)),
            _statsdict(cache.stats),
            repr(policy.snapshot_state()) if policy is not None else None,
        )
    state["hierarchy"] = _statsdict(system.hierarchy.stats)
    state["requestors"] = {
        name: _statsdict(stats)
        for name, stats in system.controller.requestor_stats.items()
    }
    banks = system.controller.device.banks
    state["banks"] = [
        (bank.open_row, bank.busy_until, bank.row_opened_at,
         bank.last_activation)
        for bank in banks
    ]
    return state


def _mixed_stream(rng, count, probe_lines=256, miss_lines=4096):
    """Hit-heavy probe replay with aliasing sets, strided miss bursts,
    and random far misses mixed in — the adversarial shape for the
    engine's classify/demote logic."""
    probe = [0x100000 + i * 64 for i in range(probe_lines)]
    addrs = []
    while len(addrs) < count:
        roll = rng.random()
        if roll < 0.70:
            addrs.append(rng.choice(probe))
        elif roll < 0.85:
            base = rng.randrange(miss_lines) * 64
            addrs.extend(0x800000 + base + i * 64
                         for i in range(rng.randrange(1, 16)))
        else:
            addrs.append(rng.randrange(0, 1 << 24) & ~0x3F)
    return probe, addrs[:count]


def _run_cache_stream(config, backend, seed, *, writes=True, probes=True):
    rng = random.Random(seed)
    system = System(config)
    probe, addrs = _mixed_stream(rng, 3000)
    hierarchy = system.hierarchy
    hierarchy.access_batch(0, probe, 0, requestor="warm", backend="scalar")
    finish = hierarchy.access_batch(0, addrs, 10_000, pc=17,
                                    requestor="recv", backend=backend)
    if writes:
        finish = hierarchy.access_batch(0, addrs[: len(addrs) // 2], finish,
                                        is_write=True, requestor="send",
                                        backend=backend)
    latencies = None
    if probes:
        finish, latencies = hierarchy.probe_batch(
            0, addrs[: len(addrs) // 3], finish, requestor="recv",
            backend=backend)
    return finish, latencies, _full_state(system)


# ----------------------------------------------------------------------
# Cache engine equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("prefetchers", [True, False])
def test_vector_matches_scalar_randomized(seed, prefetchers):
    config = _config(prefetchers=prefetchers)
    scalar = _run_cache_stream(config, "scalar", seed)
    vectorized = _run_cache_stream(config, "vector", seed)
    assert vectorized[0] == scalar[0]
    assert vectorized[1] == scalar[1]
    assert vectorized[2] == scalar[2]


@pytest.mark.parametrize("replacement", ["lru", "srrip", "random"])
def test_vector_matches_scalar_per_policy(replacement):
    config = _config(prefetchers=False, replacement=replacement)
    # RandomPolicy draws from the global RNG on misses; reseed per run so
    # both backends see the same victim sequence.
    random.seed(99)
    scalar = _run_cache_stream(config, "scalar", 7)
    random.seed(99)
    vectorized = _run_cache_stream(config, "vector", 7)
    assert vectorized == scalar


def test_auto_backend_matches_scalar():
    config = _config()
    assert (_run_cache_stream(config, "auto", 5)
            == _run_cache_stream(config, "scalar", 5))


def test_small_batches_and_generators_still_work():
    config = _config()
    system = System(config)
    small = [i * 64 for i in range(8)]
    finish = system.hierarchy.access_batch(0, iter(small), 0,
                                           backend="vector")
    twin = System(config)
    assert finish == twin.hierarchy.access_batch(0, small, 0,
                                                 backend="scalar")


def test_probe_many_and_load_many_backend_passthrough():
    def run(backend):
        system = System(_config(prefetchers=False))
        ctx = type("Ctx", (), {
            "now": 0, "name": "cpu",
            "advance_to": lambda self, t: setattr(self, "now", t),
        })()
        probe = [0x100000 + i * 64 for i in range(128)]
        system.load_many(ctx, 0, probe, backend=backend)
        replay = [probe[(i * 7) % 128] for i in range(2000)]
        lats = system.probe_many(ctx, 0, replay, backend=backend)
        return ctx.now, lats, _full_state(system)

    assert run("vector") == run("scalar")


# ----------------------------------------------------------------------
# Gating: observers, sanitizer, kill switch
# ----------------------------------------------------------------------


def test_sanitized_runs_stay_bit_identical(monkeypatch):
    plain = _run_cache_stream(_config(), "vector", 11)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = _run_cache_stream(_config(), "vector", 11)
    assert sanitized == plain


def test_observer_falls_back_on_auto_but_raises_when_explicit():
    system = System(_config(), sanitize=True)
    obs = system.hierarchy._obs
    assert obs is not None
    # Auto silently falls back to the reference loop...
    assert vector.choose_backend(None, 10_000, obs) == "scalar"
    # ...but an *explicit* vector request with an observer attached is a
    # configuration error and says so (PR 7 gating-asymmetry fix).  The
    # environment-level downgrades outrank it: under the kill switch or
    # REPRO_SANITIZE the explicit request silently runs scalar instead
    # (sanitized runs attach an observer to *every* system, so raising
    # would break every backend="vector" call site in sanitize CI).
    probe = [0x100000 + i * 64 for i in range(64)]
    if vector.vector_killed() or vector.sanitize_requested():
        assert vector.choose_backend("vector", 10_000, obs) == "scalar"
    else:
        with pytest.raises(RuntimeError, match="observer attached"):
            vector.choose_backend("vector", 10_000, obs)
        with pytest.raises(RuntimeError, match="set_observer"):
            system.hierarchy.access_batch(0, probe, 0, backend="vector")
    # Detaching the observer or passing backend="scalar" both work.
    finish = system.hierarchy.access_batch(0, probe, 0, backend="scalar")
    twin = System(_config())
    assert finish == twin.hierarchy.access_batch(0, probe, 0,
                                                 backend="scalar")


def test_explicit_vector_without_numpy_raises(monkeypatch):
    monkeypatch.setattr(vector, "np", None)
    monkeypatch.setattr(vector, "_NUMPY_ERROR",
                        "repro.sim.vector needs numpy>=1.24 (test stub)")
    with pytest.raises(RuntimeError, match="needs numpy"):
        vector.choose_backend("vector", 10_000, None)
    # Auto quietly degrades to the scalar reference loop instead.
    assert vector.choose_backend(None, 10_000, None) == "scalar"


def test_kill_switch_disables_vector(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.setenv("REPRO_NO_VECTOR", "1")
    assert vector.choose_backend(None, 10_000, None) == "scalar"
    assert vector.choose_backend("vector", 10_000, None) == "scalar"
    monkeypatch.setenv("REPRO_NO_VECTOR", "0")
    assert vector.choose_backend(None, 10_000, None) == "vector"


def test_auto_threshold_and_unknown_backend(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.delenv("REPRO_NO_VECTOR", raising=False)
    assert vector.choose_backend(None, vector.MIN_VECTOR_BATCH - 1,
                                 None) == "scalar"
    assert vector.choose_backend(None, vector.MIN_VECTOR_BATCH,
                                 None) == "vector"
    with pytest.raises(ValueError, match="unknown backend"):
        vector.choose_backend("simd", 1000, None)


def test_numpy_requirement_reports_clearly():
    # numpy is present in this run (module-level skip otherwise), so the
    # guard passes; the message string is what a missing/old install sees.
    vector.require_numpy()
    assert vector.numpy_available()
    assert vector.numpy_error() is None


# ----------------------------------------------------------------------
# Snapshot round-trips
# ----------------------------------------------------------------------


def test_snapshot_restore_replay_is_backend_agnostic():
    config = _config()
    system = System(config)
    rng = random.Random(3)
    probe, addrs = _mixed_stream(rng, 2500)
    system.hierarchy.access_batch(0, probe, 0, backend="vector")
    snap = system.snapshot()

    results = {}
    for backend in ("scalar", "vector"):
        fresh = System(config)
        fresh.restore(snap)
        finish = fresh.hierarchy.access_batch(0, addrs, 5000,
                                              backend=backend)
        results[backend] = (finish, _full_state(fresh))
    assert results["vector"] == results["scalar"]


def test_restore_invalidates_tag_mirror():
    system = System(_config())
    l1 = system.hierarchy.l1[0]
    probe = [0x100000 + i * 64 for i in range(128)]
    system.hierarchy.access_batch(0, probe, 0, backend="vector")
    mirror_before = l1.tag_matrix().copy()
    snap = system.snapshot()
    system.hierarchy.access_batch(
        0, [0x900000 + i * 64 for i in range(512)], 0, backend="scalar")
    system.restore(snap)
    rebuilt = l1.tag_matrix()
    assert (rebuilt == mirror_before).all()
    assert rebuilt.tolist() == [list(row) for row in l1._tags]


# ----------------------------------------------------------------------
# DRAM run engine
# ----------------------------------------------------------------------


def _dram_state(system):
    return (
        [(b.open_row, b.busy_until, b.row_opened_at, b.last_activation)
         for b in system.controller.device.banks],
        {name: _statsdict(stats)
         for name, stats in system.controller.requestor_stats.items()},
    )


def _run_dram_stream(config, backend, seed, *, writes=True):
    rng = random.Random(seed)
    system = System(config)
    cap = config.geometry.capacity_bytes
    addrs = [rng.randrange(0, cap // 8) & ~0x3F for _ in range(1500)]
    base = 0x40000
    addrs += [base + (i % 32) * 64 for i in range(400)]  # same-row runs
    finish, lats = system.controller.access_run(
        addrs, 1000, requestor="recv", collect_latencies=True,
        backend=backend)
    if writes:
        finish, more = system.controller.access_run(
            addrs[:300], finish, requestor="send", is_write=True,
            collect_latencies=True, backend=backend)
        lats = lats + more
    return finish, lats, _dram_state(system)


@pytest.mark.parametrize("mapping", ["row", "line", "xor"])
@pytest.mark.parametrize("row_timeout_ns", [None, 120.0])
def test_dram_run_matches_scalar(mapping, row_timeout_ns):
    config = _config(mapping=mapping, row_timeout_ns=row_timeout_ns)
    assert (_run_dram_stream(config, "vector", 8)
            == _run_dram_stream(config, "scalar", 8))


def test_dram_run_with_refresh_matches_chained_access_calls():
    # Refresh windows *split* vectorized runs (PR 7): the clean prefix
    # commits in bulk and each boundary element takes the reference path,
    # which applies the window — the result must match a hand-chained
    # access loop exactly, including every refresh-lengthened latency.
    config = _config(refresh=True)
    system = System(config)
    addrs = [0x40000 + (i % 64) * 64 for i in range(500)]
    finish, lats = system.controller.access_run(
        addrs, 1000, requestor="cpu", collect_latencies=True,
        backend="vector")
    twin = System(config)
    now = 1000
    expect = []
    for addr in addrs:
        result = twin.controller.access(addr, now, requestor="cpu")
        expect.append(result.latency)
        now = result.finish
    assert finish == now
    assert lats == expect
    assert _dram_state(system) == _dram_state(twin)


def test_dram_run_matches_chained_access_calls():
    config = _config()
    system = System(config)
    rng = random.Random(12)
    cap = config.geometry.capacity_bytes
    addrs = [rng.randrange(0, cap // 16) & ~0x3F for _ in range(800)]
    finish, lats = system.controller.access_run(
        addrs, 500, requestor="cpu", collect_latencies=True,
        backend="vector")
    twin = System(config)
    now = 500
    expect = []
    for addr in addrs:
        result = twin.controller.access(addr, now, requestor="cpu")
        expect.append(result.latency)
        now = result.finish
    assert (finish, lats) == (now, expect)
    assert _dram_state(system) == _dram_state(twin)


def test_dram_run_rejects_bad_addresses_like_scalar():
    config = _config()
    bad = [64, 128, config.geometry.capacity_bytes + 64]
    errors = {}
    for backend in ("scalar", "vector"):
        system = System(config)
        with pytest.raises(ValueError) as excinfo:
            system.controller.access_run(bad, 0, backend=backend)
        errors[backend] = str(excinfo.value)
    assert errors["vector"] == errors["scalar"]


# ----------------------------------------------------------------------
# Vectorized address decode
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mapping", ["row", "line", "xor"])
def test_decode_banks_rows_matches_scalar_decode(mapping):
    np = pytest.importorskip("numpy")
    config = _config(mapping=mapping)
    mapper = System(config).controller.mapper
    rng = random.Random(21)
    addrs = [rng.randrange(0, config.geometry.capacity_bytes)
             for _ in range(4096)]
    banks, rows = mapper.decode_banks_rows(np.asarray(addrs, dtype=np.int64))
    for i, addr in enumerate(addrs):
        bank, row = mapper.decode_bank_row(addr)
        assert (banks[i], rows[i]) == (bank, row)
