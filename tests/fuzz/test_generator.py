"""Generator and reference-simulator invariants (seeded, tier-1)."""

from repro.compiler.parametrized import compile_source
from repro.fuzz.gen import build_program, from_library, generate
from repro.fuzz.sim import RefSim, build_script, make_schedule, revalidate


def test_generate_is_pure():
    for seed in (0, 7, 23):
        a, b = generate(seed), generate(seed)
        assert a.dsl == b.dsl
        assert a.chains == b.chains
        assert a.channel_capacity == b.channel_capacity


def test_build_script_is_pure():
    program = generate(3)
    a = build_script(program, 3)
    b = build_script(program, 3)
    assert a.batches == b.batches
    assert a.flood_points == b.flood_points


def test_generated_programs_compile_with_coherent_boundary():
    for seed in range(10):
        program = generate(seed)
        proto = compile_source(program.dsl).protocol(program.protocol)
        bindings = proto.default_bindings({})
        tails, heads = proto.boundary_vertices(bindings)
        assert tuple(tails) == program.tails
        assert tuple(heads) == program.heads
        assert set(tails).isdisjoint(heads)
        assert tails and heads


def test_channelable_capacity_counts_fifo_slots_and_glue():
    # FifoChain(2) -fifo1-> FifoChain(3): 2 + 3 chain slots + 1 glue slot.
    program = build_program(
        ((("FifoChain", 2), ("FifoChain", 3)),), name="Pipe"
    )
    assert program.channelable
    assert program.channel_capacity == 6
    assert not from_library("Merger", 2).channelable


def test_channelable_program_fills_to_capacity_on_sim():
    """The packing argument: exactly ``channel_capacity`` sends complete
    without a receive, and one more is not consumable."""
    program = build_program(((("FifoChain", 2), ("FifoChain", 2)),))
    sim = RefSim(program)
    from repro.fuzz.sim import SimOp

    tail, head = program.tails[0], program.heads[0]
    for i in range(program.channel_capacity):
        assert sim.run_batch([SimOp("send", tail, i)]) is not None, i
    assert sim.run_batch([SimOp("send", tail, 99)]) is None
    assert sim.run_batch([SimOp("recv", head)]) == [("recv", head, 0)]


def test_revalidate_reproduces_script():
    for seed in (1, 4, 9):
        program = generate(seed)
        script = build_script(program, seed)
        if not script.batches:
            continue
        again = revalidate(program, script.batches)
        assert again is not None
        assert again.batches == script.batches
        assert again.flood_points == script.flood_points


def test_make_schedule_never_floods_channelable():
    for seed in range(40):
        program = generate(seed)
        script = build_script(program, seed)
        schedule = make_schedule(program, script, seed)
        if program.channelable:
            assert schedule.floods == ()
        for point in schedule.floods:
            assert point in script.flood_points
        if schedule.checkpoint_at is not None:
            assert 1 <= schedule.checkpoint_at < len(script.batches)


def test_generator_reaches_two_chains():
    """A generated program of two chains is two connected components, so
    the ``regions-*`` modes run it as two regions: a stated share of the
    default sweep's programs — 19 of seeds 0:50 — keeps every sweep
    holding more than one region against the reference simulator."""
    from repro.fuzz.harness import _protocol, connector_opts
    from repro.runtime.ports import Inport, Outport

    split = 0
    for seed in range(50):
        program = generate(seed)
        proto, tails, heads = _protocol(program)
        conn = proto.instantiate_connector(
            sizes=program.sizes, **connector_opts("regions-jit"))
        conn.connect([Outport(v) for v in tails], [Inport(v) for v in heads])
        regions = len(conn.engine.regions)
        conn.close()
        assert regions == len(program.chains), seed
        split += regions >= 2
    assert split >= 18, f"{split} of 50 seeds run as several regions"
