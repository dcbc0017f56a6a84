"""What every program's two parallel variants report beside their result."""

import pytest

from repro.npb import cg, ep, ft, is_, lu, mg, sp

#: what each program's Reo-based run at N = 2 reports in ``extra``, in order
ROLES = {
    cg: ["bcast", "gather"],
    ep: ["gather"],
    ft: ["gather", "link0-1", "link1-0"],
    is_: ["gather", "scatter0", "scatter1"],
    lu: ["gather", "pipe0", "up0"],
    mg: ["gather", "scatter0", "scatter1", "up0", "down0"],
    sp: ["gather", "link0-1", "link1-0"],
}


@pytest.mark.parametrize("module", ROLES, ids=lambda m: m.__name__.split(".")[-1])
def test_reo_extra_is_one_stats_dict_per_connector(module):
    r = module.run_reo("S", 2)
    assert r.verified and list(r.extra) == ROLES[module]
    # every link carries traffic at N = 2
    assert all(s["steps"] > 0 and "parks" in s for s in r.extra.values())
    assert module.run_original("S", 2).extra == {}
