"""Property-based tests on machine invariants.

Under arbitrary interleavings of allocations, promotions and demotions:

1. Page counts are conserved (no page lost, duplicated, or unmapped).
2. Tier capacities are never exceeded.
3. The traffic meter's migration totals equal the sum of successful
   moves.
4. Watermark predicates are consistent with free-page counts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.machine import Machine, MachineConfig
from repro.memsim.pagetable import CXL_TIER, LOCAL_TIER

from tests.memsim.test_machine import service


@st.composite
def machine_and_ops(draw):
    local = draw(st.integers(4, 64))
    cxl = draw(st.integers(32, 512))
    alloc = draw(st.integers(1, local + cxl))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["promote", "demote"]),
                st.integers(0, 600),  # start page
                st.integers(1, 64),  # count
            ),
            max_size=30,
        )
    )
    return local, cxl, alloc, ops


@given(machine_and_ops())
@settings(max_examples=120, deadline=None)
def test_migration_invariants(params):
    local, cxl, alloc, ops = params
    machine = Machine(
        MachineConfig(local_capacity_pages=local, cxl_capacity_pages=cxl)
    )
    machine.allocate(alloc)
    total_moved = 0
    for op, start, count in ops:
        pages = np.arange(start, min(start + count, alloc), dtype=np.int64)
        if pages.size == 0:
            continue
        target = LOCAL_TIER if op == "promote" else CXL_TIER
        total_moved += machine.move_pages_ex(pages, target).num_moved

        # Capacity invariants hold after every operation.
        assert 0 <= machine.local_used_pages <= local
        assert 0 <= machine.cxl_used_pages <= cxl
        # Conservation: every allocated page is on exactly one tier.
        assert machine.page_table.mapped_pages == alloc

    assert machine.traffic.pages_migrated == total_moved
    # Watermark predicates agree with the free-page arithmetic.
    assert machine.below_promo_wmark() == (
        machine.local_free_pages < machine.promo_wmark_pages
    )
    assert machine.above_demote_wmark() == (
        machine.local_free_pages > machine.demote_wmark_pages
    )


@given(
    local=st.integers(4, 100),
    cxl=st.integers(4, 100),
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_allocation_local_first(local, cxl, sizes):
    machine = Machine(
        MachineConfig(local_capacity_pages=local, cxl_capacity_pages=cxl)
    )
    allocated = 0
    for size in sizes:
        if allocated + size > local + cxl:
            break
        machine.allocate(size)
        allocated += size
        # Local-first: CXL is used only once local is exhausted.
        if machine.cxl_used_pages > 0:
            assert machine.local_free_pages == 0
    assert machine.local_used_pages + machine.cxl_used_pages == allocated


@given(
    alloc=st.integers(10, 200),
    accesses=st.lists(st.integers(0, 199), min_size=1, max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_access_accounting_consistent(alloc, accesses):
    machine = Machine(
        MachineConfig(local_capacity_pages=50, cxl_capacity_pages=400)
    )
    machine.allocate(alloc)
    pages = np.asarray([a % alloc for a in accesses], dtype=np.int64)
    local, cxl = service(machine, pages)
    assert local + cxl == len(pages)
    assert machine.traffic.total_accesses == len(pages)
    placement = machine.placement_of(pages)
    assert local == int(np.count_nonzero(placement == LOCAL_TIER))
    assert cxl == int(np.count_nonzero(placement == CXL_TIER))
