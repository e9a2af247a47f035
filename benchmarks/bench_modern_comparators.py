"""Benchmark MOD (extension): every placement backend through the server.

Not a paper artifact — a forward-looking ablation against the schemes
that later dominated weighted placement, run as *server backends*: each
one drives the full load → scale → crash mid-migration → resume → fsck
loop through the one CMServer stack.  Expected shape: SCADDAR and the
directory are movement-optimal (the directory pays O(blocks) state);
jump hash is near-optimal with zero state but tail-only removals; the
vnode ring over-moves at moderate vnode counts.  Every backend must
survive the crash with zero blocks lost.
"""

from __future__ import annotations

from repro.experiments import modern


def test_modern_backend_scorecard(run_once):
    rows = run_once(modern.run_modern, num_blocks=20_000)
    by_name = {r.backend: r for r in rows}
    # Crash consistency belongs to the server stack, not the scheme:
    # every backend resumes to a clean layout with nothing lost.
    for row in rows:
        assert row.survived, f"{row.backend} lost {row.blocks_lost} blocks"
        if row.backend == "sequential_checking":
            # Reallocation-free by design (arXiv 1707.00904): growth
            # moves no block, so there is no movement to be efficient at.
            assert row.mean_moved_fraction == 0.0
        else:
            assert row.mean_efficiency > 0.5, row.backend
    # AO1 state footprints: jump hash is stateless; SCADDAR logs one
    # entry per operation; the ring is O(N * vnodes); the directory is
    # O(blocks).
    assert by_name["jump_hash"].state_entries == 0
    assert by_name["scaddar"].state_entries == len(
        modern.comparison_schedule()
    )
    assert by_name["consistent_hash"].state_entries > 100
    assert by_name["directory"].state_entries == 20_000
    # Movement-optimal schemes beat the ring on efficiency.
    assert (
        by_name["scaddar"].mean_efficiency
        > by_name["consistent_hash"].mean_efficiency
    )
    print()
    print(modern.report(rows))
