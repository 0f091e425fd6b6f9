package modelcheck

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
)

// TestAnalysesAllocBudget asserts that every graphalg analysis performs zero
// per-state heap allocations on a warm predecessor index: the index is built
// once, each analysis runs once to warm the scratch pool, and the measured
// allocations per run must then not scale with the state count — only the
// O(1) result slices and pool bookkeeping remain. This subsumes the old
// SCC successor-enumeration complaint (one slice per visited state) and
// guards the worklist layer against regressing into per-state garbage.
func TestAnalysesAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under the race detector, so allocation counts are meaningless")
	}
	// 0.02 allocs/state on the smallest instance (376 states) allows ~7
	// allocations per analysis — result slices, pool Get bookkeeping, the
	// Tarjan closure — while any per-state allocation blows the budget.
	const maxAllocsPerState = 0.02
	for _, tc := range []struct {
		topo *graph.Topology
		alg  string
	}{
		{graph.Theorem2Minimal(), "LR1"},
		{graph.Theorem1Minimal(), "LR1"},
		{graph.Theorem2Minimal(), "LR2"},
	} {
		prog, err := algo.New(tc.alg, algo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ss, err := Explore(tc.topo, prog, Options{Workers: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		ix := ss.PredecessorIndex()
		states := float64(ss.NumStates())
		for _, an := range []struct {
			name string
			run  func()
		}{
			{"Reachable", func() { ix.Reachable() }},
			{"DeadlockStates", func() { ix.DeadlockStates() }},
			{"DeadRegionStates", func() { ix.DeadRegionStates(ss.Bad) }},
			{"MaximalTrap", func() { ix.MaximalTrap(ss.Bad) }},
		} {
			an.run() // warm the scratch pool
			allocs := testing.AllocsPerRun(5, an.run)
			perState := allocs / states
			t.Logf("%s on %s: %s: %.1f allocs over %.0f states (%.4f allocs/state)",
				tc.alg, tc.topo.Name(), an.name, allocs, states, perState)
			if perState > maxAllocsPerState {
				t.Errorf("%s on %s: %s allocates %.4f per state, over the %.2f budget — a per-state allocation crept back in",
					tc.alg, tc.topo.Name(), an.name, perState, maxAllocsPerState)
			}
		}
	}
}

// TestExploreAllocsPerState is the allocation-regression guard for
// exploration. At workers=1 the phases run inline with no goroutines; the
// shard key arena (one amortized chunk instead of one string copy per
// state) and the world free-list (each created world reuses the backing
// slices of an expanded frontier world) bring Explore under 2 allocations
// per state. The workers=2/shards=2 cells pin the parallel path on
// instances large enough for per-state costs to dominate the per-level
// goroutine start-ups: no per-state key copy, no per-level dedupe map, and
// flat arrays grown at least 2× (append grows large slices by only 1.25×).
// Their bytes/state bounds sit about 10 % above the measured values
// (t1min/GDP1: 632 B/state and 0.69 allocs/state; ring-3/LR2: 414 B/state).
func TestExploreAllocsPerState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting skipped in -short mode")
	}
	for _, tc := range []struct {
		topo            *graph.Topology
		alg             string
		workers, shards int
		maxAllocs       float64 // per state
		maxBytes        float64 // per state; 0 = unbounded
	}{
		{graph.Ring(3), "LR1", 1, 1, 2.5, 0},
		{graph.Theorem2Minimal(), "LR1", 1, 1, 2.5, 0},
		{graph.Theorem2Minimal(), "GDP1", 1, 1, 2.5, 0},
		{graph.Theorem1Minimal(), "GDP1", 2, 2, 1.0, 695},
		{graph.Ring(3), "LR2", 2, 2, 1.0, 455},
	} {
		prog, err := algo.New(tc.alg, algo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Workers: tc.workers, Shards: tc.shards}
		ss, err := Explore(tc.topo, prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		states := float64(ss.NumStates())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Explore(tc.topo, prog, opts); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up run before the three it counts.
		bytesPerState := float64(after.TotalAlloc-before.TotalAlloc) / 4 / states
		perState := allocs / states
		cell := fmt.Sprintf("%s on %s (workers=%d, shards=%d)", tc.alg, tc.topo.Name(), tc.workers, tc.shards)
		t.Logf("%s: %.0f states, %.0f allocs, %.2f allocs/state, %.0f B/state", cell, states, allocs, perState, bytesPerState)
		if perState > tc.maxAllocs {
			t.Errorf("%s: %.2f allocs/state exceeds the %.1f budget", cell, perState, tc.maxAllocs)
		}
		if tc.maxBytes > 0 && bytesPerState > tc.maxBytes {
			t.Errorf("%s: %.0f B/state exceeds the %.0f budget", cell, bytesPerState, tc.maxBytes)
		}
	}
}
