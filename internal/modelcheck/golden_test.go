package modelcheck

import (
	"reflect"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/modelcheck/modelchecktest"
	"repro/internal/sim"
)

// TestExplorationGolden pins the exact exploration results (state counts,
// transition counts, bad/deadlock/dead-region counts, safe-region sizes and
// trap sizes) of the instances the experiment suite model-checks. The values
// were captured from the original fmt-keyed, per-fork-slice implementation;
// the binary AppendKey encoder, the flattened World layout, the
// protocol-only cloning of Explore and the sharded state stores must keep
// every one of them byte-identical — a refactor that merges or splits states
// shows up here immediately. Each instance's explored space is also compared
// state by state with the modelchecktest reference exploration.
//
// Larger instances (ring-3 GDP2, theorem1-minimal GDP1) are skipped in -short
// mode; the small ones still cover every algorithm and key feature (guest
// books, request lists, nr fields, globals, aux registers).
func TestExplorationGolden(t *testing.T) {
	t.Parallel()
	type want struct {
		states, trans, bad, deadlock, dead, safe, trapStates int
		trapExists                                           bool
	}
	type inst struct {
		topo      *graph.Topology
		algorithm string
		opts      algo.Options
		protected []graph.PhilID
		big       bool
		want      want
	}
	ring3 := []graph.PhilID{0, 1, 2}
	instances := []inst{
		{graph.Theorem1Minimal(), "LR1", algo.Options{}, ring3, false,
			want{2736, 10944, 1280, 0, 0, 1456, 462, true}},
		{graph.Theorem1Minimal(), "LR1", algo.Options{}, nil, false,
			want{2736, 10944, 1664, 0, 0, 1072, 134, true}},
		{graph.Theorem1Minimal(), "GDP1", algo.Options{}, nil, true,
			want{64392, 257568, 28728, 0, 0, 35664, 0, false}},
		{graph.RingWithPendant(3), "LR1", algo.Options{}, ring3, false,
			want{3450, 13800, 1760, 0, 0, 1690, 350, true}},
		{graph.Ring(3), "LR1", algo.Options{}, nil, false,
			want{486, 1458, 288, 0, 0, 198, 0, false}},
		{graph.Ring(3), "LR1", algo.Options{}, []graph.PhilID{0}, false,
			want{486, 1458, 96, 0, 0, 390, 315, true}},
		{graph.Ring(3), "LR2", algo.Options{}, []graph.PhilID{0}, false,
			want{16282, 48846, 3710, 0, 0, 12572, 0, false}},
		{graph.Ring(3), "GDP2", algo.Options{}, []graph.PhilID{0}, true,
			want{182951, 548853, 34992, 0, 0, 147959, 392, true}},
		{graph.Ring(3), "GDP2", algo.Options{CourtesyOnBothForks: true}, []graph.PhilID{0}, true,
			want{180359, 541077, 34128, 0, 0, 146231, 0, false}},
		{graph.Theorem2Minimal(), "LR1", algo.Options{}, nil, false,
			want{376, 1128, 192, 0, 0, 184, 48, true}},
		{graph.Theorem2Minimal(), "LR2", algo.Options{}, nil, false,
			want{12830, 38490, 7950, 0, 0, 4880, 48, true}},
		{graph.Theorem2Minimal(), "GDP1", algo.Options{}, nil, false,
			want{324, 972, 108, 0, 0, 216, 0, false}},
		{graph.Theorem2Minimal(), "GDP2", algo.Options{}, nil, false,
			want{10096, 30288, 5088, 0, 0, 5008, 0, false}},
		{graph.Theorem2Minimal(), "GDP1", algo.Options{}, []graph.PhilID{0}, false,
			want{324, 972, 36, 0, 0, 288, 33, true}},
		{graph.Theorem2Minimal(), "GDP2", algo.Options{}, []graph.PhilID{0}, false,
			want{10096, 30288, 1696, 0, 0, 8400, 0, false}},
		{graph.Ring(3), "naive-left-first", algo.Options{}, nil, false,
			want{135, 405, 72, 1, 1, 63, 1, true}},
		{graph.Ring(3), "colored", algo.Options{}, nil, false,
			want{126, 378, 70, 0, 0, 56, 0, false}},
		{graph.Ring(3), "ordered-forks", algo.Options{}, nil, false,
			want{126, 378, 70, 0, 0, 56, 0, false}},
		{graph.Ring(3), "ticket-box", algo.Options{}, nil, false,
			want{176, 528, 84, 0, 0, 92, 0, false}},
		{graph.Ring(3), "central-monitor", algo.Options{}, nil, false,
			want{68, 204, 48, 0, 0, 20, 0, false}},
	}
	for _, in := range instances {
		if testing.Short() && in.big {
			continue
		}
		prog, err := algo.New(in.algorithm, in.opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Check(in.topo, prog, Options{Protected: in.protected})
		if err != nil {
			t.Fatal(err)
		}
		got := want{rep.States, rep.Transitions, rep.BadStates, rep.DeadlockStates,
			rep.DeadRegionStates, rep.Trap.SafeRegionStates, rep.Trap.States, rep.Trap.Exists}
		if got != in.want {
			t.Errorf("%s on %s (protected %v, opts %+v):\n got  %+v\n want %+v",
				in.algorithm, in.topo.Name(), in.protected, in.opts, got, in.want)
		}
		opts := Options{Protected: in.protected}
		ss, err := Explore(in.topo, prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, in.algorithm+" on "+in.topo.Name(), reference(t, in.topo, prog, opts), ss)
	}
}

// reference runs the modelchecktest reference exploration with the fields
// of opts that shape the explored space.
func reference(t *testing.T, topo *graph.Topology, prog sim.Program, opts Options) *modelchecktest.Space {
	t.Helper()
	ref, err := modelchecktest.Explore(topo, prog, modelchecktest.Options{
		MaxStates: opts.MaxStates,
		Protected: opts.Protected,
		Hunger:    opts.Hunger,
		Symmetry:  opts.Symmetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// assertMatchesReference verifies that an explored space is the reference
// exploration under the shard-id remap. The dense view — state numbering,
// keys, labels, transition rows, truncation — must be identical outright
// (dense ids are assigned in breadth-first discovery order for every worker
// and shard count), every reference key must be interned at its dense id,
// and the shard layout must be a consistent bijection: every state's key
// hashes to its owning shard, packed ids round-trip through the order/dense
// maps, and the shard sizes add up.
func assertMatchesReference(t *testing.T, label string, ref *modelchecktest.Space, ss *StateSpace) {
	t.Helper()
	n := len(ref.Keys)
	if ss.NumStates() != n || ss.initial != 0 || ss.Truncated != ref.Truncated {
		t.Fatalf("%s: shape differs: %d vs %d reference states, initial %d, truncated %v vs %v",
			label, ss.NumStates(), n, ss.initial, ss.Truncated, ref.Truncated)
	}
	for s := 0; s < n; s++ {
		if got := ss.denseOf([]byte(ref.Keys[s])); got != int32(s) {
			t.Fatalf("%s: reference state %d is interned at dense id %d — the dense numbering diverged", label, s, got)
		}
		if ss.hasKeys && ss.KeyOf(s) != ref.Keys[s] {
			t.Fatalf("%s: state %d has a different retained key", label, s)
		}
		if ss.sym != nil && ss.hasKeys && ss.RepresentativeKeyOf(s) != ref.RepKeys[s] {
			t.Fatalf("%s: state %d has a different representative key", label, s)
		}
		if ss.bad[s] != ref.Bad[s] || ss.anyEating[s] != ref.AnyEating[s] || ss.expanded[s] != ref.Expanded[s] {
			t.Fatalf("%s: state %d labels differ", label, s)
		}
		if !reflect.DeepEqual(ss.eating == nil, ref.Eating == nil) || (ss.eating != nil && ss.eating[s] != ref.Eating[s]) {
			t.Fatalf("%s: state %d eating mask differs", label, s)
		}
		for a := 0; a < ss.NumPhils; a++ {
			i := s*ss.NumPhils + a
			if !reflect.DeepEqual(ss.Succs(s, a), ref.Succs[i]) {
				t.Fatalf("%s: successors of (state %d, phil %d) differ: %v vs reference %v",
					label, s, a, ss.Succs(s, a), ref.Succs[i])
			}
			if !reflect.DeepEqual(ss.Probs(s, a), ref.Probs[i]) {
				t.Fatalf("%s: probabilities of (state %d, phil %d) differ", label, s, a)
			}
		}
	}
	total := 0
	for g := range ss.shards {
		st := &ss.shards[g]
		total += len(st.dense)
		if len(st.trans) != len(st.dense)*ss.NumPhils || len(st.index) != len(st.dense) {
			t.Fatalf("%s: shard %d holds %d states but %d transitions and %d index entries",
				label, g, len(st.dense), len(st.trans), len(st.index))
		}
		for l, d := range st.dense {
			packed := int32(g)<<localBits | int32(l)
			if ss.order[d] != packed {
				t.Fatalf("%s: order[%d] = %d, want packed id %d (shard %d, local %d)",
					label, d, ss.order[d], packed, g, l)
			}
			if h := ss.shardOfString(ref.Keys[d]); h != uint32(g) {
				t.Fatalf("%s: state (shard %d, local %d) has a key hashing to shard %d", label, g, l, h)
			}
		}
	}
	if total != n {
		t.Fatalf("%s: shard sizes sum to %d, want %d", label, total, n)
	}
}

// assertSameLayout compares two single-shard explorations field by field:
// beyond the dense view, the flat transition arrays themselves must be
// identical, so a single-shard space does not depend on the worker count.
func assertSameLayout(t *testing.T, label string, a, b *StateSpace) {
	t.Helper()
	if a.NumShards() != 1 || b.NumShards() != 1 {
		t.Fatalf("%s: assertSameLayout wants single-shard spaces, got %d and %d shards", label, a.NumShards(), b.NumShards())
	}
	for name, pair := range map[string][2]any{
		"trans": {a.shards[0].trans, b.shards[0].trans},
		"succs": {a.shards[0].succs, b.shards[0].succs},
		"probs": {a.shards[0].probs, b.shards[0].probs},
		"dense": {a.shards[0].dense, b.shards[0].dense},
		"keys":  {a.shards[0].keys, b.shards[0].keys},
		"order": {a.order, b.order},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("%s: %s differs between worker counts", label, name)
		}
	}
}

// TestExplorationParallelMatchesSequential pins the strongest form of the
// determinism contract on a single shard: for every worker count the
// explored space matches the reference breadth-first exploration state by
// state, and the flat transition arrays are byte-identical to the
// single-worker run's. It covers every algorithm family (free choice,
// request lists + guest books, nr draws, globals) and a truncated
// exploration, whose stop point must also agree.
func TestExplorationParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	for _, alg := range []string{"LR1", "LR2", "GDP1", "GDP2", "naive-left-first", "central-monitor"} {
		prog := mustProg(t, alg, algo.Options{})
		ref := reference(t, graph.Theorem2Minimal(), prog, Options{})
		var first *StateSpace
		for _, workers := range []int{1, 2, 3, 7} {
			par, err := Explore(graph.Theorem2Minimal(), prog, Options{Workers: workers, Shards: 1, KeepKeys: true})
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesReference(t, alg, ref, par)
			if first == nil {
				first = par
			}
			assertSameLayout(t, alg, first, par)
		}
	}

	prog := mustProg(t, "LR1", algo.Options{})
	ref := reference(t, graph.Ring(4), prog, Options{MaxStates: 50})
	if !ref.Truncated {
		t.Fatal("MaxStates 50 on Ring(4) should truncate")
	}
	var first *StateSpace
	for _, workers := range []int{1, 5} {
		par, err := Explore(graph.Ring(4), prog, Options{Workers: workers, Shards: 1, MaxStates: 50, KeepKeys: true})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, "truncated LR1", ref, par)
		if first == nil {
			first = par
		}
		assertSameLayout(t, "truncated LR1", first, par)
	}
}

// TestExplorationShardedEquivalentToSequential pins the sharded-store
// contract: for every (workers, shards) combination the explored space is
// the reference exploration under the shard-id remap — identical dense view
// (numbering, rows, labels, keys) plus a consistent shard layout. The grid
// covers every algorithm family. Truncated runs sweep the state cap over
// every value up to a few BFS levels deep and a few larger ones, so the cut
// lands inside levels, on level boundaries and in every chunk; each must
// stop at the reference stop point.
func TestExplorationShardedEquivalentToSequential(t *testing.T) {
	t.Parallel()
	for _, alg := range []string{"LR1", "LR2", "GDP1", "GDP2", "naive-left-first", "central-monitor"} {
		prog := mustProg(t, alg, algo.Options{})
		ref := reference(t, graph.Theorem2Minimal(), prog, Options{})
		for _, cfg := range []struct{ workers, shards int }{
			{1, 1}, {1, 2}, {1, 8}, {2, 2}, {3, 4}, {7, 8}, {4, 64},
		} {
			sh, err := Explore(graph.Theorem2Minimal(), prog, Options{
				Workers: cfg.workers, Shards: cfg.shards, KeepKeys: cfg.workers%2 == 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := resolveShards(cfg.shards, cfg.workers); sh.NumShards() != want {
				t.Fatalf("%s: NumShards = %d, want %d", alg, sh.NumShards(), want)
			}
			assertMatchesReference(t, alg, ref, sh)
		}
	}

	prog := mustProg(t, "LR1", algo.Options{})
	caps := []int{257, 500, 1000, 2000}
	for c := 1; c <= 120; c++ {
		caps = append(caps, c)
	}
	for _, maxStates := range caps {
		ref := reference(t, graph.Ring(4), prog, Options{MaxStates: maxStates})
		if !ref.Truncated {
			t.Fatalf("MaxStates %d on Ring(4) should truncate", maxStates)
		}
		for _, cfg := range []struct{ workers, shards int }{
			{1, 1}, {1, 4}, {2, 2}, {3, 2}, {5, 8},
		} {
			sh, err := Explore(graph.Ring(4), prog, Options{
				Workers: cfg.workers, Shards: cfg.shards, MaxStates: maxStates,
			})
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesReference(t, "truncated LR1", ref, sh)
		}
	}
}

// TestExplorationShardsDefaultAndValidation pins the Shards normalization:
// negative values error, zero matches the worker count, and everything is
// rounded up to a power of two capped at MaxShards.
func TestExplorationShardsDefaultAndValidation(t *testing.T) {
	t.Parallel()
	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Explore(graph.Ring(3), prog, Options{Shards: -1}); err == nil {
		t.Error("Explore accepted negative Shards")
	}
	for _, tc := range []struct{ workers, shards, want int }{
		{1, 0, 1},
		{3, 0, 4},
		{2, 3, 4},
		{1, 1000, MaxShards},
	} {
		ss, err := Explore(graph.Ring(3), prog, Options{Workers: tc.workers, Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		if ss.NumShards() != tc.want {
			t.Errorf("workers %d, shards %d: NumShards = %d, want %d",
				tc.workers, tc.shards, ss.NumShards(), tc.want)
		}
	}
}
