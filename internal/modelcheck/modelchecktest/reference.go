// Package modelchecktest retains a minimal state-by-state breadth-first
// exploration as the reference oracle for internal/modelcheck. The live
// explorer runs level-synchronous phases over hash-sharded stores; this one
// keeps a single FIFO queue, one intern map and per-action successor
// slices, so it is easy to check by reading. The equivalence tests pin that
// the live explorer's dense view — state numbering, keys, labels,
// transition rows and truncation point — is identical to this exploration
// for every (workers, shards) pair. Nothing outside _test files may import
// this package.
package modelchecktest

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Options carries the modelcheck.Options fields that shape the explored
// space.
type Options struct {
	// MaxStates caps the number of states; 0 means 2,000,000, the
	// modelcheck default. The exploration stops after the first state whose
	// expansion takes the count past the cap.
	MaxStates int
	// Protected is the set of philosophers whose meals are "bad"; empty
	// means all.
	Protected []graph.PhilID
	// Hunger overrides the initial world's hunger model.
	Hunger sim.HungerModel
	// Symmetry, when non-nil and non-trivial, interns orbit-canonical keys.
	Symmetry *graph.OrbitCanonicalizer
}

// Space is an explored MDP in discovery order: state s has dense id s.
type Space struct {
	NumPhils int
	// Keys holds the intern key of every state.
	Keys []string
	// RepKeys holds the plain key of the first-discovered world of every
	// state under a symmetry quotient; nil otherwise.
	RepKeys []string
	// Succs and Probs hold the successors and outcome probabilities of
	// philosopher a's action from state s at index s*NumPhils+a. An
	// unexpanded state has a probability-1 self-loop for every action.
	Succs [][]int32
	Probs [][]float64
	// Bad, AnyEating and Expanded are the per-state labels.
	Bad, AnyEating, Expanded []bool
	// Eating holds the bitmask of eating philosophers per state; nil when
	// there are more than 64 philosophers.
	Eating []uint64
	// Truncated reports whether the cap was crossed.
	Truncated bool
}

// Explore builds the reachable state space of prog on topo breadth-first,
// one state at a time.
func Explore(topo *graph.Topology, prog sim.Program, opts Options) (*Space, error) {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = 2_000_000
	}
	canon := opts.Symmetry
	if canon != nil && canon.Trivial() {
		canon = nil
	}
	key := func(w *sim.World) string {
		if canon != nil {
			return string(w.AppendCanonicalKey(canon, nil))
		}
		return string(w.AppendKey(nil))
	}
	protected := func(p int) bool {
		if len(opts.Protected) == 0 {
			return true
		}
		for _, q := range opts.Protected {
			if int(q) == p {
				return true
			}
		}
		return false
	}

	n := topo.NumPhilosophers()
	sp := &Space{NumPhils: n}
	index := make(map[string]int32)
	var queue []*sim.World
	add := func(w *sim.World) int32 {
		id := int32(len(sp.Keys))
		k := key(w)
		index[k] = id
		sp.Keys = append(sp.Keys, k)
		if canon != nil {
			sp.RepKeys = append(sp.RepKeys, string(w.AppendKey(nil)))
		}
		var bad, eat bool
		var mask uint64
		for p := range w.Phils {
			if w.Phils[p].Phase == sim.Eating {
				eat = true
				bad = bad || protected(p)
				if p < 64 {
					mask |= 1 << uint(p)
				}
			}
		}
		sp.Bad = append(sp.Bad, bad)
		sp.AnyEating = append(sp.AnyEating, eat)
		if n <= 64 {
			sp.Eating = append(sp.Eating, mask)
		}
		sp.Expanded = append(sp.Expanded, false)
		sp.Succs = append(sp.Succs, make([][]int32, n)...)
		sp.Probs = append(sp.Probs, make([][]float64, n)...)
		queue = append(queue, w)
		return id
	}

	w0 := sim.NewWorld(topo)
	if opts.Hunger != nil {
		w0.Hunger = opts.Hunger
	}
	prog.Init(w0)
	add(w0)
	for head := 0; head < len(queue); head++ {
		w := queue[head]
		queue[head] = nil
		for a := 0; a < n; a++ {
			pid := graph.PhilID(a)
			outcomes := prog.Outcomes(w, pid, nil)
			for i := range outcomes {
				succ := w.Clone()
				succOut := prog.Outcomes(succ, pid, nil)
				if len(succOut) != len(outcomes) {
					return nil, fmt.Errorf("modelchecktest: %s produced unstable outcome sets for P%d", prog.Name(), pid)
				}
				succOut[i].Do(succ, pid)
				succ.Step++
				id, ok := index[key(succ)]
				if !ok {
					id = add(succ)
				}
				sp.Succs[head*n+a] = append(sp.Succs[head*n+a], id)
				sp.Probs[head*n+a] = append(sp.Probs[head*n+a], outcomes[i].Prob)
			}
		}
		sp.Expanded[head] = true
		if len(sp.Keys) > maxStates {
			sp.Truncated = true
			break
		}
	}
	for s := range sp.Keys {
		if sp.Expanded[s] {
			continue
		}
		for a := 0; a < n; a++ {
			sp.Succs[s*n+a] = []int32{int32(s)}
			sp.Probs[s*n+a] = []float64{1}
		}
	}
	return sp, nil
}
