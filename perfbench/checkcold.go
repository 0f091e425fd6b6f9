package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/dining"
	"repro/internal/modelcheck"
	"repro/internal/par"
)

// check-cold: one dpcheck-shaped Engine.CheckAll per op on the Theorem 3
// reference instance, with nothing cached between ops.
const (
	coldTopology  = "theorem1-minimal"
	coldAlgorithm = "GDP1"
	// Golden exploration size of theorem1-minimal/GDP1, as pinned by
	// internal/modelcheck's TestExplorationGolden.
	coldStates      = 64392
	coldTransitions = 257568
)

// coldVerdicts is Theorem 3 on the reference instance: GDP1 is deadlock-free,
// makes progress and admits no fair starvation trap of the whole table, but a
// fair adversary can starve one philosopher, so lockout-freedom fails.
var coldVerdicts = []struct {
	property string
	passed   bool
}{
	{dining.DeadlockFreedom, true},
	{dining.Progress, true},
	{dining.LockoutFreedom, false},
	{dining.StarvationTrap, true},
}

type checkCold struct {
	seed  uint64
	ref   []byte // JSON of the reference CheckAll results
	refCx []byte // JSON of the reference lockout counterexample
	// decomposed is set in traced runs: every op, traced or not, then runs
	// decomposedOp, so the traced-minus-untraced latency is the tracing
	// cost alone.
	decomposed bool

	mu sync.Mutex
	// per traced op: layer counters measured around the calls
	explore             []exploreSample
	allocs              []float64
	states, transitions int
	steps               int
}

type exploreSample struct {
	cpu              time.Duration
	allocsPerState   float64
	bytesPerState    float64
	retainedPerState float64 // 0 when not measured on this op
}

func setupCheckCold(ctx context.Context, seed uint64, tr *tracer) (instance, error) {
	w := &checkCold{seed: seed, decomposed: tr != nil}
	eng, err := w.engine()
	if err != nil {
		return nil, err
	}
	results, err := eng.CheckAll(ctx)
	if err != nil {
		return nil, err
	}
	if err := w.verify(eng, results); err != nil {
		return nil, fmt.Errorf("reference check: %w", err)
	}
	if w.ref, err = json.Marshal(results); err != nil {
		return nil, err
	}
	if w.refCx, err = json.Marshal(results[2].Counterexample); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *checkCold) clients() int { return 1 }

// engine builds a fresh engine at the shipped defaults. The seed reaches only
// WithSeed, which the exhaustive properties ignore: the instance is fixed.
func (w *checkCold) engine() (*dining.Engine, error) {
	topo, err := dining.NewTopology(coldTopology, 0)
	if err != nil {
		return nil, err
	}
	return dining.New(topo, coldAlgorithm, dining.WithSeed(w.seed))
}

// verify checks one op's results against Theorem 3 and the golden counts, and
// replays the lockout counterexample.
func (w *checkCold) verify(eng *dining.Engine, results []dining.PropertyResult) error {
	if len(results) != len(coldVerdicts) {
		return fmt.Errorf("%d results, want %d", len(results), len(coldVerdicts))
	}
	for i, want := range coldVerdicts {
		r := results[i]
		switch {
		case r.Property != want.property:
			return fmt.Errorf("result %d is %s, want %s", i, r.Property, want.property)
		case r.Passed != want.passed:
			return fmt.Errorf("%s passed=%v, want %v (Theorem 3)", r.Property, r.Passed, want.passed)
		case r.States != coldStates || r.Transitions != coldTransitions || r.Truncated:
			return fmt.Errorf("%s explored %d states / %d transitions (truncated %v), want %d / %d",
				r.Property, r.States, r.Transitions, r.Truncated, coldStates, coldTransitions)
		case !r.Passed && r.Counterexample == nil:
			return fmt.Errorf("%s failed without a counterexample", r.Property)
		}
		if r.Counterexample != nil {
			if err := eng.ReplayTrace(r.Counterexample); err != nil {
				return fmt.Errorf("%s counterexample does not replay: %w", r.Property, err)
			}
		}
	}
	return nil
}

func (w *checkCold) op(ctx context.Context, _ int, i int64, tr *tracer) (time.Duration, error) {
	if w.decomposed {
		return w.decomposedOp(ctx, i, tr)
	}
	start := time.Now()
	eng, err := w.engine()
	if err != nil {
		return 0, err
	}
	results, err := eng.CheckAll(ctx)
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if err := w.verify(eng, results); err != nil {
		return lat, err
	}
	got, err := json.Marshal(results)
	if err != nil {
		return lat, err
	}
	if !bytes.Equal(got, w.ref) {
		return lat, fmt.Errorf("op %d: CheckAll results differ from the reference", i)
	}
	return lat, nil
}

// decomposedOp performs the work of CheckAll through the layers' public
// functions: the exploration, the predecessor index, the four analyses fanned
// out as Engine.Check fans out its properties, the counterexample lift and
// its replay. It copies Engine.Check's orchestration rather than calling it,
// so a change to that orchestration does not reach the layer figures. With a
// tracer it times each call and samples the exploration's counters; with a
// nil tracer it runs the same calls untimed.
func (w *checkCold) decomposedOp(ctx context.Context, i int64, tr *tracer) (time.Duration, error) {
	start := time.Now()
	root := tr.open("op", i, -1)

	s := tr.open("dining.new", i, root)
	eng, err := w.engine()
	tr.close(s)
	if err != nil {
		return 0, err
	}

	var cpu0, cpu1 time.Duration
	var b0, o0, b1, o1 uint64
	s = tr.open("modelcheck.explore", i, root)
	if tr != nil {
		cpu0 = processCPU()
		b0, o0 = heapCounters()
	}
	ss, err := eng.Explore(ctx)
	if tr != nil {
		b1, o1 = heapCounters()
		cpu1 = processCPU()
	}
	tr.close(s)
	if err != nil {
		return 0, err
	}

	s = tr.open("graphalg.index", i, root)
	ss.PredecessorIndex()
	tr.close(s)

	// The four analyses run concurrently, as Engine.Check runs its
	// properties; lockout-freedom fans out per philosopher inside.
	var a0, a1 uint64
	if tr != nil {
		_, a0 = heapCounters()
	}
	var dead, deadRegion []int
	var trap modelcheck.Trap
	lockout := -1 // witness state of the first philosopher's trap
	analyses := []func() error{
		func() error {
			s := tr.open("graphalg.deadlock", i, root)
			dead = ss.DeadlockStates()
			tr.close(s)
			return nil
		},
		func() error {
			s := tr.open("graphalg.dead_region", i, root)
			deadRegion = ss.DeadRegionStates()
			tr.close(s)
			return nil
		},
		func() error {
			s := tr.open("graphalg.lockout", i, root)
			defer tr.close(s)
			n := eng.Topology().NumPhilosophers()
			traps := make([]modelcheck.Trap, n)
			for r := range par.Stream(ctx, eng.Workers(), n, func(p int) (modelcheck.Trap, error) {
				return ss.FindStarvationTrapAgainst([]dining.PhilID{dining.PhilID(p)})
			}) {
				if r.Err != nil {
					return r.Err
				}
				traps[r.Index] = r.Value
			}
			for _, t := range traps {
				if t.Exists && t.Reachable {
					lockout = t.WitnessState
					break
				}
			}
			return nil
		},
		func() error {
			s := tr.open("graphalg.starvation_trap", i, root)
			trap = ss.FindStarvationTrap()
			tr.close(s)
			return nil
		},
	}
	for r := range par.Stream(ctx, eng.Workers(), len(analyses), func(k int) (struct{}, error) {
		return struct{}{}, analyses[k]()
	}) {
		if r.Err != nil {
			return 0, r.Err
		}
	}
	if tr != nil {
		_, a1 = heapCounters()
	}
	if lockout < 0 {
		return 0, fmt.Errorf("op %d: no individual starvation trap found (Theorem 3)", i)
	}

	s = tr.open("trace.lift", i, root)
	cx, err := ss.CounterexampleTo(dining.LockoutFreedom, lockout)
	tr.close(s)
	if err != nil {
		return 0, err
	}
	tr.close(root)
	lat := time.Since(start)
	// CheckAll does not replay; the replay is the op's output check, so it
	// is timed as a root of its own, outside the op's latency.
	s = tr.open("trace.replay", i, -1)
	err = eng.ReplayTrace(cx)
	tr.close(s)
	if err != nil {
		return lat, fmt.Errorf("op %d: counterexample does not replay: %w", i, err)
	}

	// Check the decomposed run against the same claims as CheckAll's.
	if ss.NumStates() != coldStates || ss.NumTransitions() != coldTransitions || ss.Truncated {
		return lat, fmt.Errorf("op %d: explored %d states / %d transitions, want %d / %d",
			i, ss.NumStates(), ss.NumTransitions(), coldStates, coldTransitions)
	}
	if len(dead) != 0 || len(deadRegion) != 0 || (trap.Exists && trap.Reachable) {
		return lat, fmt.Errorf("op %d: %d deadlock / %d dead-region states, trap %v (Theorem 3)",
			i, len(dead), len(deadRegion), trap.Exists && trap.Reachable)
	}
	got, err := json.Marshal(cx)
	if err != nil {
		return lat, err
	}
	if !bytes.Equal(got, w.refCx) {
		return lat, fmt.Errorf("op %d: lockout counterexample differs from CheckAll's", i)
	}
	if tr == nil {
		return lat, nil
	}

	nStates, nTransitions := ss.NumStates(), ss.NumTransitions()
	states := float64(nStates)
	sample := exploreSample{
		cpu:            cpu1 - cpu0,
		allocsPerState: float64(o1-o0) / states,
		bytesPerState:  float64(b1-b0) / states,
	}
	// The retained size is the live heap with the space (and its index)
	// reachable minus the live heap without it. Forcing the collections
	// takes tens of ms, so only the first few traced ops, after their span
	// ends, pay for it.
	if i < 8 {
		withSpace := liveHeapAfterGC()
		runtime.KeepAlive(ss)
		sample.retainedPerState = (float64(withSpace) - float64(liveHeapAfterGC())) / states
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.explore = append(w.explore, sample)
	w.allocs = append(w.allocs, float64(a1-a0))
	w.states, w.transitions = nStates, nTransitions
	w.steps = cx.Len()
	return lat, nil
}

func (w *checkCold) layers(m map[string]float64, self map[string]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var cpu, allocs, perState, retained []float64
	for _, s := range w.explore {
		cpu = append(cpu, ms(s.cpu))
		allocs = append(allocs, s.allocsPerState)
		perState = append(perState, s.bytesPerState)
		if s.retainedPerState != 0 {
			retained = append(retained, s.retainedPerState)
		}
	}
	m["modelcheck.explore_ms"] = self["modelcheck.explore"] / 1e6
	m["modelcheck.explore_cpu_ms"] = median(cpu)
	m["modelcheck.explore_allocs_per_state"] = median(allocs)
	m["modelcheck.explore_bytes_per_state"] = median(perState)
	m["modelcheck.retained_bytes_per_state"] = median(retained)
	m["modelcheck.states"] = float64(w.states)
	m["modelcheck.transitions"] = float64(w.transitions)
	m["graphalg.index_ms"] = self["graphalg.index"] / 1e6
	m["graphalg.deadlock_ms"] = self["graphalg.deadlock"] / 1e6
	m["graphalg.dead_region_ms"] = self["graphalg.dead_region"] / 1e6
	m["graphalg.starvation_trap_ms"] = self["graphalg.starvation_trap"] / 1e6
	m["graphalg.lockout_ms"] = self["graphalg.lockout"] / 1e6
	m["graphalg.analysis_allocs"] = median(w.allocs)
	m["trace.lift_ms"] = self["trace.lift"] / 1e6
	m["trace.replay_ms"] = self["trace.replay"] / 1e6
	m["trace.steps"] = float64(w.steps)
	m["dining.new_us"] = self["dining.new"] / 1e3
}

func (w *checkCold) finish(context.Context) (int64, error) { return 0, nil }
func (w *checkCold) close()                                {}
