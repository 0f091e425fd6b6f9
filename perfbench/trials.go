package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/dining"
	"repro/internal/graph"
	"repro/internal/sim"
)

// trials-section3: the paper's Section 3 experiment. Each op is one batch of
// adversarial trials on figure1a, equal parts LR1, LR2, GDP1 and GDP2; no
// state space is explored.
const (
	trialsTopology  = "figure1a"
	trialsScheduler = "adversary"
	trialsMaxSteps  = 30000
	trialsPerAlg    = 8
	// exactOps is the number of leading ops whose trials give the per-seed
	// exact counts; sampledOps the number whose sampled trial is re-run.
	exactOps   = 8
	sampledOps = 64
)

var section3Algorithms = []string{"LR1", "LR2", "GDP1", "GDP2"}

// Traced ops run the same algorithms and adversary under wrapping names whose
// instances time a sample of the Scheduler.Next and Program.Outcomes calls.
// The wrappers report the wrapped names, so their trial results are identical.
func wrapped(name string) string { return "perfbench-" + strings.ToLower(name) }

func init() {
	dining.RegisterScheduler("perfbench-adversary", func(cfg dining.SchedulerConfig) dining.Scheduler {
		inner, err := dining.NewScheduler(trialsScheduler, cfg)
		if err != nil {
			panic(err) // the built-in adversary is always registered
		}
		return &timedScheduler{inner: inner, c: newCounter(&advise)}
	})
	for _, alg := range section3Algorithms {
		dining.RegisterAlgorithm(wrapped(alg), func(opts dining.AlgorithmOptions) dining.Program {
			inner, err := dining.NewAlgorithm(alg, opts)
			if err != nil {
				panic(err) // the paper's algorithms are always registered
			}
			return &timedProgram{Program: inner, c: newCounter(&outcomes)}
		})
	}
}

// counterSet collects the counters of every wrapper instance of one kind.
type counterSet struct {
	mu   sync.Mutex
	list []*counter
}

// counter times a pseudo-random one in 2^sampleShift of a wrapper instance's
// calls: timing every call would double the step's cost. A wrapper instance
// serves one trial on one goroutine.
type counter struct {
	timed, ns int64
	rng       uint64
}

const sampleShift = 5

var advise, outcomes counterSet

func newCounter(set *counterSet) *counter {
	c := &counter{rng: 0x9e3779b97f4a7c15}
	set.mu.Lock()
	set.list = append(set.list, c)
	set.mu.Unlock()
	return c
}

// sample advances the instance's xorshift generator and reports whether to
// time this call; the generator keeps the sample from aliasing with periodic
// schedules.
func (c *counter) sample() bool {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng&(1<<sampleShift-1) == 0
}

// perCall returns the mean time of a call over every instance's sample, in
// ns, less the cost of the clock reads that bracket it.
func (s *counterSet) perCall() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var timed, ns int64
	for _, c := range s.list {
		timed += c.timed
		ns += c.ns
	}
	if timed == 0 {
		return 0
	}
	return float64(ns)/float64(timed) - clockCost()
}

// clockCost is the median time an empty pair of clock reads measures, in ns.
func clockCost() float64 {
	d := make([]float64, 1001)
	for i := range d {
		t := time.Now()
		d[i] = float64(time.Since(t))
	}
	return median(d)
}

type timedScheduler struct {
	inner dining.Scheduler
	c     *counter
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Next(w *sim.World) graph.PhilID {
	if !s.c.sample() {
		return s.inner.Next(w)
	}
	t := time.Now()
	p := s.inner.Next(w)
	s.c.ns += int64(time.Since(t))
	s.c.timed++
	return p
}

type timedProgram struct {
	dining.Program
	c *counter
}

func (p *timedProgram) Outcomes(w *sim.World, ph graph.PhilID, buf []sim.Outcome) []sim.Outcome {
	if !p.c.sample() {
		return p.Program.Outcomes(w, ph, buf)
	}
	t := time.Now()
	out := p.Program.Outcomes(w, ph, buf)
	p.c.ns += int64(time.Since(t))
	p.c.timed++
	return out
}

type trialsSection3 struct {
	seed uint64
	topo *dining.Topology

	mu      sync.Mutex
	steps   int64                          // simulated steps over the window
	exact   [exactOps][]dining.TrialResult // trials of the leading ops
	sampled []dining.TrialResult
}

func setupTrials(ctx context.Context, seed uint64, _ *tracer) (instance, error) {
	topo, err := dining.NewTopology(trialsTopology, 0)
	if err != nil {
		return nil, err
	}
	w := &trialsSection3{seed: seed, topo: topo}
	// One untimed batch builds every engine once and checks the outputs.
	if _, err := w.batch(ctx, -1, nil); err != nil {
		return nil, err
	}
	w.steps, w.sampled = 0, nil
	return w, nil
}

func (w *trialsSection3) clients() int { return 1 }

// engineSeeds draws the base seeds of op i's engines from the workload seed.
func (w *trialsSection3) engineSeeds(i int64) []uint64 {
	r := rand.New(rand.NewPCG(w.seed, uint64(i)))
	seeds := make([]uint64, len(section3Algorithms))
	for k := range seeds {
		seeds[k] = r.Uint64()
	}
	return seeds
}

func (w *trialsSection3) op(ctx context.Context, _ int, i int64, tr *tracer) (time.Duration, error) {
	return w.batch(ctx, i, tr)
}

// batch runs op i: one Engine.Trials stream per algorithm.
func (w *trialsSection3) batch(ctx context.Context, i int64, tr *tracer) (time.Duration, error) {
	name := func(s string) string { return s }
	if tr != nil {
		name = wrapped
	}
	seeds := w.engineSeeds(i)
	results := make([]dining.TrialResult, 0, len(section3Algorithms)*trialsPerAlg)
	start := time.Now()
	root := tr.open("op", i, -1)
	for k, alg := range section3Algorithms {
		s := tr.open("dining.new", i, root)
		eng, err := dining.New(w.topo, name(alg),
			dining.WithScheduler(name(trialsScheduler)),
			dining.WithMaxSteps(trialsMaxSteps),
			dining.WithSeed(seeds[k]))
		tr.close(s)
		if err != nil {
			return 0, err
		}
		s = tr.open("sim.trials", i, root)
		for res, err := range eng.Trials(ctx, trialsPerAlg) {
			if err != nil {
				tr.close(s)
				return 0, err
			}
			res.Result = nil
			results = append(results, res)
		}
		tr.close(s)
	}
	tr.close(root)
	lat := time.Since(start)

	var steps int64
	for _, r := range results {
		if err := checkTrial(r); err != nil {
			return lat, fmt.Errorf("op %d: %w", i, err)
		}
		steps += r.Steps
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.steps += steps
	if i >= 0 && i < exactOps {
		w.exact[i] = results
	}
	if i >= 0 && i < sampledOps {
		w.sampled = append(w.sampled, results[int(i)%len(results)])
	}
	return lat, nil
}

// checkTrial checks what every Section 3 trial must show: it ran its full
// step budget, and GDP1/GDP2 made progress under the adversary (Theorems 3
// and 4).
func checkTrial(r dining.TrialResult) error {
	if r.Steps != trialsMaxSteps || r.Reason != string(sim.StopMaxSteps) {
		return fmt.Errorf("%s trial seed %d stopped after %d steps (%s), want %d",
			r.Algorithm, r.Seed, r.Steps, r.Reason, trialsMaxSteps)
	}
	if (r.Algorithm == "GDP1" || r.Algorithm == "GDP2") && r.TotalEats == 0 {
		return fmt.Errorf("%s trial seed %d made no progress", r.Algorithm, r.Seed)
	}
	return nil
}

// finish re-runs the sampled trials on fresh engines seeded with the trial's
// own seed and counts those whose result differs.
func (w *trialsSection3) finish(ctx context.Context) (int64, error) {
	var failed int64
	var firstErr error
	for _, want := range w.sampled {
		eng, err := dining.New(w.topo, want.Algorithm,
			dining.WithScheduler(trialsScheduler),
			dining.WithMaxSteps(trialsMaxSteps),
			dining.WithSeed(want.Seed))
		if err != nil {
			return failed, err
		}
		got, err := eng.Run(ctx)
		if err == nil && !sameRun(want, got) {
			err = fmt.Errorf("%s trial seed %d does not reproduce", want.Algorithm, want.Seed)
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return failed, firstErr
}

func sameRun(t dining.TrialResult, r *dining.SimResult) bool {
	return t.Steps == r.Steps && t.TotalEats == r.TotalEats && slices.Equal(t.EatsBy, r.EatsBy) &&
		t.FirstEatStep == r.FirstEatStep && t.MeanWaitSteps == r.MeanWaitSteps &&
		t.MaxScheduleGap == r.MaxScheduleGap && slices.Equal(t.Starved, r.Starved) &&
		t.Reason == string(r.Reason)
}

func (w *trialsSection3) layers(m map[string]float64, self map[string]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var trials, steps, meals, starved float64
	for _, results := range w.exact {
		for _, r := range results {
			trials++
			steps += float64(r.Steps)
			meals += float64(r.TotalEats)
			if len(r.Starved) > 0 {
				starved++
			}
		}
	}
	if trials > 0 {
		m["sim.steps_per_trial"] = steps / trials
		m["sim.meals_per_trial"] = meals / trials
		m["sim.starved_trial_ratio"] = starved / trials
	}
	m["sched.advise_ns_per_step"] = advise.perCall()
	m["sim.outcomes_ns_per_step"] = outcomes.perCall()
	m["dining.new_us"] = self["dining.new"] / 1e3
}

// report prints the simulation rate at the reference speed of probe.go.
// Every trial runs its full step budget, so steps per op are fixed and the
// rate moves with ops_per_s.
func (w *trialsSection3) report(st loopStats) {
	w.mu.Lock()
	defer w.mu.Unlock()
	fmt.Printf("# sim_steps_per_s=%.1f\n", float64(w.steps)/st.wallRef.Seconds())
}

func (w *trialsSection3) close() {}
