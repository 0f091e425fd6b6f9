package dining

import (
	"context"
	"fmt"
	"iter"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/modelcheck"
	"repro/internal/par"
	"repro/internal/prng"
	"repro/internal/sim"
)

// seedStride separates derived per-trial seeds; it matches the stride of the
// internal experiment engine so that Engine trials are bit-identical to
// core.System.Repeat trials.
const seedStride = 0x9e3779b97f4a7c15

// config is the mutable bag the functional options write into; New freezes
// it into an immutable Engine.
type config struct {
	scheduler      string
	algoOpts       algo.Options
	protected      []graph.PhilID
	fairnessWindow int64
	seed           uint64
	workers        int
	shards         int
	maxSteps       int64
	maxStates      int
	trials         int
	symmetry       bool
	recorder       sim.Recorder

	faultName    string
	faultRates   []float64
	faultTargets []graph.PhilID
	faultModel   fault.Model // resolved by New from the three fields above
}

// Option configures an Engine at construction time.
type Option func(*config)

// WithScheduler selects the scheduler by registered name (default Random).
func WithScheduler(name string) Option { return func(c *config) { c.scheduler = name } }

// WithSeed sets the base random seed (default 0). Trial i of a Monte-Carlo
// run derives its seed from the base seed and i alone, which is what makes
// streamed trials deterministic at any worker count.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithWorkers bounds the number of goroutines used by Trials, Repeat,
// Sweep and the exploration phases of Check and ModelCheck (0 = one per CPU;
// 1 runs everything on the calling goroutine). Results are identical for
// every value.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithShards splits the state-space store of Check and ModelCheck
// explorations into 2^k independently-owned shards, so exploration workers
// intern and append states without a global per-level merge (rounded up to
// a power of two; 0 = match the worker count). Results — state counts,
// verdicts, counterexample traces — are identical for every value; only
// wall-clock and memory layout change.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithMaxSteps bounds the number of atomic steps per simulation run
// (0 = the simulator default).
func WithMaxSteps(n int64) Option { return func(c *config) { c.maxSteps = n } }

// WithAlgorithmOptions tunes the algorithm (number range m, courtesy
// variants, coin bias).
func WithAlgorithmOptions(opts AlgorithmOptions) Option {
	return func(c *config) { c.algoOpts = opts }
}

// WithProtected restricts an adversary's (and the model checker's) target
// set to the given philosophers; empty means all of them.
func WithProtected(protected ...PhilID) Option {
	return func(c *config) { c.protected = append([]PhilID(nil), protected...) }
}

// WithFairnessWindow sets the bounded-fair adversary's window (0 = default).
func WithFairnessWindow(window int64) Option {
	return func(c *config) { c.fairnessWindow = window }
}

// WithMaxStates caps the state count of ModelCheck and Check explorations
// (0 = the model-checker default).
func WithMaxStates(n int) Option { return func(c *config) { c.maxStates = n } }

// WithTrials sets the Monte-Carlo trial count used by the statistical
// properties of Check (0 = each check's default).
func WithTrials(n int) Option { return func(c *config) { c.trials = n } }

// WithSymmetry quotients the explorations of Check and Explore by the
// topology's automorphism group: states that are permutations of one another
// under a declared topology symmetry (ring rotations and reflections, star
// leaf permutations) are stored once, shrinking the state space by up to the
// group order while preserving every exhaustive verdict. The reduction only
// applies when it is sound — the engine's (possibly fault-wrapped) program
// must satisfy the paper's symmetry condition (Program.Symmetric; targeted
// faults disable it), reflections are used only for left/right-symmetric
// programs (sim.SideSymmetricProgram), and a protected set restricts the
// group to its setwise stabilizer. On asymmetric programs or topologies
// without declared symmetries the option is a no-op. Counterexample traces
// are lifted back to concrete schedules, so they replay on engines without
// the option. Verdicts are identical with and without symmetry; reported
// state and transition counts are per orbit, so they differ.
func WithSymmetry() Option { return func(c *config) { c.symmetry = true } }

// WithFaults injects the named fault model into the engine's transition
// system. The name may be a full fault spec ("crash-rejoin:0.1,0.5@2", see
// the grammar in internal/fault); explicit rates append after the spec's.
// Missing rates take the model's documented defaults. New validates
// everything eagerly — an unknown model name, a rate outside [0, 1], too
// many rates and a target philosopher the topology does not have are all
// construction-time errors. The Monte-Carlo simulator and the exhaustive
// model checker both run the wrapped program, so Run, Trials, Repeat, Check
// and ModelCheck all see the same perturbed MDP. RunConcurrent injects the
// crash-family models (crash-rejoin, freeze) as goroutine park/resume
// decisions driven by per-seed streams, and rejects the message-level models
// (lossy-grants, delayed-grants), which have no goroutine equivalent.
func WithFaults(name string, rates ...float64) Option {
	return func(c *config) {
		c.faultName = name
		c.faultRates = append([]float64(nil), rates...)
	}
}

// WithFaultTargets restricts the engine's fault model to the given
// philosophers (default: all of them). It requires WithFaults; targeting
// without a model is a construction-time error.
func WithFaultTargets(phils ...PhilID) Option {
	return func(c *config) { c.faultTargets = append([]PhilID(nil), phils...) }
}

// WithRecorder attaches an event recorder to Run. A recorder observes a
// single event stream, so Trials and Repeat reject engines that have one
// combined with more than one worker.
func WithRecorder(r Recorder) Option { return func(c *config) { c.recorder = r } }

// Engine is an immutable, fully validated experiment configuration: a
// topology, an algorithm and a scheduler resolved against the registries,
// plus seeds, step budgets and worker counts. Construct one with New; an
// Engine is safe for concurrent use and every method may be called any
// number of times.
type Engine struct {
	topo *graph.Topology
	alg  string
	cfg  config
}

// New builds an Engine for the algorithm (by registered name) on the
// topology, applying the options. It validates everything eagerly: a nil or
// invalid topology, an unknown algorithm name and an unknown scheduler name
// are construction-time errors listing the registered options.
func New(topo *Topology, algorithm string, opts ...Option) (*Engine, error) {
	if topo == nil {
		return nil, fmt.Errorf("dining: New requires a topology")
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	c := config{scheduler: Random}
	for _, opt := range opts {
		opt(&c)
	}
	if _, err := algo.New(algorithm, c.algoOpts); err != nil {
		return nil, err
	}
	// Probe the scheduler with a throwaway configuration that honours the
	// full Config contract (non-nil RNG), so custom constructors that draw
	// randomness at construction time survive eager validation.
	if _, err := NewScheduler(c.scheduler, SchedulerConfig{
		RNG:            prng.New(c.seed),
		Protected:      c.protected,
		FairnessWindow: c.fairnessWindow,
	}); err != nil {
		return nil, err
	}
	if c.maxSteps < 0 {
		return nil, fmt.Errorf("dining: WithMaxSteps(%d) is negative", c.maxSteps)
	}
	if c.workers < 0 {
		return nil, fmt.Errorf("dining: WithWorkers(%d) is negative (0 means one per CPU)", c.workers)
	}
	if c.shards < 0 {
		return nil, fmt.Errorf("dining: WithShards(%d) is negative (0 means match the worker count)", c.shards)
	}
	if c.maxStates < 0 {
		return nil, fmt.Errorf("dining: WithMaxStates(%d) is negative", c.maxStates)
	}
	if c.trials < 0 {
		return nil, fmt.Errorf("dining: WithTrials(%d) is negative", c.trials)
	}
	if c.faultName != "" {
		name, fcfg, err := fault.ParseSpec(c.faultName)
		if err != nil {
			return nil, err
		}
		fcfg.Rates = append(fcfg.Rates, c.faultRates...)
		fcfg.Phils = append(fcfg.Phils, c.faultTargets...)
		m, err := fault.New(name, fcfg)
		if err != nil {
			return nil, err
		}
		if err := m.Validate(topo); err != nil {
			return nil, err
		}
		c.faultModel = m
	} else if len(c.faultRates) > 0 || len(c.faultTargets) > 0 {
		return nil, fmt.Errorf("dining: fault rates and WithFaultTargets require WithFaults")
	}
	return &Engine{topo: topo, alg: algorithm, cfg: c}, nil
}

// Topology returns the engine's topology.
func (e *Engine) Topology() *Topology { return e.topo }

// Algorithm returns the engine's algorithm name.
func (e *Engine) Algorithm() string { return e.alg }

// Scheduler returns the engine's scheduler name.
func (e *Engine) Scheduler() string { return e.cfg.scheduler }

// Seed returns the engine's base seed.
func (e *Engine) Seed() uint64 { return e.cfg.seed }

// Workers returns the engine's worker bound (0 = one per CPU).
func (e *Engine) Workers() int { return e.cfg.workers }

// Shards returns the engine's exploration shard count (0 = match workers).
func (e *Engine) Shards() int { return e.cfg.shards }

// MaxSteps returns the engine's per-run step bound (0 = simulator default).
func (e *Engine) MaxSteps() int64 { return e.cfg.maxSteps }

// MaxStates returns the engine's exploration state cap (0 = model-checker
// default).
func (e *Engine) MaxStates() int { return e.cfg.maxStates }

// TrialCount returns the engine's statistical trial count (0 = each check's
// default). The name avoids colliding with the Trials stream method.
func (e *Engine) TrialCount() int { return e.cfg.trials }

// Symmetry reports whether the engine quotients its explorations by the
// topology's automorphism group (WithSymmetry).
func (e *Engine) Symmetry() bool { return e.cfg.symmetry }

// FairnessWindow returns the engine's bounded-fair adversary window
// (0 = default).
func (e *Engine) FairnessWindow() int64 { return e.cfg.fairnessWindow }

// AlgorithmOptions returns the engine's algorithm options.
func (e *Engine) AlgorithmOptions() AlgorithmOptions { return e.cfg.algoOpts }

// Protected returns a copy of the engine's protected philosopher set
// (empty = all philosophers).
func (e *Engine) Protected() []PhilID { return append([]PhilID(nil), e.cfg.protected...) }

// Faults returns the canonical spec of the engine's fault model
// ("crash-rejoin:0.05,0.5"), or "" when the engine injects no faults.
func (e *Engine) Faults() string {
	if e.cfg.faultModel == nil {
		return ""
	}
	return e.cfg.faultModel.Spec()
}

// system assembles the internal system for one run with the given seed.
func (e *Engine) system(seed uint64) core.System {
	return core.System{
		Topology:       e.topo,
		Algorithm:      e.alg,
		AlgoOptions:    e.cfg.algoOpts,
		Scheduler:      e.cfg.scheduler,
		Protected:      e.cfg.protected,
		FairnessWindow: e.cfg.fairnessWindow,
		Faults:         e.cfg.faultModel,
		Seed:           seed,
	}
}

// program constructs the engine's algorithm program, wrapped by the fault
// model when one is configured — the single assembly point that keeps the
// simulator, the model checker and trace replay on the same (possibly
// perturbed) transition system.
func (e *Engine) program() (sim.Program, error) {
	prog, err := algo.New(e.alg, e.cfg.algoOpts)
	if err != nil || e.cfg.faultModel == nil {
		return prog, err
	}
	return e.cfg.faultModel.Wrap(e.topo, prog), nil
}

// orBackground substitutes context.Background for a nil ctx so that every
// engine entry point tolerates nil uniformly.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// runOptions builds the simulator options for one run, wiring ctx
// cancellation into the step loop.
func (e *Engine) runOptions(ctx context.Context, recorder sim.Recorder) sim.RunOptions {
	opts := sim.RunOptions{MaxSteps: e.cfg.maxSteps, Recorder: recorder}
	if ctx.Done() != nil {
		opts.Stop = func() bool { return ctx.Err() != nil }
	}
	return opts
}

// trialSeed derives the seed of trial i from the base seed and i alone.
func (e *Engine) trialSeed(i int) uint64 { return e.cfg.seed + uint64(i)*seedStride }

// Run executes one simulation with the engine's base seed. Cancelling ctx
// ends the run and returns the context's error.
func (e *Engine) Run(ctx context.Context) (*SimResult, error) {
	ctx = orBackground(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sys := e.system(e.cfg.seed)
	res, err := sys.Simulate(e.runOptions(ctx, e.cfg.recorder))
	if err != nil {
		return nil, err
	}
	if res.Reason == sim.StopCancelled {
		return nil, ctx.Err()
	}
	return res, nil
}

// TrialResult is one entry of a trial stream: the trial's index and seed
// plus a flat, JSON-stable summary of the run. Result carries the complete
// simulation outcome for programmatic consumers and is excluded from JSON.
type TrialResult struct {
	Trial          int      `json:"trial"`
	Seed           uint64   `json:"seed"`
	Topology       string   `json:"topology"`
	Algorithm      string   `json:"algorithm"`
	Scheduler      string   `json:"scheduler"`
	Steps          int64    `json:"steps"`
	TotalEats      int64    `json:"total_eats"`
	EatsBy         []int64  `json:"eats_by"`
	FirstEatStep   int64    `json:"first_eat_step"`
	MeanWaitSteps  float64  `json:"mean_wait_steps"`
	MaxScheduleGap int64    `json:"max_schedule_gap"`
	Starved        []PhilID `json:"starved,omitempty"`
	Reason         string   `json:"reason"`

	Result *SimResult `json:"-"`
}

// newTrialResult flattens a simulation result into the stream entry.
func newTrialResult(trial int, seed uint64, res *SimResult) TrialResult {
	return TrialResult{
		Trial:          trial,
		Seed:           seed,
		Topology:       res.Topology,
		Algorithm:      res.Algorithm,
		Scheduler:      res.SchedulerName,
		Steps:          res.Steps,
		TotalEats:      res.TotalEats,
		EatsBy:         res.EatsBy,
		FirstEatStep:   res.FirstEatStep,
		MeanWaitSteps:  res.MeanWaitSteps,
		MaxScheduleGap: res.MaxScheduleGap,
		Starved:        res.Starved,
		Reason:         string(res.Reason),
		Result:         res,
	}
}

// runTrial executes trial i with its derived seed. The engine's recorder is
// attached when present — streamWorkers has then already forced sequential
// execution, so the recorder observes a single ordered event stream.
func (e *Engine) runTrial(ctx context.Context, i int) (TrialResult, error) {
	seed := e.trialSeed(i)
	sys := e.system(seed)
	res, err := sys.Simulate(e.runOptions(ctx, e.cfg.recorder))
	if err != nil {
		return TrialResult{Trial: i, Seed: seed}, fmt.Errorf("dining: trial %d: %w", i, err)
	}
	if res.Reason == sim.StopCancelled {
		return TrialResult{Trial: i, Seed: seed}, ctx.Err()
	}
	return newTrialResult(i, seed, res), nil
}

// streamWorkers resolves the worker count for a stream, honouring the
// recorder restriction (a recorder observes a single event stream).
func (e *Engine) streamWorkers() (int, error) {
	if e.cfg.recorder != nil {
		if e.cfg.workers > 1 {
			return 0, fmt.Errorf("dining: WithRecorder requires WithWorkers(1), got %d", e.cfg.workers)
		}
		return 1, nil
	}
	return e.cfg.workers, nil
}

// Trials streams n Monte-Carlo trials, yielding each TrialResult as its
// worker finishes — completion order, not index order. Each trial's seed
// depends only on its index, so the result yielded for a given index is
// bit-identical whatever the worker count; aggregate in index order (or use
// Repeat) to reproduce a sequential run exactly. The stream stops at the
// first trial error or context cancellation, yielding that error last.
func (e *Engine) Trials(ctx context.Context, n int) iter.Seq2[TrialResult, error] {
	ctx = orBackground(ctx)
	if n <= 0 {
		n = 1 // mirror Repeat: the degenerate request still runs one trial
	}
	return func(yield func(TrialResult, error) bool) {
		workers, err := e.streamWorkers()
		if err != nil {
			yield(TrialResult{}, err)
			return
		}
		for s := range par.Stream(ctx, workers, n, func(i int) (TrialResult, error) {
			return e.runTrial(ctx, i)
		}) {
			if s.Err != nil {
				yield(TrialResult{Trial: s.Index, Seed: e.trialSeed(s.Index)}, s.Err)
				return
			}
			if !yield(s.Value, nil) {
				return
			}
		}
	}
}

// Repeat runs n trials and returns the full results in trial-index order —
// the blocking, aggregate-friendly counterpart of Trials, bit-identical to a
// sequential run for any worker count.
func (e *Engine) Repeat(ctx context.Context, n int) ([]*SimResult, error) {
	ctx = orBackground(ctx)
	if n <= 0 {
		n = 1
	}
	workers, err := e.streamWorkers()
	if err != nil {
		return nil, err
	}
	results := make([]*SimResult, n)
	for s := range par.Stream(ctx, workers, n, func(i int) (TrialResult, error) {
		return e.runTrial(ctx, i)
	}) {
		if s.Err != nil {
			return nil, s.Err
		}
		results[s.Index] = s.Value.Result
	}
	return results, nil
}

// ModelCheck exhaustively explores the system's state space (small instances
// only) and returns the legacy aggregate analysis report. The scheduler
// configuration is irrelevant here: the model checker quantifies over all
// schedulers. Cancelling ctx aborts the exploration. New code should prefer
// Check, which runs the same analyses as selectable properties, streams
// per-property verdicts and attaches replayable counterexample traces to
// failures; see the v2→v3 migration table in CHANGES.md.
func (e *Engine) ModelCheck(ctx context.Context) (*CheckReport, error) {
	ctx = orBackground(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prog, err := e.program()
	if err != nil {
		return nil, err
	}
	return checkWithContext(ctx, e.topo, prog, e.cfg.maxStates, e.cfg.protected, e.cfg.workers, e.cfg.shards)
}

// RunConcurrent executes the system on the goroutine runtime for the given
// duration (or until every philosopher has eaten targetMeals times).
func (e *Engine) RunConcurrent(ctx context.Context, duration time.Duration, targetMeals int64) (*ConcurrentMetrics, error) {
	sys := e.system(e.cfg.seed)
	return sys.RunConcurrent(orBackground(ctx), duration, targetMeals)
}

// checkWithContext runs the model checker with ctx cancellation wired into
// the exploration loop.
func checkWithContext(ctx context.Context, topo *graph.Topology, prog sim.Program, maxStates int, protected []graph.PhilID, workers, shards int) (*CheckReport, error) {
	opts := modelcheck.Options{MaxStates: maxStates, Protected: protected, Workers: workers, Shards: shards}
	if ctx.Done() != nil {
		opts.Interrupt = ctx.Err
	}
	return modelcheck.Check(topo, prog, opts)
}
