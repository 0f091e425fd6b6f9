// Package fault implements fault injection for generalized
// dining-philosopher systems: named, parameterized models that perturb the
// transition system itself. A Model wraps a philosopher program (sim.Program)
// and rewrites each scheduled philosopher's outcome set — appending a
// crash branch, a rejoin branch or a lost-grant self-loop and rescaling the
// base outcomes — so that the Monte-Carlo simulator and the exhaustive model
// checker see the *same* perturbed MDP through the one Program interface.
//
// The wrapper honours every Program contract the engines rely on: outcome
// sets are a pure function of the protocol state and the model's fixed
// parameters (equal protocol states produce identical outcome sets),
// probabilities still sum to 1, Apply functions are static with the variable
// part in Arg, and fault outcomes are appended into the caller's reused
// buffer, so the 0-alloc steady state of the step engine is preserved.
//
// Fault state is protocol state: a crashed philosopher carries the
// PhilState.Crashed flag, which sim.World.AppendKey encodes (bit 4 of the
// per-philosopher flags byte), and an in-flight fork grant lives in the
// world's per-slot pending-grant array, encoded as a key suffix — so faulty
// states stay canonically keyed and deduplicate correctly in the sharded
// store. Neither is ever populated without a fault model, which keeps the
// nil-fault key encoding byte-identical.
//
// Four models are built in:
//
//   - crash-rejoin (rates: crash, rejoin): a scheduled philosopher crashes
//     with the crash probability — dropping held forks, withdrawing requests,
//     losing volatile local state — and a scheduled crashed philosopher
//     rejoins the thinking section with the rejoin probability.
//   - freeze (rate: crash): a permanent crash, modelling guests leaving the
//     table; a frozen philosopher self-loops forever.
//   - lossy-grants (rate: loss): a scheduled hungry philosopher's step
//     no-ops with the loss probability — the fork grant was lost in flight —
//     leaving the protocol state untouched.
//   - delayed-grants (parameters: rate, delay bound k): with the injection
//     rate a fork-acquiring outcome is replaced by "the grant enters flight
//     with remaining-delay counter k". The fork is reserved for its
//     holder-to-be (everyone else finds it busy) and the philosopher stalls:
//     each of its scheduled steps offers a delivery branch and, while the
//     counter is positive, a decrement branch. Delivery releases the
//     reservation and the philosopher's next step re-executes the take. The
//     in-flight state enlarges the reachable state space — the first model
//     whose effects per-philosopher flags cannot express.
//
// Models register by name in an open registry with the same contract as the
// algorithm, scheduler, topology and property registries (panic on empty or
// duplicate registration, sorted names, one-line unknown-name errors); the
// public face is dining.RegisterFault / Faults / LookupFault and the engine
// option dining.WithFaults.
package fault

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/sim"
)

// Config parameterizes a fault model instance.
type Config struct {
	// Rates are the model's probabilities in model-defined order (see the
	// package comment); missing rates take the model's documented defaults.
	// Every rate must lie in [0, 1].
	Rates []float64
	// Phils restricts the faults to the given philosophers (empty = all).
	// Crash and loss branches are only injected for targeted philosophers.
	Phils []graph.PhilID
}

// Model is one configured fault model: a named, parameterized transformer of
// the transition system. Models are immutable after construction and safe
// for concurrent use; Wrap may be called any number of times.
type Model interface {
	// Name returns the registered model name ("crash-rejoin").
	Name() string
	// Spec returns the canonical parseable description of the instance —
	// "crash-rejoin:0.05,0.5" or "freeze:0.1@0,2" — with defaults resolved.
	// ParseSpec(Spec()) round-trips, and traces record it for replay
	// verification.
	Spec() string
	// Validate checks the instance against a topology (target philosopher
	// ids must be in range). Constructors validate rates; Validate is the
	// topology-dependent half, called eagerly by dining.New.
	Validate(topo *graph.Topology) error
	// Wrap returns the program presenting the perturbed MDP of prog on topo.
	// The wrapped program keeps prog's Name, so traces and reports stay
	// attributed to the algorithm; the fault instance travels separately via
	// the FaultSpec method (see trace.Build).
	Wrap(topo *graph.Topology, prog sim.Program) sim.Program
}

// Ctor constructs a model instance from a Config, validating the rates (a
// negative or >1 rate, too many rates, or malformed targets are construction
// errors — faults must fail at configuration time, not mid-run).
type Ctor func(cfg Config) (Model, error)

// models is the open fault-model registry.
var models = registry.New[Ctor]("fault", "fault model")

// Register registers a named fault-model constructor. Like the other
// registries it panics on an empty name, a nil constructor or a duplicate
// name — registration is init-time wiring.
func Register(name string, ctor Ctor) { models.Register(name, ctor) }

// Names returns every registered fault-model name in sorted order.
func Names() []string { return models.Names() }

// Lookup returns the named registered constructor. Unknown names produce a
// one-line error listing the registered options.
func Lookup(name string) (Ctor, error) { return models.Lookup(name) }

// New constructs the named registered model with the given configuration.
func New(name string, cfg Config) (Model, error) {
	ctor, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	m, err := ctor(normalize(cfg))
	if err != nil {
		return nil, err
	}
	return m, nil
}

// NewFromSpec parses a spec string (see ParseSpec) and constructs the model.
func NewFromSpec(spec string) (Model, error) {
	name, cfg, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return New(name, cfg)
}

// normalize copies and canonicalizes a Config: targets are sorted so that
// equal instances produce equal specs.
func normalize(cfg Config) Config {
	out := Config{
		Rates: append([]float64(nil), cfg.Rates...),
		Phils: append([]graph.PhilID(nil), cfg.Phils...),
	}
	slices.Sort(out.Phils)
	return out
}

// ParseSpec parses the fault-spec grammar shared by the -faults CLI flag,
// the sweep fault axis and Model.Spec:
//
//	name[:rate1,rate2,...][@phil1,phil2,...]
//
// For example "crash-rejoin", "freeze:0.1" or "lossy-grants:0.25@0,2". It
// validates only the syntax; rate ranges are checked by the model
// constructor and target ranges by Model.Validate.
func ParseSpec(spec string) (name string, cfg Config, err error) {
	name = strings.TrimSpace(spec)
	if at := strings.IndexByte(name, '@'); at >= 0 {
		for _, part := range strings.Split(name[at+1:], ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return "", Config{}, fmt.Errorf("fault: spec %q: bad philosopher id %q", spec, part)
			}
			cfg.Phils = append(cfg.Phils, graph.PhilID(id))
		}
		name = name[:at]
	}
	if colon := strings.IndexByte(name, ':'); colon >= 0 {
		for _, part := range strings.Split(name[colon+1:], ",") {
			rate, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return "", Config{}, fmt.Errorf("fault: spec %q: bad rate %q", spec, part)
			}
			cfg.Rates = append(cfg.Rates, rate)
		}
		name = name[:colon]
	}
	if name == "" {
		return "", Config{}, fmt.Errorf("fault: spec %q has no model name", spec)
	}
	return name, cfg, nil
}

// formatSpec renders the canonical spec of an instance.
func formatSpec(name string, rates []float64, phils []graph.PhilID) string {
	var b strings.Builder
	b.WriteString(name)
	for i, r := range rates {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(r, 'g', -1, 64))
	}
	for i, p := range phils {
		if i == 0 {
			b.WriteByte('@')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(p)))
	}
	return b.String()
}

// checkRates validates the rate list of a model taking want parameters with
// the given defaults: extra rates and out-of-range values are errors, and
// missing rates are filled from defaults. It returns the resolved rates.
func checkRates(name string, rates, defaults []float64) ([]float64, error) {
	if len(rates) > len(defaults) {
		return nil, fmt.Errorf("fault: %s takes at most %d rate(s), got %d", name, len(defaults), len(rates))
	}
	out := append([]float64(nil), defaults...)
	for i, r := range rates {
		if !(r >= 0 && r <= 1) { // also rejects NaN
			return nil, fmt.Errorf("fault: %s rate %d is %v, want a probability in [0, 1]", name, i, r)
		}
		out[i] = r
	}
	return out, nil
}

// checkPhils validates a target list: negative ids are always invalid, and
// duplicates are configuration bugs (phils is sorted by normalize).
func checkPhils(name string, phils []graph.PhilID) error {
	for i, p := range phils {
		if p < 0 {
			return fmt.Errorf("fault: %s targets negative philosopher id %d", name, p)
		}
		if i > 0 && phils[i-1] == p {
			return fmt.Errorf("fault: %s targets philosopher %d twice", name, p)
		}
	}
	return nil
}

// validateTopo is the shared topology-dependent check: every target id must
// name a philosopher of the topology.
func validateTopo(name string, phils []graph.PhilID, topo *graph.Topology) error {
	if topo == nil {
		return fmt.Errorf("fault: %s: Validate requires a topology", name)
	}
	n := topo.NumPhilosophers()
	for _, p := range phils {
		if int(p) >= n {
			return fmt.Errorf("fault: %s targets unknown philosopher %d (topology %s has %d)", name, p, topo.Name(), n)
		}
	}
	return nil
}
