package fault

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/sim"
)

func init() {
	Register("delayed-grants", newDelayedGrants)
}

// delayedDeliverProb is the probability that a scheduled stalled philosopher's
// in-flight grant arrives this step while its remaining-delay counter is still
// positive; at counter zero delivery is forced. Fixed rather than configured:
// the adversarially relevant parameters are the injection rate and the delay
// bound, which the spec carries.
const delayedDeliverProb = 0.5

// delayedModel is the delayed-grants fault model: with the injection rate, a
// fork-acquiring outcome of a scheduled hungry philosopher is replaced by "the
// grant enters flight with a remaining-delay counter of at most k". The fork
// is reserved for its holder-to-be (everyone else finds it busy) and the
// philosopher stalls: its scheduled steps offer only delivery/decrement
// branches until the grant arrives, after which its next step re-executes the
// take. Unlike the crash and lossy families the perturbation is not
// expressible in per-philosopher flags — it lives in the world's per-slot
// pending-grant array, which the key encoding and the orbit canonicalizer
// carry (see sim.World.GrantInFlight).
type delayedModel struct {
	rates []float64 // resolved parameters, Spec order: rate, delay bound
	rate  float64   // injection probability per fork-acquiring outcome
	delay uint8     // initial remaining-delay counter k
	phils []graph.PhilID
}

// newDelayedGrants validates and resolves a Config. The second parameter is
// not a probability but the integer delay bound k, so the model checks its
// parameters itself instead of going through checkRates.
func newDelayedGrants(cfg Config) (Model, error) {
	cfg = normalize(cfg)
	if len(cfg.Rates) > 2 {
		return nil, fmt.Errorf("fault: delayed-grants takes at most 2 parameters (rate, delay bound), got %d", len(cfg.Rates))
	}
	rates := []float64{0.1, 2}
	copy(rates, cfg.Rates)
	if r := rates[0]; !(r >= 0 && r <= 1) { // also rejects NaN
		return nil, fmt.Errorf("fault: delayed-grants rate is %v, want a probability in [0, 1]", r)
	}
	k := rates[1]
	if k != float64(int(k)) || k < 0 || k > sim.MaxGrantDelay {
		return nil, fmt.Errorf("fault: delayed-grants delay bound is %v, want an integer in [0, %d]", k, sim.MaxGrantDelay)
	}
	if err := checkPhils("delayed-grants", cfg.Phils); err != nil {
		return nil, err
	}
	return &delayedModel{rates: rates, rate: rates[0], delay: uint8(k), phils: cfg.Phils}, nil
}

// Name implements Model.
func (m *delayedModel) Name() string { return "delayed-grants" }

// Spec implements Model.
func (m *delayedModel) Spec() string { return formatSpec("delayed-grants", m.rates, m.phils) }

// Validate implements Model.
func (m *delayedModel) Validate(topo *graph.Topology) error {
	return validateTopo("delayed-grants", m.phils, topo)
}

// Wrap implements Model.
func (m *delayedModel) Wrap(topo *graph.Topology, prog sim.Program) sim.Program {
	dp := &delayedProgram{base: prog, model: m}
	if len(m.phils) > 0 {
		dp.target = make([]bool, topo.NumPhilosophers())
		for _, p := range m.phils {
			dp.target[p] = true
		}
	}
	return dp
}

// Labels of the delay branches. Injection and decrement share one label —
// both are the grant being delayed in flight — so counterexample traces use
// exactly the delayed/delivered pair.
const (
	labelGrantDelayed   = LabelPrefix + "grant delayed"
	labelGrantDelivered = LabelPrefix + "grant delivered"
)

func applyGrantInFlight(w *sim.World, p graph.PhilID, arg int64) {
	w.GrantInFlight(p, graph.ForkID(arg>>8), uint8(arg&0xff))
}
func applyDelayGrant(w *sim.World, p graph.PhilID, arg int64) {
	w.DelayGrant(p, graph.ForkID(arg))
}
func applyDeliverGrant(w *sim.World, p graph.PhilID, arg int64) {
	w.DeliverGrant(p, graph.ForkID(arg))
}

// delayedProbe is the pooled scratch of the acquisition probe: one recycled
// protocol clone and one outcome buffer, so probing steps allocates nothing
// in steady state.
type delayedProbe struct {
	w   *sim.World
	buf []sim.Outcome
}

var delayedProbePool = sync.Pool{New: func() any { return new(delayedProbe) }}

// delayedProgram is the perturbed transition system of the delayed-grants
// model. Immutable after Wrap, safe to share across exploration workers.
type delayedProgram struct {
	base   sim.Program
	model  *delayedModel
	target []bool // nil = every philosopher targeted
}

// Name implements sim.Program (see program.Name).
func (dp *delayedProgram) Name() string { return dp.base.Name() }

// FaultSpec returns the canonical spec of the injected model (see
// program.FaultSpec).
func (dp *delayedProgram) FaultSpec() string { return dp.model.Spec() }

// Base returns the unwrapped algorithm program.
func (dp *delayedProgram) Base() sim.Program { return dp.base }

// Init implements sim.Program. With a positive rate the world's pending-grant
// array is materialized up front, so exploration and simulation steps never
// allocate it mid-run; at rate zero the world is left exactly as the base
// program's, keeping the zero-rate engine byte- and allocation-identical to a
// fault-free one.
func (dp *delayedProgram) Init(w *sim.World) {
	dp.base.Init(w)
	if dp.model.rate > 0 {
		w.EnsurePending()
	}
}

// Symmetric implements sim.Program (see program.Symmetric): the untargeted
// model perturbs every philosopher identically and the pending-grant array is
// permuted by the orbit canonicalizer, so symmetry reduces to the base's.
func (dp *delayedProgram) Symmetric() bool { return dp.base.Symmetric() && dp.target == nil }

// SideSymmetric implements sim.SideSymmetricProgram by forwarding to the base
// algorithm: the flight, delay and delivery branches never mention a side.
func (dp *delayedProgram) SideSymmetric() bool {
	sp, ok := dp.base.(sim.SideSymmetricProgram)
	return ok && sp.SideSymmetric()
}

// Outcomes implements sim.Program. A stalled philosopher (one with a grant in
// flight) gets only the delivery/decrement branches. A live targeted hungry
// philosopher gets the base outcome set with every fork-acquiring outcome
// scaled by (1 - rate) plus an appended flight branch of the complementary
// probability; acquiring outcomes are identified by a probe that applies each
// base outcome to a pooled protocol clone and checks that its whole effect on
// the fork holders is exactly one free adjacent fork becoming held by the
// philosopher. Everything goes through the caller's reused buffer and the
// pooled probe, so the steady-state step loop stays allocation-free.
func (dp *delayedProgram) Outcomes(w *sim.World, p graph.PhilID, buf []sim.Outcome) []sim.Outcome {
	if f, delay, ok := w.PendingGrant(p); ok {
		if delay == 0 {
			return append(buf, sim.Outcome{Prob: 1, Label: labelGrantDelivered, Arg: int64(f), Apply: applyDeliverGrant})
		}
		return append(buf,
			sim.Outcome{Prob: delayedDeliverProb, Label: labelGrantDelivered, Arg: int64(f), Apply: applyDeliverGrant},
			sim.Outcome{Prob: 1 - delayedDeliverProb, Label: labelGrantDelayed, Arg: int64(f), Apply: applyDelayGrant})
	}
	if dp.model.rate <= 0 || (dp.target != nil && !dp.target[p]) || w.PhaseOf(p) != sim.Hungry {
		return dp.base.Outcomes(w, p, buf)
	}
	start := len(buf)
	buf = dp.base.Outcomes(w, p, buf)
	end := len(buf)
	pr := delayedProbePool.Get().(*delayedProbe)
	scratch, obuf := pr.w, pr.buf
	for i := start; i < end; i++ {
		scratch = w.CloneProtocolInto(scratch)
		obuf = dp.base.Outcomes(scratch, p, obuf[:0])
		obuf[i-start].Do(scratch, p)
		f, ok := acquiredFork(w, scratch, p)
		if !ok {
			continue
		}
		flight := sim.Outcome{
			Prob:  dp.model.rate * buf[i].Prob,
			Label: labelGrantDelayed,
			Arg:   int64(f)<<8 | int64(dp.model.delay),
			Apply: applyGrantInFlight,
		}
		buf[i].Prob *= 1 - dp.model.rate
		buf = append(buf, flight)
	}
	pr.w, pr.buf = scratch, obuf
	delayedProbePool.Put(pr)
	if dp.model.rate >= 1 {
		// Fully replaced acquiring outcomes scaled to probability zero, which
		// ValidateOutcomes rightly rejects; drop them.
		out := buf[:start]
		for _, o := range buf[start:] {
			if o.Prob > 0 {
				out = append(out, o)
			}
		}
		buf = out
	}
	return buf
}

// acquiredFork reports whether applying an outcome turned world w into s by —
// as far as the fork holders are concerned — exactly one free fork becoming
// held by philosopher p, returning that fork. Outcomes releasing forks or
// acquiring more than one are not plain takes and are never put in flight.
func acquiredFork(w, s *sim.World, p graph.PhilID) (graph.ForkID, bool) {
	acquired := graph.NoFork
	count := 0
	for f := range w.Forks {
		before, after := w.Forks[f].Holder, s.Forks[f].Holder
		if before == after {
			continue
		}
		if before != graph.NoPhil || after != p {
			return graph.NoFork, false
		}
		acquired = graph.ForkID(f)
		count++
	}
	return acquired, count == 1
}
