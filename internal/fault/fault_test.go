package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/sim"
)

func TestNames(t *testing.T) {
	want := []string{"crash-rejoin", "delayed-grants", "freeze", "lossy-grants"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestLookupUnknown(t *testing.T) {
	_, err := Lookup("meteor")
	if err == nil {
		t.Fatal("Lookup(meteor) succeeded")
	}
	want := `fault: unknown fault model "meteor" (registered: crash-rejoin, delayed-grants, freeze, lossy-grants)`
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

// roundTripSpecs are accepted specs with their canonical Spec(), defaults
// resolved.
var roundTripSpecs = []struct {
	spec string // input
	want string // canonical Spec() with defaults resolved
}{
	{"crash-rejoin", "crash-rejoin:0.05,0.5"},
	{"crash-rejoin:0.1", "crash-rejoin:0.1,0.5"},
	{"crash-rejoin:0.1,0.25", "crash-rejoin:0.1,0.25"},
	{"freeze", "freeze:0.05"},
	{"freeze:0.2@2,0", "freeze:0.2@0,2"},
	{"lossy-grants:0.25@1", "lossy-grants:0.25@1"},
	{" lossy-grants ", "lossy-grants:0.1"},
	{"delayed-grants", "delayed-grants:0.1,2"},
	{"delayed-grants:0.25", "delayed-grants:0.25,2"},
	{"delayed-grants:0.25,3@2,0", "delayed-grants:0.25,3@0,2"},
}

// rejectedSpecs are syntactically malformed specs.
var rejectedSpecs = []string{"", ":0.1", "@1", "freeze:nope", "freeze@x", "freeze:0.1@1.5"}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, tc := range roundTripSpecs {
		m, err := NewFromSpec(tc.spec)
		if err != nil {
			t.Errorf("NewFromSpec(%q): %v", tc.spec, err)
			continue
		}
		if got := m.Spec(); got != tc.want {
			t.Errorf("NewFromSpec(%q).Spec() = %q, want %q", tc.spec, got, tc.want)
			continue
		}
		// The canonical spec must itself round-trip unchanged.
		again, err := NewFromSpec(m.Spec())
		if err != nil {
			t.Errorf("NewFromSpec(%q): %v", m.Spec(), err)
			continue
		}
		if again.Spec() != m.Spec() {
			t.Errorf("round-trip of %q drifted to %q", m.Spec(), again.Spec())
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range rejectedSpecs {
		if _, _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) succeeded", spec)
		}
	}
}

// FuzzParseSpec feeds arbitrary strings to NewFromSpec, the parser behind
// the -faults flag, sweep fault axes and dpserve requests. It must never
// panic; every accepted spec must name a registered model with finite
// parameters, and its canonical Spec() must be accepted again and render to
// the same spec.
func FuzzParseSpec(f *testing.F) {
	for _, tc := range roundTripSpecs {
		f.Add(tc.spec)
	}
	for _, spec := range rejectedSpecs {
		f.Add(spec)
	}
	f.Add("freeze:NaN")
	f.Add("crash-rejoin:1e309,0.5@3")
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := NewFromSpec(spec)
		if err != nil {
			return
		}
		canon := m.Spec()
		name, cfg, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("NewFromSpec(%q) accepted, but its Spec() %q does not parse: %v", spec, canon, err)
		}
		if name != m.Name() {
			t.Fatalf("NewFromSpec(%q).Spec() = %q names %q, want %q", spec, canon, name, m.Name())
		}
		for _, r := range cfg.Rates {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				t.Fatalf("NewFromSpec(%q) accepted the non-finite parameter %v", spec, r)
			}
		}
		again, err := NewFromSpec(canon)
		if err != nil {
			t.Fatalf("NewFromSpec(%q) accepted, but its Spec() %q is rejected: %v", spec, canon, err)
		}
		if again.Spec() != canon {
			t.Fatalf("NewFromSpec(%q).Spec() = %q drifted to %q on the round trip", spec, canon, again.Spec())
		}
	})
}

func TestConstructorValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error
	}{
		{"crash-rejoin", Config{Rates: []float64{-0.1}}, "want a probability"},
		{"crash-rejoin", Config{Rates: []float64{0.1, 1.5}}, "want a probability"},
		{"crash-rejoin", Config{Rates: []float64{0.1, 0.2, 0.3}}, "at most 2 rate(s)"},
		{"freeze", Config{Rates: []float64{0.1, 0.2}}, "at most 1 rate(s)"},
		{"freeze", Config{Phils: []graph.PhilID{-1}}, "negative philosopher"},
		{"lossy-grants", Config{Phils: []graph.PhilID{2, 1, 2}}, "philosopher 2 twice"},
		{"delayed-grants", Config{Rates: []float64{1.5}}, "want a probability"},
		{"delayed-grants", Config{Rates: []float64{0.1, 2.5}}, "want an integer"},
		{"delayed-grants", Config{Rates: []float64{0.1, 64}}, "want an integer"},
		{"delayed-grants", Config{Rates: []float64{0.1, 2, 3}}, "at most 2 parameters"},
	}
	for _, tc := range cases {
		_, err := New(tc.name, tc.cfg)
		if err == nil {
			t.Errorf("New(%q, %+v) succeeded", tc.name, tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(%q, %+v) error = %q, want substring %q", tc.name, tc.cfg, err, tc.want)
		}
	}
}

func TestValidateTargetsAgainstTopology(t *testing.T) {
	m, err := New("freeze", Config{Phils: []graph.PhilID{4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(graph.Ring(5)); err != nil {
		t.Errorf("Validate(Ring(5)): %v", err)
	}
	if err := m.Validate(graph.Ring(4)); err == nil {
		t.Error("Validate(Ring(4)) accepted target philosopher 4")
	} else if !strings.Contains(err.Error(), "unknown philosopher 4") {
		t.Errorf("Validate(Ring(4)) error = %q", err)
	}
}

// wrap builds the given model around LR1 on a ring.
func wrap(t *testing.T, spec string, n int) (*graph.Topology, sim.Program) {
	t.Helper()
	topo := graph.Ring(n)
	base, err := algo.New("LR1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(topo); err != nil {
		t.Fatal(err)
	}
	return topo, m.Wrap(topo, base)
}

func TestWrappedOutcomeSets(t *testing.T) {
	topo, prog := wrap(t, "crash-rejoin:0.25,0.5", 3)
	w := sim.NewWorld(topo)
	prog.Init(w)

	// Live philosopher: the base outcome set scaled by 0.75 plus the crash
	// branch.
	outs := prog.Outcomes(w, 0, nil)
	if err := sim.ValidateOutcomes(outs); err != nil {
		t.Fatalf("live outcome set: %v", err)
	}
	last := outs[len(outs)-1]
	if last.Label != labelCrash || last.Prob != 0.25 {
		t.Fatalf("last outcome = %+v, want crash branch with prob 0.25", last)
	}

	// Crashed philosopher: rejoin vs still-crashed only.
	w.Crash(1)
	outs = prog.Outcomes(w, 1, outs[:0])
	if err := sim.ValidateOutcomes(outs); err != nil {
		t.Fatalf("crashed outcome set: %v", err)
	}
	if len(outs) != 2 || outs[0].Label != labelRejoin || outs[1].Label != labelStillCrashed {
		t.Fatalf("crashed outcome set = %+v", outs)
	}
	outs[0].Do(w, 1)
	if w.IsCrashed(1) {
		t.Fatal("rejoin outcome left philosopher crashed")
	}
}

func TestFreezeIsAbsorbing(t *testing.T) {
	topo, prog := wrap(t, "freeze:0.5", 3)
	w := sim.NewWorld(topo)
	prog.Init(w)
	w.Crash(2)
	outs := prog.Outcomes(w, 2, nil)
	if len(outs) != 1 || outs[0].Label != labelStillCrashed || outs[0].Prob != 1 {
		t.Fatalf("frozen outcome set = %+v, want single still-crashed", outs)
	}
}

func TestLossyGrantsOnlyWhenHungry(t *testing.T) {
	topo, prog := wrap(t, "lossy-grants:0.5", 3)
	base := prog.(interface{ Base() sim.Program }).Base()
	w := sim.NewWorld(topo)
	prog.Init(w)

	// Thinking philosopher: untouched base outcomes.
	got := prog.Outcomes(w, 0, nil)
	want := base.Outcomes(w, 0, nil)
	if !outcomesEqual(got, want) {
		t.Fatalf("thinking outcomes perturbed: got %+v, want %+v", got, want)
	}

	// Hungry philosopher: loss branch appended, state unchanged by it.
	w.BecomeHungry(0)
	got = prog.Outcomes(w, 0, got[:0])
	if err := sim.ValidateOutcomes(got); err != nil {
		t.Fatal(err)
	}
	last := got[len(got)-1]
	if last.Label != labelGrantLost || last.Prob != 0.5 {
		t.Fatalf("last outcome = %+v, want grant-lost with prob 0.5", last)
	}
	var before, after []byte
	before = w.AppendKey(before)
	last.Do(w, 0)
	after = w.AppendKey(after)
	if string(before) != string(after) {
		t.Fatal("grant-lost outcome changed the protocol state")
	}
}

func TestUntargetedPhilosophersSeeBaseOutcomes(t *testing.T) {
	topo, prog := wrap(t, "freeze:0.5@1", 3)
	base := prog.(interface{ Base() sim.Program }).Base()
	w := sim.NewWorld(topo)
	prog.Init(w)
	for p := graph.PhilID(0); p < 3; p++ {
		got := prog.Outcomes(w, p, nil)
		want := base.Outcomes(w, p, nil)
		if p == 1 {
			if outcomesEqual(got, want) {
				t.Errorf("targeted P%d saw unperturbed outcomes", p)
			}
			continue
		}
		if !outcomesEqual(got, want) {
			t.Errorf("untargeted P%d: got %+v, want %+v", p, got, want)
		}
	}
	if prog.Symmetric() {
		t.Error("targeted fault model claims symmetry")
	}
}

func TestFaultSpecExposed(t *testing.T) {
	_, prog := wrap(t, "crash-rejoin", 3)
	fs, ok := prog.(interface{ FaultSpec() string })
	if !ok {
		t.Fatal("wrapped program does not expose FaultSpec")
	}
	if got := fs.FaultSpec(); got != "crash-rejoin:0.05,0.5" {
		t.Fatalf("FaultSpec() = %q", got)
	}
	if prog.Name() != "LR1" {
		t.Fatalf("Name() = %q, want base algorithm name LR1", prog.Name())
	}
}

// TestRunUnderFaultsKeepsInvariants runs the step engine with invariant and
// outcome validation on: crashes mid-acquisition must leave the world
// consistent (forks released, requests withdrawn).
func TestRunUnderFaultsKeepsInvariants(t *testing.T) {
	for _, spec := range []string{"crash-rejoin:0.2,0.3", "freeze:0.05", "lossy-grants:0.3", "delayed-grants:0.3,2"} {
		topo, prog := wrap(t, spec, 5)
		sched := sim.SchedulerFunc{
			SchedulerName: "round-robin",
			NextFunc:      func(w *sim.World) graph.PhilID { return graph.PhilID(w.Step % 5) },
		}
		_, err := sim.Run(topo, prog, sched, prng.New(7), sim.RunOptions{
			MaxSteps:         4000,
			CheckInvariants:  true,
			ValidateOutcomes: true,
		})
		if err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
}

func outcomesEqual(a, b []sim.Outcome) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Prob != b[i].Prob || a[i].Label != b[i].Label || a[i].Arg != b[i].Arg {
			return false
		}
	}
	return true
}
