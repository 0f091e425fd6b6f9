package dining_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/dining"
	"repro/internal/prng"
	"repro/internal/sim"
)

// A registered algorithm or scheduler runs inside the worker goroutines of
// the exploration and of the trial streams. The tests below register ones
// that panic and check that each panic comes back as an error naming where
// it happened, the same at one worker and at two.

// panickingProgram is LR1 whose Outcomes panics in every state in which
// philosopher 0 eats — several BFS levels deep, so the panic happens on a
// worker goroutine when the exploration has more than one.
type panickingProgram struct{ dining.Program }

func (p panickingProgram) Outcomes(w *sim.World, id dining.PhilID, buf []sim.Outcome) []sim.Outcome {
	if w.IsEating(0) {
		panic("philosopher 0 eats")
	}
	return p.Program.Outcomes(w, id, buf)
}

func TestCheckRecoversPanickingAlgorithm(t *testing.T) {
	t.Parallel()
	if !slices.Contains(dining.Algorithms(), "test-panicking-algo") {
		dining.RegisterAlgorithm("test-panicking-algo", func(o dining.AlgorithmOptions) dining.Program {
			p, err := dining.NewAlgorithm(dining.LR1, o)
			if err != nil {
				panic(err)
			}
			return panickingProgram{p}
		})
	}
	var errs []string
	for _, workers := range []int{1, 2} {
		eng, err := dining.New(dining.Ring(3), "test-panicking-algo", dining.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.CheckAll(context.Background())
		if err == nil {
			t.Fatalf("workers=%d: Check of a panicking algorithm succeeded", workers)
		}
		errs = append(errs, err.Error())
	}
	if !strings.HasPrefix(errs[0], "modelcheck: expand phase, state ") || !strings.HasSuffix(errs[0], " panicked: philosopher 0 eats") {
		t.Errorf("error %q does not name the phase, the state and the panic", errs[0])
	}
	if errs[0] != errs[1] {
		t.Errorf("the error depends on the worker count:\nworkers=1: %s\nworkers=2: %s", errs[0], errs[1])
	}
}

// panickingScheduler is a round-robin scheduler whose Next panics.
type panickingScheduler struct{ dining.Scheduler }

func (panickingScheduler) Next(*sim.World) dining.PhilID { panic("scheduler broke") }

func TestTrialsRecoversPanickingScheduler(t *testing.T) {
	t.Parallel()
	const seed, victim uint64 = 5, 2
	// Only trial victim's scheduler panics: its stream is the first split of
	// the trial seed, so its first draw identifies it.
	stride := uint64(0x9e3779b97f4a7c15)
	victimDraw := prng.New(seed + victim*stride).Split().Uint64()
	name := "test-panicking-sched"
	if !slices.Contains(dining.Schedulers(), name) {
		dining.RegisterScheduler(name, func(cfg dining.SchedulerConfig) dining.Scheduler {
			rr, err := dining.NewScheduler(dining.RoundRobin, cfg)
			if err != nil {
				panic(err)
			}
			if cfg.RNG.Uint64() == victimDraw {
				return panickingScheduler{rr}
			}
			return rr
		})
	}
	const want = "par: trial 2 panicked: scheduler broke"
	for _, workers := range []int{1, 2} {
		eng, err := dining.New(dining.Ring(4), dining.GDP1, dining.WithScheduler(name),
			dining.WithSeed(seed), dining.WithWorkers(workers), dining.WithMaxSteps(1_000))
		if err != nil {
			t.Fatal(err)
		}
		var got error
		for _, err := range eng.Trials(context.Background(), 4) {
			if err != nil {
				got = err
			}
		}
		if got == nil || got.Error() != want {
			t.Errorf("workers=%d: Trials error %v, want %q", workers, got, want)
		}
	}
}
