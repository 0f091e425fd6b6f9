// Command perfbench is the repository's benchmark: it runs one workload of
// the dining-philosophers checker in a closed loop for a fixed time, checks
// every op's output, and prints the end-to-end metrics, or with -trace 1 the
// per-layer metrics, as the last line of standard output:
//
//	bash perfbench/run.sh --workload check-cold --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metrics and what
// each per-layer metric is expected to move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// instance is one set-up workload, ready to run ops.
type instance interface {
	clients() int
	// op runs op i on client c; tr is non-nil when the op is traced.
	op(ctx context.Context, c int, i int64, tr *tracer) (time.Duration, error)
	// finish runs the checks that follow the measuring window and returns
	// the number of ops they found wrong.
	finish(ctx context.Context) (failed int64, err error)
	// layers fills the workload's per-layer metrics; self holds the median
	// per-op self time of each span name, in ns.
	layers(m, self map[string]float64)
	close()
}

type setupFunc func(ctx context.Context, seed uint64, tr *tracer) (instance, error)

// workloads maps each workload to its set-up and to whether its op explores
// level by level, which selects the probe's lockstep half (probe.go).
var workloads = map[string]struct {
	setup    setupFunc
	lockstep bool
}{
	"check-cold":      {setupCheckCold, true},
	"serve-mix":       {setupServeMix, false},
	"trials-section3": {setupTrials, false},
}

// Set-up runs at least setupMinRounds times and until setupMinTime has
// passed, but at most setupMaxRounds times; setup_s is the median round. A
// cheap set-up so runs more often, which steadies its median against short
// swings in machine speed.
const (
	setupMinRounds = 7
	setupMaxRounds = 61
	setupMinTime   = 4 * time.Second
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json at the repository root.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_bytes_per_op", "B"},
}

var perLayer = []metricDef{
	{"modelcheck.explore_ms", "ms"},
	{"modelcheck.explore_cpu_ms", "ms"},
	{"modelcheck.explore_allocs_per_state", "allocs/state"},
	{"modelcheck.explore_bytes_per_state", "B/state"},
	{"modelcheck.retained_bytes_per_state", "B/state"},
	{"modelcheck.states", "count"},
	{"modelcheck.transitions", "count"},
	{"graphalg.index_ms", "ms"},
	{"graphalg.deadlock_ms", "ms"},
	{"graphalg.dead_region_ms", "ms"},
	{"graphalg.starvation_trap_ms", "ms"},
	{"graphalg.lockout_ms", "ms"},
	{"graphalg.analysis_allocs", "allocs/op"},
	{"trace.lift_ms", "ms"},
	{"trace.replay_ms", "ms"},
	{"trace.steps", "count"},
	{"dining.new_us", "us"},
	{"dining.fingerprint_us", "us"},
	{"serve.handler_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.first_line_ms", "ms"},
	{"serve.response_bytes", "B"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.explorations", "count"},
	{"sched.advise_ns_per_step", "ns/step"},
	{"sim.outcomes_ns_per_step", "ns/step"},
	{"sim.steps_per_trial", "count"},
	{"sim.meals_per_trial", "count"},
	{"sim.starved_trial_ratio", "ratio"},
	{"par.cpu_utilisation", "ratio"},
	{"op.self_ms", "ms"},
	{"tracing.overhead_p50_ms", "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: check-cold, serve-mix or trials-section3")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "length of the measuring window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		out      = flag.String("out", ".bench_build", "directory for the span files of traced runs")
	)
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {check-cold|serve-mix|trials-section3}, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	traced := *trace == 1
	ctx := context.Background()

	fmt.Printf("# env go=%s nproc=%d gomaxprocs=%d cpu=%q\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel())
	fmt.Printf("# run workload=%s seed=%d seconds=%d trace=%d engine_workers=0 (one per CPU: %d)\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	pr := newProbe(runtime.GOMAXPROCS(0), wl.lockstep)
	var inst instance
	var setups, setupsRef []float64
	for began := time.Now(); len(setups) < setupMinRounds ||
		(len(setups) < setupMaxRounds && time.Since(began) < setupMinTime); {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		before := pr.run()
		start := time.Now()
		var err error
		inst, err = wl.setup(ctx, *seed, tr)
		took := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", *workload, err)
			return 1
		}
		setups = append(setups, took.Seconds())
		setupsRef = append(setupsRef, scale(took, speedFactor((before.wall+pr.run().wall)/2)).Seconds())
	}
	runtime.GC()

	st := closedLoop(inst.clients(), time.Duration(*seconds)*time.Second, traced,
		func(c int, i int64, isTraced bool) (time.Duration, error) {
			var t *tracer
			if isTraced {
				t = tr
			}
			return inst.op(ctx, c, i, t)
		}, pr)
	extra, err := inst.finish(ctx)
	inst.close()
	if err != nil && st.firstErr == nil {
		st.firstErr = err
	}
	res := result{Attempted: st.attempted, Failed: st.failed + extra, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0 && st.attempted > 0
	if st.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", st.firstErr)
	}
	fmt.Printf("# ops attempted=%d failed=%d failed_ratio=%g wall_s=%.3f cpu_steal=%.1f%%\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), st.wall.Seconds(),
		100*st.stealShare)

	values := map[string]float64{}
	defs := endToEnd
	if traced {
		defs = perLayer
		if err := layerMetrics(values, inst, tr, st, *out, *workload, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	} else {
		endToEndMetrics(values, inst, st, setups, setupsRef)
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		delete(values, d.name)
	}
	if len(values) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: metrics missing from the definitions: %v\n", values)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// endToEndMetrics fills the end-to-end metrics, every time at the reference
// speed of probe.go, and prints the same figures as measured.
func endToEndMetrics(m map[string]float64, inst instance, st loopStats, setups, setupsRef []float64) {
	lats, raw := sortedCopy(st.plainRef), sortedCopy(st.plain)
	p, beyond := tailPercentile(len(lats))
	ops := float64(st.attempted)
	m["setup_s"] = median(setupsRef)
	m["ops_per_s"] = ops / st.wallRef.Seconds()
	m["latency_p50_ms"] = ms(percentile(lats, 50))
	m["latency_tail_ms"] = ms(percentile(lats, p))
	m["cpu_ms_per_op"] = ms(st.cpuRef) / ops
	m["alloc_bytes_per_op"] = float64(st.allocBytes) / ops
	fmt.Printf("# latency_tail_ms is p%g over %d samples (%d beyond it); set-up rounds %v s\n",
		p, len(lats), beyond, setups)
	fmt.Printf("# as measured: setup_s=%.4f ops_per_s=%.3f latency_p50_ms=%.3f latency_tail_ms=%.3f cpu_ms_per_op=%.3f\n",
		median(setups), ops/st.wall.Seconds(), ms(percentile(raw, 50)), ms(percentile(raw, p)), ms(st.cpu)/ops)
	walls := make([]float64, len(st.probes))
	for k, t := range st.probes {
		walls[k] = ms(t.wall)
	}
	fmt.Printf("# probe: %d runs, wall median %.3f ms, min %.3f, max %.3f (reference %.3f ms)\n",
		len(walls), median(walls), slices.Min(walls), slices.Max(walls), ms(refProbe))
	if r, ok := inst.(interface{ report(loopStats) }); ok {
		r.report(st)
	}
}

func layerMetrics(m map[string]float64, inst instance, tr *tracer, st loopStats, out, workload string, seed uint64) error {
	self := layerMedians(tr.selfTimes(), st.tracedOps)
	inst.layers(m, self)
	m["op.self_ms"] = self["op"] / 1e6
	m["par.cpu_utilisation"] = st.cpu.Seconds() / (st.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	traced, plain := sortedCopy(st.traced), sortedCopy(st.plain)
	m["tracing.overhead_p50_ms"] = ms(percentile(traced, 50)) - ms(percentile(plain, 50))
	fmt.Printf("# traced ops=%d untraced ops=%d: p50 %.3f ms traced, %.3f ms untraced\n",
		len(traced), len(plain), ms(percentile(traced, 50)), ms(percentile(plain, 50)))
	path, err := tr.write(filepath.Join(out, "spans"), fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, path); err == nil {
			path = rel
		}
	}
	fmt.Printf("# spans written to %s\n", path)
	return nil
}

// cpuModel returns the CPU model name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
