package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// failedLatency stands in for the latency of a failed op: a failure misses
// every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// opFunc runs op i (a global, deterministic index) on client c. It returns
// the op's latency as a user sees it and an error when the op failed or its
// output was wrong. traced tells the op to record spans under op id i.
type opFunc func(c int, i int64, traced bool) (time.Duration, error)

// loopStats is what one closed-loop measuring window observed. The *Ref
// fields hold the same figures brought to the reference speed of probe.go,
// slice by slice.
type loopStats struct {
	plain, traced []time.Duration // latencies of untraced and traced ops
	plainRef      []time.Duration // latencies of untraced ops at the reference speed
	tracedOps     []int64         // ids of the traced ops
	attempted     int64
	failed        int64
	firstErr      error
	wall, wallRef time.Duration // time spent in slices, probes excluded
	cpu, cpuRef   time.Duration // process user+sys CPU over the slices
	allocBytes    uint64        // heap bytes allocated over the slices
	stealShare    float64       // share of the machine's CPU ticks stolen by its host
	probes        []probeTime   // the probe before the first slice and after each
}

// sliceLen is how long the clients run between two probes. A slice is
// brought to the reference speed by the median of the probeWindow probes
// around it, not by the two that bracket it: one probe can land on a
// moment when the host takes a CPU away, which the ops of the slice, spread
// over half a second, mostly miss.
const (
	sliceLen    = 500 * time.Millisecond
	probeWindow = 6
)

// slice is what the clients did between two probes.
type slice struct {
	wall, cpu time.Duration
	lats      []time.Duration // untraced latencies
}

// closedLoop runs clients goroutines, each sending its next op only after the
// previous one returned, until d has passed; ops in flight at the deadline
// complete and count. The window is cut into slices of sliceLen: at the end
// of each the clients finish their ops in flight and pr runs alone. With
// alternate set, even-numbered ops run traced and odd-numbered ones
// untraced, so one run measures the tracing overhead under the same
// conditions.
func closedLoop(clients int, d time.Duration, alternate bool, op opFunc, pr *probe) loopStats {
	var (
		next           atomic.Int64
		st             loopStats
		done           []slice
		steal0, ticks0 = machineTicks()
		deadline       = time.Now().Add(d)
	)
	st.probes = append(st.probes, pr.run())
	for time.Now().Before(deadline) {
		end := time.Now().Add(sliceLen)
		if end.After(deadline) {
			end = deadline
		}
		var (
			mu     sync.Mutex
			wg     sync.WaitGroup
			sl     slice
			cpu0   = processCPU()
			alloc0 = heapAllocBytes()
			start  = time.Now()
		)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(end) {
					i := next.Add(1) - 1
					traced := alternate && i%2 == 0
					lat, err := op(c, i, traced)
					mu.Lock()
					st.attempted++
					if err != nil {
						st.failed++
						if st.firstErr == nil {
							st.firstErr = err
						}
						lat = failedLatency
					}
					if traced {
						st.traced = append(st.traced, lat)
						st.tracedOps = append(st.tracedOps, i)
					} else {
						sl.lats = append(sl.lats, lat)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		// The collector must not run during the probe: the cycle the ops
		// left in progress is finished here, and counted in the slice.
		runtime.GC()
		sl.wall, sl.cpu = time.Since(start), processCPU()-cpu0
		st.allocBytes += heapAllocBytes() - alloc0
		done = append(done, sl)
		st.probes = append(st.probes, pr.run())
	}
	if steal1, ticks1 := machineTicks(); ticks1 > ticks0 {
		st.stealShare = float64(steal1-steal0) / float64(ticks1-ticks0)
	}
	// Slice k lies between probes k and k+1.
	for k, sl := range done {
		lo := max(k+1-probeWindow/2, 0)
		hi := min(lo+probeWindow, len(st.probes))
		lo = max(hi-probeWindow, 0)
		wall, cpu := medianProbe(st.probes[lo:hi])
		f := speedFactor(wall)
		st.wall += sl.wall
		st.wallRef += scale(sl.wall, f)
		st.cpu += sl.cpu
		st.cpuRef += scale(sl.cpu, speedFactor(cpu))
		st.plain = append(st.plain, sl.lats...)
		for _, lat := range sl.lats {
			if lat != failedLatency {
				lat = scale(lat, f)
			}
			st.plainRef = append(st.plainRef, lat)
		}
	}
	sort.Slice(st.tracedOps, func(i, j int) bool { return st.tracedOps[i] < st.tracedOps[j] })
	return st
}

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// processCPU returns the user+sys CPU time the process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// machineTicks returns the machine's stolen and total CPU ticks from the
// first line of /proc/stat, or zeros where it cannot be read. A virtual
// machine whose host runs other guests on its CPUs counts that time as
// stolen; it explains a run that is slow for reasons outside the process.
func machineTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0
	}
	for k, f := range fields[1:] {
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0
		}
		if k < 8 { // guest time is already counted in user time
			total += v
		}
		if k == 7 {
			steal = v
		}
	}
	return steal, total
}

// heapCounters reads the cumulative heap bytes and objects allocated.
func heapCounters() (allocBytes, allocObjects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func heapAllocBytes() uint64 {
	b, _ := heapCounters()
	return b
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// tailLadder lists the percentiles a tail latency may be reported at.
var tailLadder = []float64{99.99, 99.9, 99.5, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of the ladder that leaves at
// least ten samples beyond it, and returns it with that sample count.
func tailPercentile(n int) (p float64, beyond int) {
	for _, p := range tailLadder {
		if b := int(math.Floor(float64(n) * (1 - p/100))); b >= 10 {
			return p, b
		}
	}
	return 50, n / 2
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeapAfterGC forces a collection and returns the live heap it left.
func liveHeapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
