package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is shared: its CPUs run faster or slower
// from one minute to the next as other guests come and go, by as much as
// half between runs. The benchmark therefore times a probe, a fixed piece of
// work of its own that calls nothing in the program, between the slices of
// every measuring window and around every set-up round, and reports each time
// metric at the reference speed: a time t measured while the probe took p is
// reported as t × refProbe / p. A program that takes twice as long reads
// twice as long; a host that runs everything twice as slowly does not move
// the figure. The raw figures are printed in the report lines beside it.
//
// The probe runs one goroutine per GOMAXPROCS, as the workloads keep every
// CPU busy, and does its work twice over. The goroutines first share out
// probeChunks chunks as each comes free, as the trials of a batch and the
// server's requests are shared out. Then, for a workload whose op explores a
// state space level by level, they run the same chunks in lockstep, one each
// per level with a barrier between levels, as the exploration does; for the
// others they share the chunks out again. A host that stops one CPU for a
// moment holds up a whole lockstep level, so that half tracks exploration,
// while it would scale a shared-out op too far. A chunk fills and then
// searches an open-addressing table of probeTableSize words with splitmix64
// keys: hashing and random reads and writes, as in state-space exploration,
// but with no allocation, so the program's heap cannot change its cost.
const (
	probeTableSize = 1 << 16 // words per goroutine: 512 KiB
	probeKeys      = 1 << 15 // keys inserted and then looked up per chunk
	probeChunks    = 24
	// refProbe is about the probe's wall time on an idle 2-vCPU Intel Xeon
	// virtual machine. It only fixes the scale of the reported figures.
	refProbe = 20 * time.Millisecond
)

// probe holds the tables of the probe goroutines, allocated once.
type probe struct {
	tables   [][]uint64
	lockstep bool     // run the second half in lockstep levels
	first    []uint64 // each chunk's checksum in the first half
	second   []uint64 // each chunk's checksum in the second half
	want     []uint64 // the checksums the chunks must compute
}

func newProbe(goroutines int, lockstep bool) *probe {
	p := &probe{
		tables:   make([][]uint64, goroutines),
		lockstep: lockstep,
		first:    make([]uint64, probeChunks),
		second:   make([]uint64, probeChunks),
		want:     make([]uint64, probeChunks),
	}
	for g := range p.tables {
		p.tables[g] = make([]uint64, probeTableSize)
	}
	for k := range p.want {
		p.want[k] = probeWork(p.tables[0], chunkSeed(k))
	}
	return p
}

// probeTime is one timed run of the probe.
type probeTime struct {
	wall time.Duration
	cpu  time.Duration // process CPU per goroutine
}

// run does the probe's work. A wrong checksum means the probe did not do its
// work, and panics.
func (p *probe) run() probeTime {
	var (
		wg sync.WaitGroup
		n  = len(p.tables)
	)
	cpu0 := processCPU()
	start := time.Now()
	p.shareOut(p.first)
	if p.lockstep {
		for level := 0; level*n < probeChunks; level++ {
			for g := range min(n, probeChunks-level*n) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					k := level*n + g
					p.second[k] = probeWork(p.tables[g], chunkSeed(k))
				}()
			}
			wg.Wait()
		}
	} else {
		p.shareOut(p.second)
	}
	t := probeTime{wall: time.Since(start), cpu: (processCPU() - cpu0) / time.Duration(n)}
	for k, want := range p.want {
		if p.first[k] != want || p.second[k] != want {
			panic(fmt.Sprintf("perfbench: probe chunk %d checksums %#x and %#x, want %#x", k, p.first[k], p.second[k], want))
		}
	}
	return t
}

// shareOut runs every chunk, each on the next goroutine to come free, and
// stores the checksums in sums.
func (p *probe) shareOut(sums []uint64) {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for g := range p.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < probeChunks; k = next.Add(1) - 1 {
				sums[k] = probeWork(p.tables[g], chunkSeed(int(k)))
			}
		}()
	}
	wg.Wait()
}

func chunkSeed(k int) uint64 { return uint64(k+1) * 0x9e3779b97f4a7c15 }

// probeWork clears table, inserts probeKeys keys with linear probing, looks
// every key up again and returns a checksum of the slots it found.
func probeWork(table []uint64, seed uint64) uint64 {
	clear(table)
	mask := uint64(len(table) - 1)
	x := seed
	for k := 0; k < probeKeys; k++ {
		key := splitmix(&x) | 1 // 0 marks an empty slot
		for i := key & mask; ; i = (i + 1) & mask {
			if table[i] == 0 || table[i] == key {
				table[i] = key
				break
			}
		}
	}
	var sum uint64
	x = seed
	for k := 0; k < probeKeys; k++ {
		key := splitmix(&x) | 1
		i := key & mask
		for table[i] != key {
			i = (i + 1) & mask
		}
		sum = sum*31 + i
	}
	return sum
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// speedFactor is refProbe over the probe time p: the factor that brings a
// time measured while the probe took p to the reference speed.
func speedFactor(p time.Duration) float64 {
	return float64(refProbe) / float64(p)
}

// medianProbe returns the median wall and CPU time of the probes ps.
func medianProbe(ps []probeTime) (wall, cpu time.Duration) {
	walls := make([]float64, len(ps))
	cpus := make([]float64, len(ps))
	for k, t := range ps {
		walls[k], cpus[k] = float64(t.wall), float64(t.cpu)
	}
	return time.Duration(median(walls)), time.Duration(median(cpus))
}
