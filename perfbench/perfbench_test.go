package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// TestMetricsMatchBenchmarkJSON keeps the metric lists the benchmark prints
// in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		printed  []metricDef
	}{
		{"end_to_end", bench.EndToEnd, endToEnd},
		{"per_layer", bench.PerLayer, perLayer},
	} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", c.kind, len(c.declared), len(c.printed))
			continue
		}
		for i, d := range c.declared {
			if p := c.printed[i]; d.Name != p.name || d.Unit != p.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)", c.kind, i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
}

func TestNormalise(t *testing.T) {
	a := "{\"event\":\"progress\",\"id\":\"r1\",\"seq\":1,\"cache\":\"hit\",\"elapsed_ms\":12}\n" +
		"{\"event\":\"done\",\"id\":\"r1\",\"seq\":2,\"elapsed_ms\":130,\"states\":376}\n"
	b := "{\"event\":\"progress\",\"id\":\"r22\",\"seq\":1,\"cache\":\"hit\",\"elapsed_ms\":0}\n" +
		"{\"event\":\"done\",\"id\":\"r22\",\"seq\":2,\"elapsed_ms\":7,\"states\":376}\n"
	c := "{\"event\":\"progress\",\"id\":\"r1\",\"seq\":1,\"cache\":\"miss\",\"elapsed_ms\":12}\n" +
		"{\"event\":\"done\",\"id\":\"r1\",\"seq\":2,\"elapsed_ms\":130,\"states\":376}\n"
	if na, nb := normalise(nil, []byte(a), false), normalise(nil, []byte(b), false); string(na) != string(nb) {
		t.Errorf("responses differing only in id, seq and elapsed_ms normalise to\n%s\n%s", na, nb)
	}
	if na, nc := normalise(nil, []byte(a), false), normalise(nil, []byte(c), false); string(na) == string(nc) {
		t.Errorf("responses differing in the cache field normalise equal")
	}
	swapped := "{\"event\":\"trial\",\"seq\":3,\"trial\":{\"trial\":1}}\n{\"event\":\"trial\",\"seq\":2,\"trial\":{\"trial\":0}}\n"
	inOrder := "{\"event\":\"trial\",\"seq\":2,\"trial\":{\"trial\":0}}\n{\"event\":\"trial\",\"seq\":3,\"trial\":{\"trial\":1}}\n"
	if x, y := normalise(nil, []byte(swapped), true), normalise(nil, []byte(inOrder), true); string(x) != string(y) {
		t.Errorf("trial lines in another order normalise to\n%s\n%s", x, y)
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{5, 15}, {0, 10}}, 15},
		{[][2]int64{{0, 10}, {2, 4}, {20, 25}}, 15},
	} {
		if got := covered(c.iv); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{22, 50, 11},
		{135, 90, 13},
		{400, 95, 20},
		{5500, 99.5, 27},
	} {
		if p, beyond := tailPercentile(c.n); p != c.p || beyond != c.beyond {
			t.Errorf("tailPercentile(%d) = p%g with %d beyond, want p%g with %d", c.n, p, beyond, c.p, c.beyond)
		}
	}
}

func TestZipfWeights(t *testing.T) {
	got := zipfWeights(11, deckLen)
	want := []int{21, 11, 7, 5, 4, 4, 3, 3, 2, 2, 2}
	if !slices.Equal(got, want) {
		t.Errorf("zipfWeights(11, %d) = %v, want %v", deckLen, got, want)
	}
	if n := len(catalogue(1)); n != len(want) {
		t.Errorf("catalogue has %d entries, want %d", n, len(want))
	}
}

func TestMedianProbe(t *testing.T) {
	ms := time.Millisecond
	ps := []probeTime{{20 * ms, 19 * ms}, {90 * ms, 18 * ms}, {22 * ms, 21 * ms}, {21 * ms, 20 * ms}}
	if wall, cpu := medianProbe(ps); wall != 21500*time.Microsecond || cpu != 19500*time.Microsecond {
		t.Errorf("medianProbe = %v, %v; want 21.5ms, 19.5ms", wall, cpu)
	}
	if f := speedFactor(2 * refProbe); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("speedFactor(2 × refProbe) = %g, want 0.5", f)
	}
}

// TestProbe checks that the probe's chunks, shared among goroutines, compute
// the checksums a single goroutine does.
func TestProbe(t *testing.T) {
	for _, p := range []*probe{newProbe(3, false), newProbe(3, true)} {
		if tm := p.run(); tm.wall <= 0 {
			t.Errorf("probe wall time %v", tm.wall)
		}
	}
}
