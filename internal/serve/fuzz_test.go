package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/dining"
)

// The server caps neither the topology size of a request nor the scenario
// count of a sweep: the builders allocate in proportion to n (n² for grid
// and complete), and a sweep expands the product of its axes, so a 2 KB
// /v1/sweep body with 60 entries on three axes already lists 216,000
// scenarios. FuzzServeRequest checks decoding and construction for panics,
// so it skips inputs beyond these bounds instead of exhausting memory.
const (
	fuzzMaxN         = 64
	fuzzMaxScenarios = 4096
)

// FuzzServeRequest feeds arbitrary bytes as the body of /v1/check,
// /v1/trials and /v1/sweep through the handlers' decoding and engine or
// sweep construction, stopping before any exploration or trial. Every input
// must be rejected with an error or yield a usable engine or scenario list;
// none may panic.
func FuzzServeRequest(f *testing.F) {
	seeds := []any{
		checkBody,
		sweepBody,
		Request{Topology: "ring", N: 3, Algorithm: dining.LR1, Faults: "delayed-grants:0.5,2", Symmetry: true},
		Request{Topology: "figure1a", Algorithm: dining.GDP2, Protected: []dining.PhilID{0, 7}, Scheduler: dining.Adversary},
	}
	for _, tc := range badRequests {
		seeds = append(seeds, tc.body)
	}
	for _, seed := range seeds {
		raw, err := json.Marshal(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	s := New(Options{Workers: 1, MaxRequestStates: 10_000})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		if decodeBody(httptest.NewRequest("POST", "/v1/check", bytes.NewReader(body)), &req) == nil && req.N <= fuzzMaxN {
			if eng, err := s.engine(&req); err == nil {
				if eng.Topology() == nil || eng.Fingerprint() == "" {
					t.Fatalf("engine from %q has no topology or fingerprint", body)
				}
				_, _ = req.properties()
				_ = s.admit(eng)
			}
		}
		var sreq SweepRequest
		if decodeBody(httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body)), &sreq) == nil {
			for _, spec := range sreq.Topologies {
				if spec.N > fuzzMaxN {
					return
				}
			}
			scenarios := len(sreq.Topologies) * len(sreq.Algorithms)
			for _, axis := range [][]string{sreq.Schedulers, sreq.Faults} {
				scenarios *= max(1, len(axis))
			}
			if scenarios > fuzzMaxScenarios {
				return
			}
			if sw, err := s.sweep(&sreq); err == nil {
				if _, err := sw.Scenarios(); err != nil {
					t.Fatalf("sweep from %q built but has no scenarios: %v", body, err)
				}
			}
		}
	})
}
