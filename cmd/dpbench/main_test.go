package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestExperimentGolden pins the reproduction tables: dpbench -json output,
// for the quick pass with and without fault injection and for the full pass,
// must match testdata byte for byte, table by table. E-RT measures wall-clock
// throughput, so its rows are compared by count only; its header and notes
// (and the whole table when it is a deterministic skip note) still match.
// Regenerate a golden with, for example,
//
//	go run ./cmd/dpbench -quick -json > cmd/dpbench/testdata/quick.golden.json
func TestExperimentGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
		full   bool
	}{
		{"quick.golden.json", []string{"-quick"}, false},
		{"quick-crash-rejoin.golden.json", []string{"-quick", "-faults", "crash-rejoin:0.05,0.5"}, false},
		{"quick-lossy-grants.golden.json", []string{"-quick", "-faults", "lossy-grants:0.1"}, false},
		{"full.golden.json", nil, true},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			if c.full && testing.Short() {
				t.Skip("full experiment pass skipped in -short mode")
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(append([]string{"-json"}, c.args...), &got); err != nil {
				t.Fatal(err)
			}
			compareTables(t, got.Bytes(), want)
		})
	}
}

// compareTables compares two dpbench -json documents table by table.
func compareTables(t *testing.T, got, want []byte) {
	t.Helper()
	var gotTables, wantTables []json.RawMessage
	if err := json.Unmarshal(got, &gotTables); err != nil {
		t.Fatalf("output is not a JSON table list: %v", err)
	}
	if err := json.Unmarshal(want, &wantTables); err != nil {
		t.Fatalf("golden is not a JSON table list: %v", err)
	}
	if len(gotTables) != len(wantTables) {
		t.Fatalf("got %d tables, golden has %d", len(gotTables), len(wantTables))
	}
	for i := range wantTables {
		var g, w struct {
			ID     string     `json:"id"`
			Header []string   `json:"header"`
			Rows   [][]string `json:"rows"`
			Notes  []string   `json:"notes"`
		}
		if err := json.Unmarshal(gotTables[i], &g); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(wantTables[i], &w); err != nil {
			t.Fatal(err)
		}
		if g.ID != w.ID {
			t.Fatalf("table %d is %s, golden has %s", i, g.ID, w.ID)
		}
		if w.ID == "E-RT" && len(w.Rows) > 0 {
			if !reflect.DeepEqual(g.Header, w.Header) || len(g.Rows) != len(w.Rows) || !reflect.DeepEqual(g.Notes, w.Notes) {
				t.Errorf("E-RT shape differs from the golden:\ngot  header %q, %d rows, notes %q\nwant header %q, %d rows, notes %q",
					g.Header, len(g.Rows), g.Notes, w.Header, len(w.Rows), w.Notes)
			}
			continue
		}
		if !bytes.Equal(gotTables[i], wantTables[i]) {
			t.Errorf("table %s differs from the golden:\n--- got ---\n%s\n--- want ---\n%s", w.ID, gotTables[i], wantTables[i])
		}
	}
}

// TestRunRejectsBadFlags checks that the report is never written when the
// flags are inconsistent.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-json", "-markdown"},
		{"-experiment", "E-NOPE", "-quick"},
		{"-faults", "no-such-model"},
		{"-workers", "-1"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) accepted inconsistent flags", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) wrote output before failing:\n%s", args, out.String())
		}
	}
}
