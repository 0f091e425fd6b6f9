package dining_test

import (
	"strings"
	"testing"

	"repro/dining"
)

// The experiment tables themselves are pinned byte for byte by cmd/dpbench's
// golden test; the tests here check the suite's structure and the paper's
// claims in the quick tables.

func TestExperimentRegistry(t *testing.T) {
	t.Parallel()
	exps := dining.Experiments()
	if len(exps) < 8 {
		t.Fatalf("expected at least 8 experiments, got %d", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, err := dining.RunExperiments(dining.ExperimentConfig{Quick: true}, "E-F1", "E-NOPE"); err == nil {
		t.Error("RunExperiments accepted an unknown id")
	}
}

func TestRunFigure1Experiment(t *testing.T) {
	t.Parallel()
	tables, err := dining.RunExperiments(dining.ExperimentConfig{Quick: true, Seed: 1}, "E-F1")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "E-F1" || len(tables[0].Rows) != 4 {
		t.Errorf("E-F1 should be one table of 4 rows, got %+v", tables)
	}
}

// runExperiment runs one experiment of the quick suite.
func runExperiment(t *testing.T, id string, cfg dining.ExperimentConfig) *dining.Table {
	t.Helper()
	tables, err := dining.RunExperiments(cfg, id)
	if err != nil {
		t.Fatal(err)
	}
	return tables[0]
}

func TestRunSection3ExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness skipped in -short mode")
	}
	t.Parallel()
	table := runExperiment(t, "E-S3", dining.ExperimentConfig{Quick: true, Seed: 1})
	if len(table.Rows) != 4 {
		t.Fatalf("E-S3 should report 4 algorithms, got %d rows", len(table.Rows))
	}
	// Row order: LR1, LR2, GDP1, GDP2. The GDP rows must report zero
	// no-progress runs (Theorem 3/4), LR1 a positive number (Section 3).
	if !strings.HasPrefix(table.Rows[2][1], "0/") || !strings.HasPrefix(table.Rows[3][1], "0/") {
		t.Errorf("GDP1/GDP2 should never be starved: %v", table.Rows)
	}
	if strings.HasPrefix(table.Rows[0][1], "0/") {
		t.Errorf("LR1 should be starved in at least one quick trial: %v", table.Rows[0])
	}
}

func TestRunNumberRangeSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness skipped in -short mode")
	}
	t.Parallel()
	table := runExperiment(t, "E-B2", dining.ExperimentConfig{Quick: true, Seed: 2})
	if len(table.Rows) != 4 {
		t.Errorf("E-B2 should sweep 4 values of m, got %d rows", len(table.Rows))
	}
	for _, row := range table.Rows {
		if !strings.HasSuffix(row[3], "/10") || !strings.HasPrefix(row[3], "10/") {
			t.Errorf("GDP1 should progress in every trial of the m sweep: %v", row)
		}
	}
}

// TestExperimentTablesIdenticalAcrossWorkers is the determinism guarantee of the
// suite: for a fixed seed, every Monte-Carlo experiment table must be
// identical whether the trials run sequentially (Workers: 1) or fanned out
// over many goroutines — same rows, same floating-point aggregates, same
// rendered markdown. Trial seeds depend only on the trial index and
// aggregation happens in index order, so scheduling must be unobservable.
func TestExperimentTablesIdenticalAcrossWorkers(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"E-S3", "E-T3", "E-B1", "E-B2"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			seq := runExperiment(t, id, dining.ExperimentConfig{Quick: true, Seed: 99, Workers: 1})
			par := runExperiment(t, id, dining.ExperimentConfig{Quick: true, Seed: 99, Workers: 8})
			if seq.Markdown() != par.Markdown() {
				t.Errorf("parallel table differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					seq.Markdown(), par.Markdown())
			}
		})
	}
}
