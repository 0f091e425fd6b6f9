package graph

import (
	"sort"
	"strings"
	"testing"
)

func TestTopologyRegistryNamesSortedAndBuildable(t *testing.T) {
	t.Parallel()
	names := TopologyNames()
	if len(names) < 10 {
		t.Fatalf("expected the builder topologies registered, got %v", names)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("TopologyNames not sorted: %v", names)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "test-") {
			continue // registered by other tests
		}
		topo, err := NewTopology(name, 0)
		if err != nil {
			t.Errorf("NewTopology(%q, 0): %v", name, err)
			continue
		}
		if err := topo.Validate(); err != nil {
			t.Errorf("default %q topology invalid: %v", name, err)
		}
	}
}

func TestTopologyRegistryUnknownName(t *testing.T) {
	t.Parallel()
	_, err := NewTopology("moebius", 3)
	if err == nil {
		t.Fatal("NewTopology accepted an unknown name")
	}
	msg := err.Error()
	if !strings.Contains(msg, "registered:") || !strings.Contains(msg, "ring") || strings.Contains(msg, "\n") {
		t.Errorf("want a one-line error listing the registered options, got: %v", err)
	}
}

func TestTopologyRegistryDuplicatePanics(t *testing.T) {
	t.Parallel()
	RegisterTopology("test-graph-dup", func(int) *Topology { return Ring(3) })
	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterTopology did not panic")
		}
	}()
	RegisterTopology("test-graph-dup", func(int) *Topology { return Ring(3) })
}

// TestTopologyRegistryRejectsTooSmallSizes checks that a size too small for
// a builder's shape is an error, not a panic.
func TestTopologyRegistryRejectsTooSmallSizes(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"ring", "doubled-polygon", "ring-chord", "ring-pendant", "grid", "complete"} {
		topo, err := NewTopology(name, 1)
		if err == nil || topo != nil {
			t.Errorf("NewTopology(%q, 1) = %v, %v; want an error", name, topo, err)
			continue
		}
		if want := `graph: topology "` + name + `" with n=1: `; !strings.HasPrefix(err.Error(), want) {
			t.Errorf("NewTopology(%q, 1) error %q, want prefix %q", name, err, want)
		}
	}
}
