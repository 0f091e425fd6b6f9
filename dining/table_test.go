package dining_test

import (
	"strings"
	"testing"

	"repro/dining"
)

func TestTableRendering(t *testing.T) {
	t.Parallel()
	table := &dining.Table{
		ID:         "E-X",
		Title:      "demo",
		Reproduces: "nothing",
		Header:     []string{"a", "b"},
	}
	table.AddRow("x", 1)
	table.AddRow(2.5, "y")
	table.AddNote("note %d", 7)
	md := table.Markdown()
	for _, want := range []string{"## E-X", "| a | b |", "| x | 1 |", "note 7"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	txt := table.Text()
	if !strings.Contains(txt, "E-X") || !strings.Contains(txt, "2.500") {
		t.Errorf("text rendering wrong:\n%s", txt)
	}
	doc := dining.RenderMarkdown("# intro", []*dining.Table{table})
	if !strings.Contains(doc, "# intro") || !strings.Contains(doc, "## E-X") {
		t.Error("RenderMarkdown malformed")
	}
}
