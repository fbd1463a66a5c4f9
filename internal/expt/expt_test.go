package expt

import (
	"strings"
	"sync"
	"testing"
)

// serialTables runs the serial suite once per test binary; every test
// that inspects its tables shares the one run.
var serialTables = sync.OnceValue(func() []*Table { return NewSuite().All() })

// TestAllExperimentsReproduce runs the full suite and requires every
// experiment to report REPRODUCED — this is the repository's end-to-end
// statement that every figure, table and bound of the paper checks out.
func TestAllExperimentsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short mode")
	}
	for _, table := range serialTables() {
		if !table.Pass {
			t.Errorf("%s (%s): MISMATCH\n%s", table.ID, table.Title, table.Markdown())
		}
		if table.ID == "" || table.Title == "" || table.PaperClaim == "" {
			t.Errorf("%s: incomplete metadata", table.ID)
		}
	}
}

func TestSuiteOrderAndIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short mode")
	}
	tables := serialTables()
	if len(tables) != 29 {
		t.Fatalf("suite has %d experiments, want 29", len(tables))
	}
	for i, table := range tables {
		want := "E" + itoa(i+1)
		if table.ID != want {
			t.Errorf("experiment %d has ID %s, want %s", i, table.ID, want)
		}
	}
}

func TestMarkdownRendering(t *testing.T) {
	table := &Table{
		ID: "E0", Title: "demo", PaperClaim: "claim",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"- note"},
		Pass:   true,
	}
	md := table.Markdown()
	for _, want := range []string{"## E0 — demo", "**Paper:** claim", "| a | b |", "| 1 | 2 |", "- note", "REPRODUCED"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	table.Pass = false
	if !strings.Contains(table.Markdown(), "MISMATCH") {
		t.Error("failed table not marked MISMATCH")
	}
}

func TestRenderContainsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short mode")
	}
	tables := serialTables()
	out := render(tables)
	for _, table := range tables {
		if !strings.Contains(out, "## "+table.ID+" ") {
			t.Errorf("render missing experiment %s", table.ID)
		}
	}
	if !strings.Contains(out, "# EXPERIMENTS") {
		t.Error("render missing preamble")
	}
}

// TestParallelMatchesSerial: the concurrent suite must produce byte-equal
// reports to the serial one (every experiment is independently seeded),
// which also proves the experiments are deterministic.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short mode")
	}
	serial := serialTables()
	parallel := NewSuite().AllParallel()
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Markdown() != parallel[i].Markdown() {
			t.Errorf("%s: parallel output differs from serial", serial[i].ID)
		}
	}
}
