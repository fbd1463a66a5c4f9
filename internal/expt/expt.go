// Package expt is the experiment harness: every figure and table of the
// paper, plus each proved bound, is an experiment that regenerates the
// corresponding artefact and reports paper-vs-measured rows. cmd/experiments
// renders the full suite into EXPERIMENTS.md; bench_test.go wraps each
// experiment as a benchmark so `go test -bench` regenerates everything.
package expt

import (
	"fmt"
	"strings"
	"sync"
)

// Table is one experiment's report.
type Table struct {
	ID         string   // e.g. "E10"
	Title      string   // short description
	PaperClaim string   // what the paper states
	Header     []string // column names
	Rows       [][]string
	Notes      []string // free-form lines (e.g. regenerated paper tables)
	Pass       bool     // whether the measured shape matches the claim
}

// Markdown renders the table as a Markdown section.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "**Paper:** %s\n\n", t.PaperClaim)
	status := "REPRODUCED"
	if !t.Pass {
		status = "MISMATCH"
	}
	fmt.Fprintf(&b, "**Status:** %s\n\n", status)
	if len(t.Header) > 0 {
		b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
		seps := make([]string, len(t.Header))
		for i := range seps {
			seps[i] = "---"
		}
		b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
		for _, row := range t.Rows {
			b.WriteString("| " + strings.Join(row, " | ") + " |\n")
		}
		b.WriteString("\n")
	}
	for _, note := range t.Notes {
		b.WriteString(note + "\n")
	}
	if len(t.Notes) > 0 {
		b.WriteString("\n")
	}
	return b.String()
}

// Suite runs experiments reproducibly from a fixed seed.
type Suite struct {
	Seed int64
}

// NewSuite returns a Suite with the default seed used by EXPERIMENTS.md.
func NewSuite() *Suite { return &Suite{Seed: 20010425} } // IPDPS 2001 vintage

// runs lists every experiment in suite order: the one list behind All and
// AllParallel.
func (s *Suite) runs() []func() *Table {
	return []func() *Table{
		s.E1RingRotation, s.E2Petersen, s.E3Separation, s.E4TreeConstruction,
		s.E5Table1, s.E6Table2, s.E7Table3, s.E8Table4,
		s.E9SimpleBound, s.E10CUDBound, s.E11OddLine, s.E12ApproxRatio,
		s.E13Broadcast, s.E14TelephoneSeparation, s.E15MinDepthTree,
		s.E16Weighted, s.E17Online, s.E18Comparative, s.E19LineOptimal,
		s.E20RootAblation, s.E21Fragility, s.E22FanoutSweep,
		s.E23OptimalityGap, s.E24BarrierMakespan, s.E25PipelineThroughput,
		s.E26Randomized, s.E27KPortSweep, s.E28MillionNodeSim,
		s.E29Portfolio,
	}
}

// All runs every experiment in order.
func (s *Suite) All() []*Table {
	runs := s.runs()
	out := make([]*Table, len(runs))
	for i, run := range runs {
		out[i] = run()
	}
	return out
}

// AllParallel runs every experiment concurrently (one goroutine each) and
// returns them in suite order. Experiments are independent — each seeds
// its own random source from s.Seed — so the results are identical to
// All()'s; the suite wall-clock drops to the slowest single experiment.
func (s *Suite) AllParallel() []*Table {
	runs := s.runs()
	out := make([]*Table, len(runs))
	var wg sync.WaitGroup
	for i, run := range runs {
		wg.Add(1)
		go func(i int, run func() *Table) {
			defer wg.Done()
			out[i] = run()
		}(i, run)
	}
	wg.Wait()
	return out
}

const preamble = `# EXPERIMENTS — paper vs. measured

Regenerate with ` + "`go run ./cmd/experiments > EXPERIMENTS.md`" + ` or inspect
individual experiments via ` + "`go test -bench 'BenchmarkE' -benchmem .`" + `.
The paper is analytical; its artefacts are worked examples (Figs. 1-5,
Tables 1-4) and proved bounds (Lemma 1, Theorem 1, the line lower bound,
the 1.5-approximation remark). Each experiment regenerates one artefact and
compares against the stated claim. Absolute wall-clock numbers are
irrelevant (the substrate is a simulator); the reproduced quantity is the
schedule length in communication rounds, which is exact.

`

// Render produces the complete EXPERIMENTS.md body.
func (s *Suite) Render() string {
	return render(s.All())
}

// RenderParallel is Render with the experiments computed concurrently; the
// output is byte-identical because the experiments are deterministic and
// independently seeded.
func (s *Suite) RenderParallel() string {
	return render(s.AllParallel())
}

func render(tables []*Table) string {
	var b strings.Builder
	b.WriteString(preamble)
	for _, t := range tables {
		b.WriteString(t.Markdown())
	}
	return b.String()
}

func itoa(x int) string { return fmt.Sprint(x) }

func yes(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}

// noOrYes renders an existence fact plainly ("no"/"yes"), for rows whose
// expected answer is "no".
func noOrYes(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
