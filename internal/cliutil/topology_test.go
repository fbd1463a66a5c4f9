package cliutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBuildTopologies(t *testing.T) {
	params := Params{N: 7, Rows: 3, Cols: 4, Dim: 4, P: 0.3, Radio: 0.4, Seed: 1}
	cases := []struct {
		name string
		n    int
	}{
		{"line", 7}, {"ring", 7}, {"star", 7}, {"complete", 7},
		{"mesh", 12}, {"torus", 12}, {"hypercube", 16},
		{"petersen", 10}, {"fig4", 16}, {"random", 7}, {"sensor", 7}, {"tree", 7},
	}
	for _, c := range cases {
		nw, err := Build(c.name, params)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if nw.Processors() != c.n {
			t.Errorf("%s: processors = %d, want %d", c.name, nw.Processors(), c.n)
		}
		if !nw.Connected() {
			t.Errorf("%s: disconnected", c.name)
		}
	}
	if _, err := Build("nonsense", params); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := Build("RING", params); err != nil {
		t.Errorf("upper-case topology rejected: %v", err)
	}
}

// TestBuildInvalidParams drives every generator precondition that used to
// escape as a panic (crashing the CLIs with a goroutine dump) and requires
// a descriptive error instead.
func TestBuildInvalidParams(t *testing.T) {
	cases := []struct {
		topology string
		params   Params
	}{
		{"ring", Params{N: 2}},  // graph: cycle needs n >= 3
		{"ring", Params{N: -1}}, // negative vertex count
		{"line", Params{N: -5}}, // negative vertex count
		{"hypercube", Params{Dim: -1}},
		{"mesh", Params{Rows: -2, Cols: 3}},
		{"random", Params{N: -3, P: 0.5}},
	}
	for _, c := range cases {
		nw, err := Build(c.topology, c.params)
		if err == nil {
			t.Errorf("%s %+v: accepted, got network with %d processors", c.topology, c.params, nw.Processors())
			continue
		}
		if !strings.Contains(err.Error(), "invalid topology parameters") {
			t.Errorf("%s %+v: error %q does not name invalid parameters", c.topology, c.params, err)
		}
	}
}

func TestBuildCustom(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("n 3\n0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	nw, err := Build("custom", Params{File: path})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Processors() != 3 || nw.Links() != 2 {
		t.Fatalf("custom network wrong: n=%d m=%d", nw.Processors(), nw.Links())
	}
	if _, err := Build("custom", Params{}); err == nil {
		t.Error("custom without file accepted")
	}
	if _, err := Build("custom", Params{File: filepath.Join(dir, "missing")}); err == nil {
		t.Error("missing file accepted")
	}
}
