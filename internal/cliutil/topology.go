// Package cliutil holds what the command line tools share: topology
// construction for cmd/gossip, cmd/verify and gossipd (named generator
// families plus custom networks from edge-list files), and the record
// writer, environment header and bench topologies of the cmd/*bench
// drivers and cmd/loadgen (record.go).
package cliutil

import (
	"fmt"
	"math/rand"
	"os"
	"strings"

	"multigossip"
)

// Params carries every flag the topology builders understand.
type Params struct {
	N          int     // processor count for the sized families
	Rows, Cols int     // mesh / torus
	Dim        int     // hypercube dimension
	P          float64 // random network edge probability
	Radio      float64 // sensor field radio range
	Seed       int64   // random topology seed
	File       string  // edge list for "custom"
}

// Topologies lists the accepted -topology names.
const Topologies = "line|ring|star|complete|mesh|torus|hypercube|petersen|fig4|random|sensor|tree|custom"

// Build constructs the named topology. "custom" loads Params.File as an
// edge list; everything else uses the library's generators. Generator
// preconditions (e.g. a ring needs n >= 3, a hypercube dimension must be
// non-negative) surface as panics in the library; Build converts them to
// errors so command-line tools and the serving layer report invalid
// parameters as one-line failures instead of crash traces.
func Build(name string, p Params) (nw *multigossip.Network, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("invalid topology parameters: %v", r)
		}
	}()
	rng := rand.New(rand.NewSource(p.Seed))
	switch strings.ToLower(name) {
	case "line":
		return multigossip.Line(p.N), nil
	case "ring":
		return multigossip.Ring(p.N), nil
	case "star":
		return multigossip.Star(p.N), nil
	case "complete":
		return multigossip.FullyConnected(p.N), nil
	case "mesh":
		return multigossip.Mesh(p.Rows, p.Cols), nil
	case "torus":
		return multigossip.Torus(p.Rows, p.Cols), nil
	case "hypercube":
		return multigossip.Hypercube(p.Dim), nil
	case "petersen":
		return multigossip.PetersenGraph(), nil
	case "fig4":
		return multigossip.Fig4Network(), nil
	case "random":
		return multigossip.RandomNetwork(rng, p.N, p.P), nil
	case "sensor":
		return multigossip.SensorField(rng, p.N, p.Radio), nil
	case "tree":
		return multigossip.RandomTreeNetwork(rng, p.N), nil
	case "custom":
		if p.File == "" {
			return nil, fmt.Errorf("-topology custom requires -file")
		}
		f, err := os.Open(p.File)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return multigossip.LoadNetwork(f)
	default:
		return nil, fmt.Errorf("unknown topology %q (want %s)", name, Topologies)
	}
}

// Recover is the CLI-boundary panic handler: deferred first in a tool's
// main, it turns any panic that escapes the library into a one-line
// "tool: error" on stderr with exit status 1 — users of the command line
// get a diagnostic, not a goroutine dump.
func Recover(tool string) {
	if r := recover(); r != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, r)
		os.Exit(1)
	}
}
