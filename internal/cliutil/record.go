package cliutil

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"multigossip/internal/graph"
)

// Env is the environment header every BENCH record carries. A driver's
// report embeds it, so its keys come first in the record.
type Env struct {
	Tool        string `json:"tool"`
	Benchmark   string `json:"benchmark"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	GoVersion   string `json:"go_version"`
	GitRevision string `json:"git_revision"`
}

// NewEnv fills the header from the runtime and the binary's build info.
// The revision is the stamped vcs.revision, suffixed "+modified" for a
// dirty tree, or "unknown" when the build is not stamped (plain `go run`
// stamps nothing; `go run -buildvcs=true` does).
func NewEnv(tool, benchmark string) Env {
	return Env{
		Tool:        tool,
		Benchmark:   benchmark,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		GitRevision: gitRevision(),
	}
}

func gitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	switch {
	case rev == "":
		return "unknown"
	case modified:
		return rev + "+modified"
	}
	return rev
}

// WriteRecord writes v to path as indented JSON with a trailing newline.
func WriteRecord(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// WriteFileFunc streams an exporter (a trace or metrics dump) into a
// freshly created file.
func WriteFileFunc(path string, dump func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseSizes parses a comma-separated list of vertex counts, skipping
// empty items and rejecting any item that is not an integer >= least.
func ParseSizes(val string, least int) ([]int, error) {
	var ns []int
	for _, f := range strings.Split(val, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < least {
			return nil, fmt.Errorf("bad size %q (want an integer >= %d)", f, least)
		}
		ns = append(ns, n)
	}
	return ns, nil
}

// ForEachGOMAXPROCS runs f at GOMAXPROCS 1 and, on a multi-CPU host, at
// runtime.NumCPU(), then restores the previous setting: the sweep fans
// roots over a worker pool, so a 1-CPU measurement says nothing about it.
func ForEachGOMAXPROCS(f func()) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	procs := []int{1}
	if runtime.NumCPU() > 1 {
		procs = append(procs, runtime.NumCPU())
	}
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		f()
	}
}

// BenchGraph builds the bench drivers' topology classes: a ring, a
// ⌊√n⌋ × ⌊√n⌋ grid, or a connected random graph with edge probability
// 8/n seeded by n, so records taken on different days stay comparable.
func BenchGraph(kind string, n int) *graph.Graph {
	switch kind {
	case "ring":
		return graph.Cycle(n)
	case "grid":
		side := int(math.Sqrt(float64(n)))
		return graph.Grid(side, side)
	case "random":
		rng := rand.New(rand.NewSource(int64(n)))
		return graph.RandomConnected(rng, n, 8/float64(n))
	}
	panic("unknown topology " + kind)
}

// RandomRecursiveParents is a random recursive tree as a parent array:
// vertex i attaches to a uniform earlier vertex, so the expected height is
// Θ(log n) and the schedule stays near the paper's n + r bound with small r.
func RandomRecursiveParents(rng *rand.Rand, n int) []int {
	parent := make([]int, n)
	parent[0] = -1
	for i := 1; i < n; i++ {
		parent[i] = rng.Intn(i)
	}
	return parent
}
