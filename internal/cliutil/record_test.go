package cliutil

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestNewEnv(t *testing.T) {
	env := NewEnv("cmd/x", "what x measures")
	if env.Tool != "cmd/x" || env.Benchmark != "what x measures" {
		t.Fatalf("tool/benchmark not carried: %+v", env)
	}
	if env.GoMaxProcs != runtime.GOMAXPROCS(0) || env.NumCPU != runtime.NumCPU() || env.GoVersion != runtime.Version() {
		t.Fatalf("runtime fields wrong: %+v", env)
	}
	// A test binary carries no VCS stamp, so the revision reads "unknown";
	// a stamped build carries the commit hash, possibly "+modified".
	if env.GitRevision == "" {
		t.Fatal("empty git revision")
	}
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"tool", "benchmark", "gomaxprocs", "num_cpu", "go_version", "git_revision"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("header key %q missing from %s", k, data)
		}
	}
}

func TestWriteRecord(t *testing.T) {
	type rec struct {
		Env
		Cases []int `json:"cases"`
	}
	v := rec{Env: NewEnv("cmd/x", "b"), Cases: []int{1, 2}}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := WriteRecord(path, v); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.MarshalIndent(v, "", "  ")
	if !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("record bytes:\n%s\nwant indented JSON plus newline:\n%s", got, want)
	}
	if !strings.HasPrefix(string(got), "{\n  \"tool\": \"cmd/x\",") {
		t.Fatalf("embedded header does not lead the record:\n%s", got)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm()&0o600 != 0o600 {
		t.Fatalf("record not user read-write: %v %v", fi.Mode(), err)
	}
	if err := WriteRecord(filepath.Join(path, "under-a-file"), v); err == nil {
		t.Fatal("write under a regular file succeeded")
	}
	if err := WriteRecord(path, func() {}); err == nil {
		t.Fatal("unmarshalable value accepted")
	}
}

func TestWriteFileFunc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dump.txt")
	if err := WriteFileFunc(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "hello\n" {
		t.Fatalf("dump wrote %q", got)
	}
	boom := errors.New("boom")
	if err := WriteFileFunc(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("exporter error lost: %v", err)
	}
	if err := WriteFileFunc(filepath.Join(path, "x"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("create under a regular file succeeded")
	}
}

func TestParseSizes(t *testing.T) {
	got, err := ParseSizes(" 64, ,1024,", 1)
	if err != nil || !reflect.DeepEqual(got, []int{64, 1024}) {
		t.Fatalf("ParseSizes = %v, %v; want [64 1024] (empty items skipped)", got, err)
	}
	if got, err := ParseSizes("", 1); err != nil || len(got) != 0 {
		t.Fatalf("empty list = %v, %v", got, err)
	}
	for _, c := range []struct {
		val   string
		least int
	}{
		{"12,abc", 1}, // not a number
		{"0", 1},      // planbench's minimum
		{"3", 4},      // churnbench's minimum
		{"-8", 1},
	} {
		if _, err := ParseSizes(c.val, c.least); err == nil || !strings.Contains(err.Error(), "bad size") {
			t.Errorf("ParseSizes(%q, %d) = %v, want a bad size error", c.val, c.least, err)
		}
	}
	if got, err := ParseSizes("4", 4); err != nil || got[0] != 4 {
		t.Fatalf("minimum itself rejected: %v, %v", got, err)
	}
}

func TestForEachGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	var seen []int
	ForEachGOMAXPROCS(func() { seen = append(seen, runtime.GOMAXPROCS(0)) })
	want := []int{1}
	if runtime.NumCPU() > 1 {
		want = append(want, runtime.NumCPU())
	}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("ran at GOMAXPROCS %v, want %v", seen, want)
	}
	if runtime.GOMAXPROCS(0) != prev {
		t.Fatalf("GOMAXPROCS left at %d, want %d restored", runtime.GOMAXPROCS(0), prev)
	}
}

// TestBenchGraphFingerprints pins the bench topologies to the graphs the
// drivers' own generators built before they were shared, so records taken
// before and after stay comparable.
func TestBenchGraphFingerprints(t *testing.T) {
	cases := []struct {
		kind string
		n    int
		gotN int
		m    int
		fp   uint64
	}{
		{"ring", 256, 256, 256, 0x90290851e81ca819},
		{"ring", 1024, 1024, 1024, 0x51b1498c191027fe},
		{"grid", 256, 256, 480, 0xf0cd6ebfcd5cca87},
		{"grid", 1024, 1024, 1984, 0x1c500db8c320dae7},
		{"random", 256, 256, 992, 0xf884f4bf4cda0462},
		{"random", 1024, 1024, 4173, 0xcb4e50c660cc6f03},
	}
	for _, c := range cases {
		g := BenchGraph(c.kind, c.n)
		if g.N() != c.gotN || g.M() != c.m || g.Fingerprint() != c.fp {
			t.Errorf("%s n=%d: got n=%d m=%d fingerprint %#x, want n=%d m=%d %#x",
				c.kind, c.n, g.N(), g.M(), g.Fingerprint(), c.gotN, c.m, c.fp)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown topology did not panic")
		}
	}()
	BenchGraph("torus", 16)
}

func TestRandomRecursiveParents(t *testing.T) {
	got := RandomRecursiveParents(rand.New(rand.NewSource(7)), 10)
	want := []int{-1, 0, 0, 0, 3, 2, 2, 5, 6, 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parents = %v, want %v", got, want)
	}
}
