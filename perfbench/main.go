// Command perfbench is the repository benchmark: three workloads that drive
// the library and the gossipd server from outside, each replaying one
// seeded input sequence in full and checking every output. See README.md
// for why each workload exists and which layers it exercises.
//
//	perfbench --workload plan-cold|replay|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics of a separate
// traced pass over the same inputs. The line before it is the environment
// header and the details behind each number.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives: the seed and the run length,
// never an input. Workloads generate their inputs from the seed.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	gossipd string // path of the gossipd binary (serve only)
	workdir string // work directory inside the checkout
}

// outcome is what a workload reports back.
type outcome struct {
	attempted int
	failed    int
	// values holds the measured metrics by name; BENCHMARK.json's lists
	// below give their units.
	values map[string]float64
	// procs names the GOMAXPROCS of every process the workload ran.
	procs  map[string]int
	detail map[string]any
}

// fail records a failed operation or check. The first few reasons are kept
// for the report; the count is what the result carries.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.detail == nil {
		o.detail = map[string]any{}
	}
	reasons, _ := o.detail["failures"].([]string)
	if len(reasons) < 8 {
		o.detail["failures"] = append(reasons, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name string, v float64) {
	if o.values == nil {
		o.values = map[string]float64{}
	}
	o.values[name] = v
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"plan-cold": runPlanCold,
	"replay":    runReplay,
	"serve":     runServe,
}

func main() {
	var (
		name    = flag.String("workload", "", "plan-cold, replay or serve")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 12, "nominal measured time of one run")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		gossipd = flag.String("gossipd", ".bench_build/bin/gossipd", "gossipd binary for the serve workload")
		workdir = flag.String("workdir", ".bench_build/run", "work directory inside the checkout")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, gossipd: *gossipd, workdir: *workdir}
	cpu0 := readCPUStat()
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if out.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		os.Exit(1)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	metrics := make(map[string]metric, len(want))
	for _, m := range want {
		// A layer this workload never calls has no value: it spent no time.
		metrics[m.name] = metric{Value: out.values[m.name], Unit: m.unit}
	}

	env := environment(*name, cfg, out)
	env["cpu_steal_share"] = readCPUStat().stealShare(cpu0)
	header := map[string]any{
		"env":    env,
		"detail": out.detail,
	}
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	if err := errors.Join(enc.Encode(header), enc.Encode(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}), w.Flush()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result:", err)
		os.Exit(1)
	}
}

// metricSpec names one metric of BENCHMARK.json.
type metricSpec struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports all of
// them (README.md defines each per workload).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"hit_p50_ms", "ms"},
}

// perLayer is the traced pass's attribution. A layer a workload never calls
// reports zero there.
var perLayer = []metricSpec{
	{"graph.snapshot_ms", "ms"},
	{"graph.fingerprint_ms", "ms"},
	{"spantree.min_depth_ms", "ms"},
	{"spantree.roots_completed", "count"},
	{"spantree.roots_pruned", "count"},
	{"spantree.roots_short_circuited", "count"},
	{"spantree.label_ms", "ms"},
	{"implicit.new_ms", "ms"},
	{"implicit.bytes_per_vertex", "B"},
	{"implicit.round_append_us", "us"},
	{"implicit.tx_per_round", "count"},
	{"implicit.alloc_bytes_per_round", "B"},
	{"core.materialise_ms", "ms"},
	{"fault.execute_ms", "ms"},
	{"fault.dropped", "count"},
	{"repair.run_ms", "ms"},
	{"repair.iterations", "count"},
	{"repair.rounds", "count"},
	{"gossipd.server_plan_ms", "ms"},
	{"gossipd.outside_plan_ms", "ms"},
	{"gossipd.request_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.coalesced", "count"},
	{"plancache.evictions", "count"},
	{"plancache.disk_hits", "count"},
	{"planstore.warm_load_ms", "ms"},
	{"planstore.warm_rebuilds", "count"},
	{"churn.reused", "count"},
	{"churn.grafted", "count"},
	{"churn.rebuilt", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.uncovered_share", "ratio"},
}

// environment is the header every result carries.
func environment(name string, cfg runConfig, out *outcome) map[string]any {
	rev := "unknown (not built from a git checkout)"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					rev += "+modified"
				}
			}
		}
	}
	procs := map[string]int{"perfbench": runtime.GOMAXPROCS(0)}
	for k, v := range out.procs {
		procs[k] = v
	}
	return map[string]any{
		"git_revision": rev,
		"cpu_model":    cpuModel(),
		"cpus":         runtime.NumCPU(),
		"gomaxprocs":   procs,
		"go_version":   runtime.Version(),
		"workload":     name,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"attempted":    out.attempted,
		"failed":       out.failed,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuStat is the machine-wide CPU time from /proc/stat, in clock ticks.
type cpuStat struct{ total, steal float64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var st cpuStat
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stealShare is the share of CPU time the hypervisor gave to other guests
// since start: a run with a high share was measured on a contended host.
func (c cpuStat) stealShare(start cpuStat) float64 {
	if c.total <= start.total {
		return 0
	}
	return (c.steal - start.steal) / (c.total - start.total)
}
