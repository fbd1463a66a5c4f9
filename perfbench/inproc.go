package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	mg "multigossip"
)

// opSet is an in-process workload after set-up: a fixed sequence of
// operations that every run replays in full.
type opSet interface {
	// len is the number of operations in the sequence.
	len() int
	// run executes operation i through the public API. It is the timed
	// call; it saves what the checks need and checks nothing itself.
	run(i int) error
	// traced executes operation i as the sequence of layer calls the
	// facade makes, recording one span per call under a root span, and
	// adds the layers' work counts to c.
	traced(i int, rec *recorder, c counters) error
	// check runs the correctness checks on what the operations saved and
	// records every failure in o.
	check(o *outcome)
}

// counters accumulate per-layer work counts over a traced pass.
type counters map[string]float64

// inprocSpec describes one in-process workload.
type inprocSpec struct {
	name string
	// setupReps is how many times a run builds the inputs; setup_s is the
	// median, so one slow set-up does not move it.
	setupReps int
	// warmup is how many leading operations run untimed first: the first
	// operations of a process run several times slower than later ones.
	warmup int
	setup  func(cfg runConfig) (opSet, error)
}

func runInproc(spec inprocSpec, cfg runConfig) (*outcome, error) {
	o := &outcome{detail: map[string]any{}}
	setups := make([]float64, spec.setupReps)
	var set opSet
	for r := range setups {
		set = nil
		runtime.GC()
		begin := time.Now()
		s, err := spec.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		setups[r] = time.Since(begin).Seconds()
		set = s
	}
	probes := newProber(o)
	for i := 0; i < spec.warmup && i < set.len(); i++ {
		_ = set.run(i) // untimed; the timed pass runs and checks op i again
	}
	// Peak RSS covers the operations over one set of inputs, not the
	// garbage of the repeated set-ups.
	runtime.GC()
	debug.FreeOSMemory()
	rss := sampleRSS("/proc/self/status")
	lat := make([]float64, set.len())
	begin := time.Now()
	for i := range lat {
		t0 := time.Now()
		err := set.run(i)
		lat[i] = ms(time.Since(t0))
		if err != nil {
			o.fail("op %d: %v", i, err)
			lat[i] = failedLatencyMS
		}
		probes.probe(i, o)
	}
	elapsed := time.Since(begin)
	peakRSS := rss.peakMB()
	o.attempted += len(lat)
	ops := summarize(lat)

	if cfg.trace {
		if err := traceInproc(spec.name, set, o, ops, cfg); err != nil {
			return nil, err
		}
	}
	set.check(o)
	hits := summarize(probes.lat)
	if cfg.trace {
		o.set("graph.fingerprint_ms", ms(probes.fp)/float64(len(probes.lat)))
	}

	o.set("setup_s", median(setups))
	// One caller in a closed loop: throughput is the inverse of the mean
	// latency, which leaves out the probes between operations.
	o.set("ops_per_s", 1000/mean(lat))
	o.set("op_p50_ms", ops.P50MS)
	o.set("op_tail_ms", ops.TailMS)
	o.set("peak_rss_mb", peakRSS)
	o.set("hit_p50_ms", hits.P50MS)
	o.detail["setup_s_reps"] = setups
	o.detail["ops"] = ops
	o.detail["hit_probe"] = hits
	o.detail["measured_s"] = elapsed.Seconds()
	return o, nil
}

// traceInproc replays the sequence once more with every operation split
// into its layer calls, and turns the spans into per-layer metrics.
func traceInproc(name string, set opSet, o *outcome, untraced latencySummary, cfg runConfig) error {
	rec := newRecorder()
	c := counters{}
	n := set.len()
	for i := 0; i < n; i++ {
		o.attempted++
		if err := set.traced(i, rec, c); err != nil {
			o.fail("traced op %d: %v", i, err)
		}
	}
	traced := summarize(rootMS(rec.spans))
	self := selfTimes(rec.spans)
	perOp := func(name string) float64 { return ms(self[name]) / float64(n) }
	for _, layer := range []string{"graph.snapshot", "spantree.min_depth", "spantree.label",
		"implicit.new", "core.materialise", "fault.execute", "repair.run"} {
		o.set(layer+"_ms", perOp(layer))
	}
	for _, k := range []string{"spantree.roots_completed", "spantree.roots_pruned",
		"spantree.roots_short_circuited", "fault.dropped", "repair.iterations", "repair.rounds"} {
		o.set(k, c[k]/float64(n))
	}
	if v := c["implicit.vertices"]; v > 0 {
		o.set("implicit.bytes_per_vertex", c["implicit.bytes"]/v)
	}
	if r := c["implicit.rounds"]; r > 0 {
		o.set("implicit.round_append_us", c["implicit.round_append_ns"]/float64(time.Microsecond)/r)
		o.set("implicit.tx_per_round", c["implicit.tx"]/r)
		o.set("implicit.alloc_bytes_per_round", c["implicit.alloc_bytes"]/r)
	}
	o.set("trace.overhead_ratio", traced.P50MS/untraced.P50MS-1)
	o.set("trace.uncovered_share", uncoveredShare(rec.spans))
	o.detail["traced_ops"] = traced
	o.detail["untraced_ops"] = untraced
	return writeSpans(cfg, name, rec.spans, o)
}

// writeSpans writes a traced run's spans under the work directory.
func writeSpans(cfg runConfig, name string, spans []span, o *outcome) error {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.json", name, cfg.seed))
	if err := writeChromeTrace(path, spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	o.detail["spans_file"] = path
	return nil
}

// prober measures hit_p50_ms for an in-process workload, which has no
// cache in its operations but must report every end-to-end metric: the
// latency of a PlanCache request answered from memory for a Network that
// has not been fingerprinted yet, as a server holds one per request. The
// cache fingerprints the network and looks the plan up. One probe follows
// every timed operation, outside its timing, so the probes sample the same
// stretch of time as the operations; a short burst of probes would catch
// the host's speed of the moment. The probes cycle through serve's hot
// topologies (256 processors each): the probe's Network is built untimed
// just before it, and a network that small leaves little garbage for the
// operations that follow.
type prober struct {
	cache *mg.PlanCache
	lat   []float64
	fp    time.Duration // total time of the fingerprints alone
}

// newProber builds the plans the probes will find in the cache.
func newProber(o *outcome) *prober {
	p := &prober{cache: mg.NewPlanCache()}
	for _, h := range hotTopologies {
		if _, err := p.cache.Plan(h.topo.network()); err != nil {
			o.fail("hit probe warm: %v", err)
		}
	}
	return p
}

func (p *prober) probe(k int, o *outcome) {
	nw := hotTopologies[k%len(hotTopologies)].topo.network()
	o.attempted++
	t0 := time.Now()
	nw.Fingerprint()
	t1 := time.Now()
	_, src, err := p.cache.PlanSourced(nw)
	t2 := time.Now()
	p.fp += t1.Sub(t0)
	p.lat = append(p.lat, ms(t2.Sub(t0)))
	if err != nil || src != mg.CacheHit {
		o.fail("hit probe: source %v, error %v", src, err)
		p.lat[len(p.lat)-1] = failedLatencyMS
	}
}

// passes converts a run length into whole passes over a workload's class
// list, given how many passes one second holds at this commit.
func passes(seconds int, perSecond float64) int {
	return max(1, int(float64(seconds)*perSecond+0.5))
}
