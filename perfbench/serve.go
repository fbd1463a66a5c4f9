package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	mg "multigossip"
)

// The serve workload: an open-loop client at one fixed rate against a
// spawned gossipd whose plan store was filled before anything is timed.

const (
	// serveRate is the offered load, requests per second. It is below
	// saturation at this commit: the server is idle most of the time, so
	// latency measures the request path, not a growing backlog.
	serveRate = 200.0
	// serveSetupReps is how many times a run starts the server and warms
	// the hot set; setup_s is the median.
	serveSetupReps = 5
	// serveWarmup is how many untimed hit requests precede each pass.
	serveWarmup = 64
	// The mix has fixed positions, so every run of one length holds the
	// same number of each kind: a /mutate every 25th request (4%), spaced
	// so that consecutive mutations of the one session never overlap in
	// flight; a round window every 25th (4%); a cold miss every 50th (2%).
	// Cold misses are twice the samples beyond the p99, so op_tail_ms sits
	// in the middle of their distribution, not on its last samples.
	mutateEvery = 25
	windowEvery = 25
	coldEvery   = 50
	// windowRounds is the rounds_count of a windowed /plan request.
	windowRounds = 8
	// coldN is the size of a cold miss's random topology (average degree
	// 6). A fixed size keeps the cost of misses, which set the tail, alike
	// from seed to seed.
	coldN = 512
	// sessionName is the one churn session the flaps mutate.
	sessionName = "flap"
)

// hotAlgorithms and hotTopologies span the hot set: four deterministic
// tree-based algorithms on three named families of 256 processors. Only
// the ConcurrentUpDown plans come back from the store today; the others
// are rebuilt while warming.
var (
	hotAlgorithms = []string{"cud", "simple", "pipelined", "weighted"}
	hotTopologies = []struct {
		spec map[string]any
		topo topo // the same topology, for the in-process layer probes
	}{
		{map[string]any{"topology": "ring", "n": 256}, ring(256)},
		{map[string]any{"topology": "mesh", "rows": 16, "cols": 16}, grid(16, 16)},
		{map[string]any{"topology": "torus", "rows": 16, "cols": 16}, torus(16, 16)},
	}
	// sessionTopo is the churn session's topology. A torus is
	// 4-edge-connected, so no flap can remove a bridge.
	sessionTopo = torus(12, 20)
)

// reqKind classifies a request of the serve mix.
type reqKind int

const (
	kindHit reqKind = iota
	kindCold
	kindWindow
	kindMutate
)

// serveReq is one pre-encoded request of the sequence.
type serveReq struct {
	kind reqKind
	path string
	body []byte
	// n and radius are the size and graph radius a ConcurrentUpDown
	// answer must report, with rounds = n + radius; radius is -1 for the
	// other algorithms and for mutations.
	n, radius int
}

// planReply holds the fields of /plan and /mutate responses the checks use.
type planReply struct {
	Source      string            `json:"source"`
	PlanMS      float64           `json:"plan_ms"`
	Processors  int               `json:"processors"`
	Radius      int               `json:"radius"`
	Rounds      int               `json:"rounds"`
	Schedule    []json.RawMessage `json:"schedule"`
	RoundsCount *int              `json:"rounds_count"`
	Fingerprint string            `json:"fingerprint"`
	Outcome     string            `json:"outcome"`
	Results     []struct {
		Error string `json:"error"`
	} `json:"results"`
}

// serveRec is what the client observed for one request.
type serveRec struct {
	timing
	status int
	err    error
	reply  planReply
}

// timing is one open-loop request's clock: when it was due, when a
// connection took it, and when its response was read.
type timing struct {
	due, start, end time.Time
}

// latency is measured from the due time, so a stall that delays later
// requests is charged to them as well.
func (t timing) latency() time.Duration { return t.end.Sub(t.due) }

// late is how far behind schedule the generator sent the request.
func (t timing) late() time.Duration { return max(0, t.start.Sub(t.due)) }

// dueAt is request i's send time at a fixed rate.
func dueAt(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// flapper generates the session's link flaps: remove a random link, then
// add it back, so at most one link is missing between flaps.
type flapper struct {
	edges   [][2]int
	pending *[2]int
}

func (f *flapper) next(rng *rand.Rand) []byte {
	m := map[string]any{"op": "add"}
	if f.pending == nil {
		e := f.edges[rng.Intn(len(f.edges))]
		f.pending = &e
		m["op"] = "remove"
	}
	m["u"], m["v"] = f.pending[0], f.pending[1]
	if m["op"] == "add" {
		f.pending = nil
	}
	return mustJSON(map[string]any{"session": sessionName, "mutations": []any{m}})
}

// serveSequence generates count requests from rng: /mutate flaps, cold
// misses on distinct random topologies and round windows over the hot set
// at fixed positions, and hot-set hits everywhere else.
func serveSequence(rng *rand.Rand, count int, hotRounds []int, flaps *flapper) []serveReq {
	seq := make([]serveReq, count)
	for i := range seq {
		switch {
		case i%mutateEvery == mutateEvery/2:
			seq[i] = serveReq{kind: kindMutate, path: "/mutate", body: flaps.next(rng), radius: -1}
		case i%coldEvery == 0:
			t := randomGraph(rng, coldN, 6)
			seq[i] = serveReq{kind: kindCold, path: "/plan", n: t.n, radius: t.bfsRadius(), body: mustJSON(map[string]any{
				"processors": t.n, "edges": t.edges, "algorithm": "cud"})}
		case i%windowEvery == windowEvery/4:
			k := rng.Intn(len(hotRounds))
			body := hotBody(k)
			body["rounds_from"] = rng.Intn(hotRounds[k] - windowRounds + 1)
			body["rounds_count"] = windowRounds
			seq[i] = hotReq(kindWindow, k, body)
		default:
			k := rng.Intn(len(hotRounds))
			seq[i] = hotReq(kindHit, k, hotBody(k))
		}
	}
	return seq
}

// hotReq is a /plan request on hot key k. The hot topologies' radii have
// closed forms, so a ConcurrentUpDown answer is checked against them.
func hotReq(kind reqKind, k int, body map[string]any) serveReq {
	req := serveReq{kind: kind, path: "/plan", body: mustJSON(body), radius: -1}
	if hotAlgo(k) == "cud" {
		t := hotTopologies[k/len(hotAlgorithms)].topo
		req.n, req.radius = t.n, t.radius
	}
	return req
}

// hotBody is the /plan request body of hot key k.
func hotBody(k int) map[string]any {
	body := map[string]any{"algorithm": hotAlgo(k)}
	for key, v := range hotTopologies[k/len(hotAlgorithms)].spec {
		body[key] = v
	}
	return body
}

func hotAlgo(k int) string { return hotAlgorithms[k%len(hotAlgorithms)] }

func hotKeys() int { return len(hotTopologies) * len(hotAlgorithms) }

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers and strings are encoded
	}
	return data
}

// gossipd is one spawned server process.
type gossipd struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startGossipd spawns the server and returns once /healthz answers.
func startGossipd(bin, storeDir, logPath string, procs, workers int, client *http.Client) (*gossipd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(workers), "-store", storeDir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without stopping it, the kernel kills the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting gossipd: %w", err)
	}
	g := &gossipd{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { g.done <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(g.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return g, nil
			}
		}
		select {
		case err := <-g.done:
			g.done <- err
			return nil, fmt.Errorf("gossipd exited before answering (%v); see %s", err, logPath)
		default:
		}
		if time.Now().After(deadline) {
			g.stop()
			return nil, fmt.Errorf("gossipd not healthy within 20s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if the drain hangs.
func (g *gossipd) stop() {
	if g == nil {
		return
	}
	_ = g.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-g.done:
	case <-time.After(15 * time.Second):
		_ = g.cmd.Process.Kill()
		<-g.done
	}
}

// sampleRSS starts tracking the server's peak resident set size.
func (g *gossipd) sampleRSS() *rssSampler {
	return sampleRSS(fmt.Sprintf("/proc/%d/status", g.cmd.Process.Pid))
}

// post sends one request and decodes the reply.
func post(client *http.Client, url string, body []byte) (int, planReply, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, planReply{}, err
	}
	defer resp.Body.Close()
	var r planReply
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, r, err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(data, &r)
	}
	return resp.StatusCode, r, err
}

// scrape reads every unlabelled series of /metrics.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(data)), nil
}

func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// cacheDelta is the change of the plan cache counters over one pass.
type cacheDelta struct {
	hits, misses, disk, coalesced, evictions, entries int64
}

func deltaOf(before, after map[string]float64) cacheDelta {
	d := func(name string) int64 { return int64(after[name] - before[name]) }
	return cacheDelta{
		hits: d("plancache_hits_total"), misses: d("plancache_misses_total"),
		disk: d("plancache_disk_hits_total"), coalesced: d("plancache_coalesced_total"),
		evictions: d("plancache_evictions_total"), entries: d("plancache_entries"),
	}
}

// mutationCacheEffects predicts how a pass's /mutate requests touched the
// plan cache. After every change the session's planner looks the new
// topology up: a fingerprint already published is a cache hit, and any
// other is published as a new entry. fps are the fingerprints of changed
// mutations in the order the server applied them; published holds those
// cached before the pass and is updated.
func mutationCacheEffects(published map[string]bool, fps []string) (lookups, inserts int) {
	for _, fp := range fps {
		if published[fp] {
			lookups++
		} else {
			inserts++
			published[fp] = true
		}
	}
	return lookups, inserts
}

// reconcile checks the sources the client observed against the server's
// counter deltas: every /plan source and every predicted /mutate lookup
// and insert must be accounted for exactly.
func reconcile(sources map[string]int, lookups, inserts int, d cacheDelta) error {
	var errs []error
	check := func(what string, got, want int64) {
		if got != want {
			errs = append(errs, fmt.Errorf("%s: server %d, client %d", what, got, want))
		}
	}
	check("hits", d.hits, int64(sources["hit"]+lookups))
	check("misses", d.misses, int64(sources["miss"]))
	check("disk hits", d.disk, int64(sources["disk"]))
	check("coalesced", d.coalesced, int64(sources["coalesced"]))
	check("entries", d.entries, int64(sources["miss"]+sources["disk"]+inserts)-d.evictions)
	return errors.Join(errs...)
}

// passResult is one open-loop pass and what its checks found.
type passResult struct {
	recs    []serveRec
	seq     []serveReq
	delta   cacheDelta
	before  map[string]float64
	after   map[string]float64
	rssMB   float64
	sources map[string]int
	churn   map[string]int
}

// runPass replays seq open-loop against the server over conns connections.
func runPass(client *http.Client, srv *gossipd, seq []serveReq, conns int) (*passResult, error) {
	before, err := scrape(client, srv.base)
	if err != nil {
		return nil, err
	}
	rss := srv.sampleRSS()
	recs := make([]serveRec, len(seq))
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r := &recs[i]
				r.start = time.Now()
				r.status, r.reply, r.err = post(client, srv.base+seq[i].path, seq[i].body)
				r.end = time.Now()
			}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
	for i := range seq {
		recs[i].due = dueAt(start, i, serveRate)
		waitUntil(recs[i].due)
		work <- i
	}
	close(work)
	wg.Wait()
	pr := &passResult{recs: recs, seq: seq, before: before, rssMB: rss.peakMB()}
	if pr.after, err = scrape(client, srv.base); err != nil {
		return nil, err
	}
	pr.delta = deltaOf(before, pr.after)
	return pr, nil
}

// waitUntil returns at t. The runtime's timers wake an idle process with
// millisecond granularity, which would add up to 1 ms of generator lateness
// to every request, so the last millisecond is spent yielding to the
// connection goroutines instead of sleeping.
func waitUntil(t time.Time) {
	time.Sleep(time.Until(t) - time.Millisecond)
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// check validates every response of the pass and reconciles the cache
// counters; each failure counts against the pass.
func (pr *passResult) check(o *outcome, published map[string]bool) {
	pr.sources = map[string]int{}
	pr.churn = map[string]int{}
	type mut struct {
		end time.Time
		fp  string
	}
	var muts []mut
	for i, r := range pr.recs {
		req := pr.seq[i]
		o.attempted++
		switch {
		case r.err != nil:
			o.fail("request %d: %v", i, r.err)
			continue
		case r.status != http.StatusOK:
			o.fail("request %d: status %d", i, r.status)
			continue
		}
		rep := r.reply
		if req.kind == kindMutate {
			for _, res := range rep.Results {
				if res.Error != "" {
					o.fail("request %d: mutation refused: %s", i, res.Error)
				}
			}
			pr.churn[rep.Outcome]++
			if rep.Outcome != mg.PatchUnchanged.String() {
				muts = append(muts, mut{r.end, rep.Fingerprint})
			}
			continue
		}
		pr.sources[rep.Source]++
		if req.radius >= 0 && (rep.Processors != req.n || rep.Radius != req.radius || rep.Rounds != req.n+req.radius) {
			o.fail("request %d: n=%d, radius %d and %d rounds, want n=%d, radius %d and n + r = %d",
				i, rep.Processors, rep.Radius, rep.Rounds, req.n, req.radius, req.n+req.radius)
		}
		if req.kind == kindWindow && (rep.RoundsCount == nil || *rep.RoundsCount != windowRounds || len(rep.Schedule) != windowRounds) {
			o.fail("request %d: round window of %d rounds, want %d", i, len(rep.Schedule), windowRounds)
		}
	}
	// The server applies a session's mutations one at a time and answers
	// each before taking the next, so completion order is apply order.
	sort.Slice(muts, func(i, j int) bool { return muts[i].end.Before(muts[j].end) })
	fps := make([]string, len(muts))
	for i, m := range muts {
		fps[i] = m.fp
	}
	lookups, inserts := mutationCacheEffects(published, fps)
	o.attempted++
	if err := reconcile(pr.sources, lookups, inserts, pr.delta); err != nil {
		o.fail("client sources and /metrics deltas disagree: %v", err)
	}
}

// latencies returns the pass's latencies in ms, failures as failedLatencyMS,
// and those of plain hot-set requests answered from memory.
func (pr *passResult) latencies() (all, hits []float64) {
	for i, r := range pr.recs {
		l := ms(r.latency())
		if r.err != nil || r.status != http.StatusOK {
			l = failedLatencyMS
		}
		all = append(all, l)
		if pr.seq[i].kind == kindHit && r.reply.Source == "hit" {
			hits = append(hits, l)
		}
	}
	return all, hits
}

// byKind summarises latency per request kind, and counts which kinds the
// samples beyond the tail percentile belong to.
func (pr *passResult) byKind() map[string]any {
	names := []string{"hit", "cold", "window", "mutate"}
	lat := make([][]float64, len(names))
	all, _ := pr.latencies()
	for i, l := range all {
		lat[pr.seq[i].kind] = append(lat[pr.seq[i].kind], l)
	}
	s := sortedCopy(all)
	cut := percentile(s, tailLevel(len(s)))
	beyond := map[string]int{}
	out := map[string]any{"beyond_tail": beyond}
	for k, name := range names {
		out[name] = summarize(lat[k])
		for _, l := range lat[k] {
			if l > cut {
				beyond[name]++
			}
		}
	}
	return out
}

// latenessMS is how late the generator sent each request, in ms.
func (pr *passResult) latenessMS() []float64 {
	out := make([]float64, len(pr.recs))
	for i, r := range pr.recs {
		out[i] = ms(r.late())
	}
	return out
}

// warmStats is what warming the hot set from the store cost.
type warmStats struct {
	diskMS   float64 // client time of the requests the store answered
	rebuilds int     // requests answered by a rebuild
	rounds   []int   // rounds of each hot key
}

// warmHot requests every hot key once.
func warmHot(client *http.Client, base string) (warmStats, error) {
	w := warmStats{rounds: make([]int, hotKeys())}
	for k := range w.rounds {
		t0 := time.Now()
		status, rep, err := post(client, base+"/plan", mustJSON(hotBody(k)))
		if err != nil || status != http.StatusOK {
			return w, fmt.Errorf("warming hot key %d: status %d, %v", k, status, err)
		}
		switch rep.Source {
		case "disk":
			w.diskMS += ms(time.Since(t0))
		case "miss":
			w.rebuilds++
		}
		w.rounds[k] = rep.Rounds
	}
	return w, nil
}

// createSession opens the churn session and returns its fingerprint.
func createSession(client *http.Client, base string) (string, error) {
	status, rep, err := post(client, base+"/mutate", mustJSON(map[string]any{
		"session": sessionName, "processors": sessionTopo.n, "edges": sessionTopo.edges}))
	if err != nil || status != http.StatusOK {
		return "", fmt.Errorf("creating the churn session: status %d, %v", status, err)
	}
	return rep.Fingerprint, nil
}

// warmup sends untimed hot-set hits, so connections and both processes'
// request paths are warm before the counters are read.
func warmup(client *http.Client, base string, rng *rand.Rand) error {
	for i := 0; i < serveWarmup; i++ {
		status, _, err := post(client, base+"/plan", mustJSON(hotBody(rng.Intn(hotKeys()))))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up request: status %d, %v", status, err)
		}
	}
	return nil
}

func runServe(cfg runConfig) (*outcome, error) {
	o := &outcome{detail: map[string]any{}}
	// gossipd and this load generator share the CPUs: together they use at
	// most nproc. The client holds at most nproc connections.
	nproc := runtime.NumCPU()
	srvProcs := max(1, nproc/2)
	runtime.GOMAXPROCS(max(1, nproc-srvProcs))
	conns, workers := nproc, nproc
	o.procs = map[string]int{"gossipd": srvProcs}

	dir := filepath.Join(cfg.workdir, fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, logPath := filepath.Join(dir, "store"), filepath.Join(dir, "gossipd.log")
	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
	defer client.CloseIdleConnections()

	// Fill the store before anything is timed.
	srv, err := startGossipd(cfg.gossipd, store, logPath, srvProcs, workers, client)
	if err != nil {
		return nil, err
	}
	_, err = warmHot(client, srv.base)
	srv.stop()
	if err != nil {
		return nil, err
	}

	// setup_s: start the server on the filled store, warm the hot set and
	// open the churn session, several times; the last server stays up.
	var setups, diskMS []float64
	var warm warmStats
	var sessionFP string
	srv = nil
	defer func() { srv.stop() }()
	for r := 0; r < serveSetupReps; r++ {
		srv.stop()
		client.CloseIdleConnections()
		begin := time.Now()
		if srv, err = startGossipd(cfg.gossipd, store, logPath, srvProcs, workers, client); err != nil {
			return nil, err
		}
		if warm, err = warmHot(client, srv.base); err != nil {
			return nil, err
		}
		if sessionFP, err = createSession(client, srv.base); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
		diskMS = append(diskMS, warm.diskMS)
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	flaps := &flapper{edges: sessionTopo.edges}
	published := map[string]bool{sessionFP: true}
	count := int(serveRate * float64(cfg.seconds))
	seq := serveSequence(rng, count, warm.rounds, flaps)
	if err := warmup(client, srv.base, rng); err != nil {
		return nil, err
	}
	pass, err := runPass(client, srv, seq, conns)
	if err != nil {
		return nil, err
	}
	pass.check(o, published)
	all, hits := pass.latencies()
	ops := summarize(all)
	var last time.Time
	for _, r := range pass.recs {
		last = maxTime(last, r.end)
	}
	okOps := 0
	for _, l := range all {
		if l != failedLatencyMS {
			okOps++
		}
	}
	o.set("setup_s", median(setups))
	o.set("ops_per_s", float64(okOps)/last.Sub(pass.recs[0].due).Seconds())
	o.set("op_p50_ms", ops.P50MS)
	o.set("op_tail_ms", ops.TailMS)
	o.set("peak_rss_mb", pass.rssMB)
	o.set("hit_p50_ms", summarize(hits).P50MS)
	o.detail["setup_s_reps"] = setups
	o.detail["ops"] = ops
	o.detail["hits"] = summarize(hits)
	o.detail["generator_lateness"] = summarize(pass.latenessMS())
	o.detail["by_kind"] = pass.byKind()
	o.detail["sources"] = pass.sources
	o.detail["churn"] = pass.churn
	o.detail["offered_rate"] = serveRate
	o.detail["connections"] = conns
	o.detail["gossipd_workers"] = workers

	if cfg.trace {
		traceServe(o, cfg, pass, warm, diskMS)
	}
	return o, nil
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// traceServe turns the pass into per-layer metrics: client spans, the
// server's plan_ms, and the /metrics deltas. All of them are read off what
// the untraced pass already records, so tracing adds nothing to the request
// path and trace.overhead_ratio is 0 by construction.
func traceServe(o *outcome, cfg runConfig, pr *passResult, warm warmStats, diskMS []float64) {
	rec := newRecorder()
	var planMS, outside []float64
	for i, r := range pr.recs {
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		root := rec.add("op", i, -1, r.due, r.end)
		rec.add("loadgen.queue", i, root, r.due, r.start)
		if pr.seq[i].path == "/plan" {
			plan := time.Duration(r.reply.PlanMS * float64(time.Millisecond))
			rec.add("gossipd.plan", i, root, r.end.Add(-plan), r.end)
			planMS = append(planMS, r.reply.PlanMS)
			if pr.seq[i].kind == kindHit && r.reply.Source == "hit" {
				outside = append(outside, ms(r.latency())-r.reply.PlanMS)
			}
		}
	}
	roots := rootMS(rec.spans)
	o.set("trace.overhead_ratio", 0)
	o.set("trace.uncovered_share", uncoveredShare(rec.spans))
	o.set("gossipd.server_plan_ms", mean(planMS))
	o.set("gossipd.outside_plan_ms", median(outside))
	if n := pr.after["gossipd_request_seconds_count"] - pr.before["gossipd_request_seconds_count"]; n > 0 {
		o.set("gossipd.request_s", (pr.after["gossipd_request_seconds_sum"]-pr.before["gossipd_request_seconds_sum"])/n)
	}
	o.set("loadgen.late_p99_ms", percentile(sortedCopy(pr.latenessMS()), 9900))
	d := pr.delta
	if total := d.hits + d.misses + d.disk + d.coalesced; total > 0 {
		o.set("plancache.hit_ratio", float64(d.hits)/float64(total))
	}
	o.set("plancache.coalesced", float64(d.coalesced))
	o.set("plancache.evictions", float64(d.evictions))
	o.set("plancache.disk_hits", float64(d.disk))
	o.set("planstore.warm_load_ms", median(diskMS))
	o.set("planstore.warm_rebuilds", float64(warm.rebuilds))
	o.set("churn.reused", float64(pr.churn[mg.PatchReused.String()]))
	o.set("churn.grafted", float64(pr.churn[mg.PatchGrafted.String()]))
	o.set("churn.rebuilt", float64(pr.churn[mg.PatchRebuilt.String()]))

	// The server fingerprints a freshly built network on every request and
	// keeps the hot set's ConcurrentUpDown plans in implicit form; both are
	// measured here in-process on the same topologies.
	var fp time.Duration
	var bytes, vertices float64
	for _, h := range hotTopologies {
		for j := 0; j < 32; j++ {
			nw := h.topo.network()
			t0 := time.Now()
			nw.Fingerprint()
			fp += time.Since(t0)
		}
		if p, err := h.topo.network().PlanGossip(); err == nil {
			bytes += float64(p.SizeBytes())
			vertices += float64(h.topo.n)
		}
	}
	o.set("graph.fingerprint_ms", ms(fp)/float64(32*len(hotTopologies)))
	o.set("implicit.bytes_per_vertex", bytes/vertices)
	o.detail["traced_ops"] = summarize(roots)
	if err := writeSpans(cfg, "serve", rec.spans, o); err != nil {
		o.detail["spans_error"] = err.Error()
	}
}
