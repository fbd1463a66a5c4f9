// storebench.go is loadgen's store/failover benchmark: instead of driving a
// single already-running gossipd, it spawns its own replica fleet over
// per-replica store directories and measures the robustness story end to
// end — cold construction cost, warm-start-from-disk cost after a hard kill
// of every replica, and client-observed availability while one replica dies
// and recovers mid-run.
//
// The kills are SIGKILL on purpose: the store's crash-safety claim is about
// processes that stop between any two instructions, and a graceful drain
// would test nothing. A restarted replica must come back warm (plans load
// from disk, zero rebuilds) and the client's bounded retries must hide the
// outage almost completely (the -assert gate requires >= 99.9% success).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"multigossip/internal/cliutil"
)

type storeBenchConfig struct {
	bin      string
	replicas int
	coldKeys int
	n        int
	rate     float64
	failover time.Duration
	retries  int
	seed     int64
	out      string
	assert   bool
	ready    time.Duration
}

// replica is one spawned gossipd process and the state needed to kill and
// resurrect it over the same store directory.
type replica struct {
	addr  string
	url   string
	store string
	cmd   *exec.Cmd
}

type tailQuantiles struct {
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
	N    int     `json:"n"`
}

// storeRecord is the BENCH_store.json shape.
type storeRecord struct {
	cliutil.Env
	Config struct {
		Replicas    int     `json:"replicas"`
		ColdKeys    int     `json:"cold_keys"`
		N           int     `json:"n"`
		Rate        float64 `json:"rate_per_s"`
		FailoverDur string  `json:"failover_duration"`
		Retries     int     `json:"retries"`
		Seed        int64   `json:"seed"`
	} `json:"config"`

	// Cold: every key requested once against empty caches and stores.
	Cold struct {
		Keys          int           `json:"keys"`
		Misses        int64         `json:"misses"`
		LatencyMS     tailQuantiles `json:"latency_ms"`
		ServerPlanMS  tailQuantiles `json:"server_plan_ms"`
		StoreWrites   int64         `json:"store_writes"`
		StoreDegraded bool          `json:"store_degraded"`
	} `json:"cold"`

	// Warm: every replica SIGKILLed and restarted over its store directory,
	// then every key requested once again. Misses must be zero — the whole
	// working set comes back from disk.
	Warm struct {
		Keys         int           `json:"keys"`
		Misses       int64         `json:"misses"`
		DiskHits     int64         `json:"disk_hits"`
		LatencyMS    tailQuantiles `json:"latency_ms"`
		ServerPlanMS tailQuantiles `json:"server_plan_ms"`
		// SpeedupP50 is cold construction p50 over warm disk-load p50, as
		// the server measured both in-handler.
		SpeedupP50 float64 `json:"speedup_p50"`
	} `json:"warm"`

	// Failover: open-loop load with bounded retries while one replica is
	// killed at one third of the run and restarted at two thirds.
	Failover struct {
		Requests      int           `json:"requests"`
		Succeeded     int           `json:"succeeded"`
		SuccessRate   float64       `json:"success_rate"`
		RetriesUsed   int           `json:"retries_used"`
		KilledReplica string        `json:"killed_replica"`
		DownMS        float64       `json:"down_ms"`
		RecoveryMS    float64       `json:"recovery_ms"`
		LatencyMS     tailQuantiles `json:"latency_ms"`
	} `json:"failover"`
}

func runStoreBench(cfg storeBenchConfig) error {
	if cfg.replicas < 1 {
		cfg.replicas = 1
	}
	if cfg.retries < 0 {
		cfg.retries = 0
	}
	root, err := os.MkdirTemp("", "gossipd-storebench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	reps := make([]*replica, cfg.replicas)
	for i := range reps {
		port, err := freePort()
		if err != nil {
			return err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		reps[i] = &replica{
			addr:  addr,
			url:   "http://" + addr,
			store: filepath.Join(root, fmt.Sprintf("replica-%d", i)),
		}
	}
	peers := make([]string, len(reps))
	for i, r := range reps {
		peers[i] = r.url
	}
	client := &http.Client{Timeout: 30 * time.Second}
	startAll := func() error {
		for _, r := range reps {
			if err := r.start(cfg.bin, peers); err != nil {
				killAll(reps)
				return err
			}
		}
		for _, r := range reps {
			if err := waitReady(client, r.url, cfg.ready); err != nil {
				killAll(reps)
				return err
			}
		}
		return nil
	}
	if err := startAll(); err != nil {
		return err
	}
	defer killAll(reps)

	keys := benchKeys(cfg.coldKeys, cfg.n)
	rec := storeRecord{Env: cliutil.NewEnv("cmd/loadgen",
		"store/failover: cold construction vs warm start from disk after SIGKILL, and client success through a replica kill and restart")}
	rec.Config.Replicas = cfg.replicas
	rec.Config.ColdKeys = cfg.coldKeys
	rec.Config.N = cfg.n
	rec.Config.Rate = cfg.rate
	rec.Config.FailoverDur = cfg.failover.String()
	rec.Config.Retries = cfg.retries
	rec.Config.Seed = cfg.seed

	// ---- Cold phase: construct (and persist) every key once. ----
	base, err := scrapeAll(client, reps)
	if err != nil {
		return err
	}
	coldLat, coldPlan, err := sweepKeys(client, reps, keys, cfg.retries)
	if err != nil {
		return fmt.Errorf("cold sweep: %w", err)
	}
	after, err := scrapeAll(client, reps)
	if err != nil {
		return err
	}
	rec.Cold.Keys = len(keys)
	rec.Cold.Misses = after["plancache_misses_total"] - base["plancache_misses_total"]
	rec.Cold.StoreWrites = after["planstore_writes_total"] - base["planstore_writes_total"]
	rec.Cold.StoreDegraded = after["planstore_degraded"] > 0
	rec.Cold.LatencyMS = tails(coldLat)
	rec.Cold.ServerPlanMS = tails(coldPlan)

	// ---- Warm phase: kill everything hard, restart over the same stores. ----
	killAll(reps)
	if err := startAll(); err != nil {
		return fmt.Errorf("restart after kill: %w", err)
	}
	base, err = scrapeAll(client, reps)
	if err != nil {
		return err
	}
	warmLat, warmPlan, err := sweepKeys(client, reps, keys, cfg.retries)
	if err != nil {
		return fmt.Errorf("warm sweep: %w", err)
	}
	after, err = scrapeAll(client, reps)
	if err != nil {
		return err
	}
	rec.Warm.Keys = len(keys)
	rec.Warm.Misses = after["plancache_misses_total"] - base["plancache_misses_total"]
	rec.Warm.DiskHits = after["plancache_disk_hits_total"] - base["plancache_disk_hits_total"]
	rec.Warm.LatencyMS = tails(warmLat)
	rec.Warm.ServerPlanMS = tails(warmPlan)
	if rec.Warm.ServerPlanMS.P50 > 0 {
		rec.Warm.SpeedupP50 = rec.Cold.ServerPlanMS.P50 / rec.Warm.ServerPlanMS.P50
	}

	// ---- Failover phase: open-loop load; one replica dies and returns. ----
	if cfg.replicas > 1 && cfg.failover > 0 {
		if err := failoverPhase(&rec, client, reps, peers, keys, cfg); err != nil {
			return err
		}
	}

	if cfg.out != "" && cfg.out != "-" && cfg.out != "/dev/null" {
		if err := cliutil.WriteRecord(cfg.out, rec); err != nil {
			return err
		}
	}
	fmt.Printf("storebench: cold %d keys (%d builds, plan p50 %.2fms) | warm %d disk hits, %d rebuilds, plan p50 %.3fms (%.0fx) | failover %d/%d ok (%.4f), recovery %.0fms\n",
		rec.Cold.Keys, rec.Cold.Misses, rec.Cold.ServerPlanMS.P50,
		rec.Warm.DiskHits, rec.Warm.Misses, rec.Warm.ServerPlanMS.P50, rec.Warm.SpeedupP50,
		rec.Failover.Succeeded, rec.Failover.Requests, rec.Failover.SuccessRate, rec.Failover.RecoveryMS)

	if cfg.assert {
		switch {
		case rec.Cold.Misses == 0:
			return fmt.Errorf("cold phase constructed nothing")
		case rec.Cold.StoreWrites == 0 || rec.Cold.StoreDegraded:
			return fmt.Errorf("store wrote %d entries, degraded=%v: persistence is not happening",
				rec.Cold.StoreWrites, rec.Cold.StoreDegraded)
		case rec.Warm.Misses != 0:
			return fmt.Errorf("warm start rebuilt %d plans, want 0 (all from disk)", rec.Warm.Misses)
		case rec.Warm.DiskHits == 0:
			return fmt.Errorf("warm start loaded nothing from disk")
		case cfg.replicas > 1 && cfg.failover > 0 && rec.Failover.SuccessRate < 0.999:
			return fmt.Errorf("failover success rate %.4f below 0.999 (%d/%d)",
				rec.Failover.SuccessRate, rec.Failover.Succeeded, rec.Failover.Requests)
		}
	}
	return nil
}

// benchKeys is the deterministic working set: distinct random topologies
// (one per seed) that fingerprint identically across phases and replicas.
// The algorithm cycles through every planner the store persists, so the
// zero-rebuild warm start covers all of them.
func benchKeys(count, n int) []map[string]any {
	algos := []string{"cud", "simple", "pipelined", "weighted"}
	keys := make([]map[string]any, count)
	for i := range keys {
		keys[i] = map[string]any{"topology": "random", "n": n, "p": 0.01, "seed": 20_000 + i, "algorithm": algos[i%len(algos)]}
	}
	return keys
}

// sweepKeys requests every key once, spread round-robin over the replicas,
// and returns client latencies and server-reported in-handler plan times.
func sweepKeys(client *http.Client, reps []*replica, keys []map[string]any, retries int) (latMS, planMS []float64, err error) {
	rng := rand.New(rand.NewSource(42))
	for i, key := range keys {
		targets := rotate(replicaURLs(reps), i)
		res := fireRetry(client, targets, key, retries, rng)
		if !res.ok {
			return nil, nil, fmt.Errorf("key %d failed after %d attempts (last status %d)", i, res.attempts, res.status)
		}
		latMS = append(latMS, float64(res.latency.Microseconds())/1000)
		planMS = append(planMS, res.planMS)
	}
	return latMS, planMS, nil
}

func failoverPhase(rec *storeRecord, client *http.Client, reps []*replica, peers []string, keys []map[string]any, cfg storeBenchConfig) error {
	victim := reps[len(reps)-1]
	rec.Failover.KilledReplica = victim.url
	interval := time.Duration(float64(time.Second) / cfg.rate)
	killAt := time.Now().Add(cfg.failover / 3)
	restartAt := time.Now().Add(2 * cfg.failover / 3)
	deadline := time.Now().Add(cfg.failover)

	var (
		mu        sync.Mutex
		latencies []float64
		succeeded int
		requests  int
		retried   int
		wg        sync.WaitGroup
	)
	rng := rand.New(rand.NewSource(cfg.seed))
	var killed, restarted bool
	var killedAt time.Time
	i := 0
	for now := time.Now(); now.Before(deadline); now = time.Now() {
		if !killed && now.After(killAt) {
			victim.kill()
			killed, killedAt = true, time.Now()
		}
		if killed && !restarted && now.After(restartAt) {
			if err := victim.start(cfg.bin, peers); err != nil {
				return fmt.Errorf("restarting victim: %w", err)
			}
			if err := waitReady(client, victim.url, cfg.ready); err != nil {
				return fmt.Errorf("victim never became ready: %w", err)
			}
			restarted = true
			rec.Failover.DownMS = float64(time.Since(killedAt).Microseconds()) / 1000
			rec.Failover.RecoveryMS = float64(time.Since(restartAt).Microseconds()) / 1000
		}
		key := keys[i%len(keys)]
		targets := rotate(replicaURLs(reps), i)
		i++
		seed := rng.Int63()
		wg.Add(1)
		requests++
		go func() {
			defer wg.Done()
			res := fireRetry(client, targets, key, cfg.retries, rand.New(rand.NewSource(seed)))
			mu.Lock()
			defer mu.Unlock()
			if res.ok {
				succeeded++
				latencies = append(latencies, float64(res.latency.Microseconds())/1000)
			}
			retried += res.attempts - 1
		}()
		time.Sleep(time.Until(now.Add(interval)))
	}
	wg.Wait()
	if killed && !restarted {
		// The schedule ran out before the restart mark — still bring the
		// victim back so the record reflects a full cycle.
		if err := victim.start(cfg.bin, peers); err != nil {
			return fmt.Errorf("restarting victim post-run: %w", err)
		}
		begin := time.Now()
		if err := waitReady(client, victim.url, cfg.ready); err != nil {
			return fmt.Errorf("victim never became ready: %w", err)
		}
		rec.Failover.DownMS = float64(time.Since(killedAt).Microseconds()) / 1000
		rec.Failover.RecoveryMS = float64(time.Since(begin).Microseconds()) / 1000
	}
	rec.Failover.Requests = requests
	rec.Failover.Succeeded = succeeded
	if requests > 0 {
		rec.Failover.SuccessRate = float64(succeeded) / float64(requests)
	}
	rec.Failover.RetriesUsed = retried
	rec.Failover.LatencyMS = tails(latencies)
	return nil
}

// attemptResult is the outcome of one logical request after bounded retries.
type attemptResult struct {
	ok       bool
	status   int
	attempts int
	latency  time.Duration
	planMS   float64
}

// fireRetry posts the plan request, retrying with exponential backoff and
// full jitter on exactly the transient failures a replicated deployment
// produces: transport errors (a dead replica's connection refused), 429
// (admission shed) and 502/503 (saturation, drain). Each retry moves to the
// next target, so a request that first hits the dead replica lands on a
// survivor. 4xx application errors are permanent and never retried.
func fireRetry(c *http.Client, targets []string, body map[string]any, retries int, rng *rand.Rand) attemptResult {
	data, _ := json.Marshal(body)
	begin := time.Now()
	backoff := 25 * time.Millisecond
	res := attemptResult{status: -1}
	for attempt := 0; ; attempt++ {
		res.attempts = attempt + 1
		url := targets[attempt%len(targets)]
		resp, err := c.Post(url+"/plan", "application/json", bytes.NewReader(data))
		if err == nil {
			res.status = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				var pr struct {
					PlanMS float64 `json:"plan_ms"`
				}
				if json.NewDecoder(resp.Body).Decode(&pr) == nil {
					res.planMS = pr.PlanMS
				}
				resp.Body.Close()
				res.ok = true
				res.latency = time.Since(begin)
				return res
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if !retryable(resp.StatusCode) {
				res.latency = time.Since(begin)
				return res
			}
		} else {
			res.status = -1
		}
		if attempt >= retries {
			res.latency = time.Since(begin)
			return res
		}
		// Full jitter: sleep uniform in [0, backoff), then double the cap.
		time.Sleep(time.Duration(rng.Int63n(int64(backoff))))
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

func retryable(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusBadGateway ||
		status == http.StatusServiceUnavailable
}

func (r *replica) start(bin string, peers []string) error {
	// A deep queue keeps saturation transient: on small machines the whole
	// fleet shares a core or two, and shedding with 429 during the outage
	// spike would charge the benchmark for the machine, not the design.
	args := []string{"-addr", r.addr, "-store", r.store, "-queue", "256"}
	if len(peers) > 1 {
		args = append(args, "-peers", strings.Join(peers, ","), "-self", r.url)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", r.addr, err)
	}
	r.cmd = cmd
	return nil
}

// kill SIGKILLs the replica — a crash, not a drain — and reaps it.
func (r *replica) kill() {
	if r.cmd == nil || r.cmd.Process == nil {
		return
	}
	r.cmd.Process.Signal(syscall.SIGKILL)
	r.cmd.Wait()
	r.cmd = nil
}

func killAll(reps []*replica) {
	for _, r := range reps {
		r.kill()
	}
}

func replicaURLs(reps []*replica) []string {
	urls := make([]string, len(reps))
	for i, r := range reps {
		urls[i] = r.url
	}
	return urls
}

// rotate returns urls shifted by i, so successive requests start their
// attempt sequence on different replicas.
func rotate(urls []string, i int) []string {
	k := i % len(urls)
	return append(urls[k:], urls[:k]...)
}

// scrapeAll sums each metric across live replicas; dead ones are skipped.
func scrapeAll(c *http.Client, reps []*replica) (map[string]int64, error) {
	sum := map[string]int64{}
	live := 0
	for _, r := range reps {
		if r.cmd == nil {
			continue
		}
		m, err := scrape(c, r.url)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", r.addr, err)
		}
		live++
		for k, v := range m {
			sum[k] += v
		}
	}
	if live == 0 {
		return nil, fmt.Errorf("no live replicas to scrape")
	}
	return sum, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func tails(ms []float64) tailQuantiles {
	q := tailQuantiles{N: len(ms)}
	if len(ms) == 0 {
		return q
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	at := func(p float64) float64 { return sorted[int(p*float64(len(sorted)-1))] }
	q.P50, q.P99, q.P999, q.Max = at(0.50), at(0.99), at(0.999), sorted[len(sorted)-1]
	return q
}
