// Command loadgen drives a running gossipd with an open-loop request
// stream and records the serving layer's latency and cache behaviour to a
// JSON benchmark record (BENCH_serve.json).
//
// Arrivals are open-loop: requests fire on a fixed schedule of 1/rate
// seconds regardless of how fast earlier requests complete, the arrival
// model of a server facing independent clients (a closed loop would hide
// overload by slowing down with the server). Each arrival asks for the hot
// topology with probability -hot, otherwise one of -cold-keys distinct
// random topologies in round-robin — hot requests exercise the cache hit
// path, cold ones force constructions and, once the keys outnumber the
// cache, evictions.
//
// After the run loadgen reconciles its own request log against the
// server's /metrics deltas: client-observed hits, misses, disk hits and
// coalesced requests must match the plancache_* counters exactly (valid
// when loadgen is the server's only client). With -assert it exits non-zero
// on any mismatch, on a zero hit rate, or if a disconnected-network probe
// fails to produce HTTP 422 — the serve-smoke gate of `make check`.
//
// With -gossipd pointing at a server binary, loadgen instead runs the
// store/failover benchmark (see storebench.go): it spawns its own replica
// fleet over per-replica store directories, measures cold construction
// against warm-start-from-disk after SIGKILLing every replica, then drives
// open-loop load with bounded jittered retries while one replica is killed
// and resurrected mid-run — writing BENCH_store.json and, with -assert,
// gating on zero warm rebuilds and >= 99.9% client success through the
// outage.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type request struct {
	status  int
	source  string
	latency time.Duration
	planMS  float64
}

type quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
	N   int     `json:"n"`
}

type record struct {
	Config struct {
		URL      string  `json:"url"`
		Duration string  `json:"duration"`
		Rate     float64 `json:"rate_per_s"`
		Hot      float64 `json:"hot_fraction"`
		N        int     `json:"n"`
		ColdKeys int     `json:"cold_keys"`
		Seed     int64   `json:"seed"`
	} `json:"config"`
	Requests    int            `json:"requests"`
	OK          int            `json:"ok"`
	Rejected429 int            `json:"rejected_429"`
	Errors      int            `json:"errors"`
	HitRate     float64        `json:"hit_rate"`
	Sources     map[string]int `json:"sources"`

	LatencyMS     quantiles `json:"latency_ms"`
	HitLatencyMS  quantiles `json:"hit_latency_ms"`
	MissLatencyMS quantiles `json:"miss_latency_ms"`
	// HotColdSpeedupP50 is the client-observed end-to-end p50 speedup of a
	// cache-hit request over a cold construction of the same size.
	HotColdSpeedupP50 float64 `json:"hot_cold_speedup_p50"`
	// ServerPlanMS aggregates the server-reported in-handler plan times.
	ServerHitPlanMS  quantiles `json:"server_hit_plan_ms"`
	ServerMissPlanMS quantiles `json:"server_miss_plan_ms"`

	Server struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		DiskHits  int64 `json:"disk_hits"`
		Coalesced int64 `json:"coalesced"`
		Evictions int64 `json:"evictions"`
		Entries   int64 `json:"entries"`
	} `json:"server_counter_deltas"`
	Reconciled bool `json:"reconciled"`
}

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8423", "gossipd base URL")
		duration = flag.Duration("duration", 5*time.Second, "load duration")
		rate     = flag.Float64("rate", 100, "open-loop arrival rate, requests/second")
		hot      = flag.Float64("hot", 0.9, "fraction of requests for the hot topology key")
		n        = flag.Int("n", 1024, "processor count for every requested topology")
		coldKeys = flag.Int("cold-keys", 64, "distinct cold topology keys cycled round-robin")
		seed     = flag.Int64("seed", 1, "arrival-mix seed")
		out      = flag.String("out", "BENCH_serve.json", "output record path (\"-\" or /dev/null for none)")
		assert   = flag.Bool("assert", false, "exit non-zero unless hit rate > 0, counters reconcile, and the 422 probe passes")
		minSpeed = flag.Float64("min-speedup", 0, "with -assert, minimum hot/cold p50 speedup required (0 disables)")
		ready    = flag.Duration("ready", 10*time.Second, "how long to wait for the server to become healthy")

		// Store/failover benchmark mode: loadgen spawns its own replica
		// fleet instead of driving an already-running server.
		gossipdBin  = flag.String("gossipd", "", "path to a gossipd binary; set to run the store/failover benchmark (spawns replicas)")
		replicas    = flag.Int("replicas", 2, "replica count for the store benchmark")
		retries     = flag.Int("retries", 4, "bounded retries per request on 429/503/transport errors (store benchmark)")
		storeOut    = flag.String("store-out", "BENCH_store.json", "store benchmark output record path")
		failoverDur = flag.Duration("failover-duration", 6*time.Second, "failover phase length (store benchmark)")
	)
	flag.Parse()

	if *gossipdBin != "" {
		err := runStoreBench(storeBenchConfig{
			bin:      *gossipdBin,
			replicas: *replicas,
			coldKeys: *coldKeys,
			n:        *n,
			rate:     *rate,
			failover: *failoverDur,
			retries:  *retries,
			seed:     *seed,
			out:      *storeOut,
			assert:   *assert,
			ready:    *ready,
		})
		if err != nil {
			fatal(err)
		}
		return
	}

	client := &http.Client{Timeout: 30 * time.Second}
	if err := waitReady(client, *url, *ready); err != nil {
		fatal(err)
	}

	// Probe the bug path first (before the counter baseline, because a
	// failed construction still counts a server-side miss): a disconnected
	// network must be answered with 422, not a dropped connection from a
	// crashed handler.
	if err := probeDisconnected(client, *url); err != nil {
		if *assert {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "loadgen: warning:", err)
	}

	base, err := scrape(client, *url)
	if err != nil {
		fatal(err)
	}

	rng := rand.New(rand.NewSource(*seed))
	interval := time.Duration(float64(time.Second) / *rate)
	deadline := time.Now().Add(*duration)
	var (
		mu   sync.Mutex
		log  []request
		wg   sync.WaitGroup
		cold int
	)
	for now := time.Now(); now.Before(deadline); now = time.Now() {
		body := map[string]any{"topology": "ring", "n": *n}
		if rng.Float64() >= *hot {
			// Cold key: a distinct random topology. The seed picks the edge
			// set, so seed k is the same network — and the same fingerprint —
			// every time it comes around.
			body = map[string]any{"topology": "random", "n": *n, "p": 0.01, "seed": 10_000 + cold%*coldKeys}
			cold++
		}
		wg.Add(1)
		go func(body map[string]any) {
			defer wg.Done()
			r := fire(client, *url, body)
			mu.Lock()
			log = append(log, r)
			mu.Unlock()
		}(body)
		time.Sleep(time.Until(now.Add(interval)))
	}
	wg.Wait()

	final, err := scrape(client, *url)
	if err != nil {
		fatal(err)
	}

	rec := summarize(log)
	rec.Config.URL = *url
	rec.Config.Duration = duration.String()
	rec.Config.Rate = *rate
	rec.Config.Hot = *hot
	rec.Config.N = *n
	rec.Config.ColdKeys = *coldKeys
	rec.Config.Seed = *seed
	rec.Server.Hits = final["plancache_hits_total"] - base["plancache_hits_total"]
	rec.Server.Misses = final["plancache_misses_total"] - base["plancache_misses_total"]
	rec.Server.DiskHits = final["plancache_disk_hits_total"] - base["plancache_disk_hits_total"]
	rec.Server.Coalesced = final["plancache_coalesced_total"] - base["plancache_coalesced_total"]
	rec.Server.Evictions = final["plancache_evictions_total"] - base["plancache_evictions_total"]
	rec.Server.Entries = final["plancache_entries"] - base["plancache_entries"]
	// An entry is resident iff something materialised it (a construction or
	// a disk load) and it has not been evicted since.
	rec.Reconciled = rec.Server.Hits == int64(rec.Sources["hit"]) &&
		rec.Server.Misses == int64(rec.Sources["miss"]) &&
		rec.Server.DiskHits == int64(rec.Sources["disk"]) &&
		rec.Server.Coalesced == int64(rec.Sources["coalesced"]) &&
		rec.Server.Entries == rec.Server.Misses+rec.Server.DiskHits-rec.Server.Evictions

	if *out != "" && *out != "-" && *out != "/dev/null" {
		data, _ := json.MarshalIndent(rec, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("loadgen: %d requests (%d ok, %d shed, %d errors), hit rate %.3f, p50 %.2fms p99 %.2fms, hot/cold p50 speedup %.1fx, reconciled=%v\n",
		rec.Requests, rec.OK, rec.Rejected429, rec.Errors, rec.HitRate,
		rec.LatencyMS.P50, rec.LatencyMS.P99, rec.HotColdSpeedupP50, rec.Reconciled)

	if *assert {
		switch {
		case rec.OK == 0:
			fatal(fmt.Errorf("no successful requests"))
		case rec.Sources["hit"] == 0:
			fatal(fmt.Errorf("zero cache hits across %d requests", rec.Requests))
		case !rec.Reconciled:
			fatal(fmt.Errorf("client log and server counters disagree: client %v, server %+v", rec.Sources, rec.Server))
		case *minSpeed > 0 && rec.HotColdSpeedupP50 < *minSpeed:
			fatal(fmt.Errorf("hot/cold p50 speedup %.1fx below the required %.1fx", rec.HotColdSpeedupP50, *minSpeed))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}

func waitReady(c *http.Client, url string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy within %s: %v", url, budget, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func probeDisconnected(c *http.Client, url string) error {
	body, _ := json.Marshal(map[string]any{"processors": 4, "edges": [][2]int{{0, 1}}})
	resp, err := c.Post(url+"/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("disconnected probe: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		return fmt.Errorf("disconnected probe: status %d, want 422", resp.StatusCode)
	}
	return nil
}

func fire(c *http.Client, url string, body map[string]any) request {
	data, _ := json.Marshal(body)
	begin := time.Now()
	resp, err := c.Post(url+"/plan", "application/json", bytes.NewReader(data))
	if err != nil {
		return request{status: -1, latency: time.Since(begin)}
	}
	defer resp.Body.Close()
	r := request{status: resp.StatusCode, latency: time.Since(begin)}
	if resp.StatusCode == http.StatusOK {
		var pr struct {
			Source string  `json:"source"`
			PlanMS float64 `json:"plan_ms"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&pr); err == nil {
			r.source = pr.Source
			r.planMS = pr.PlanMS
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return r
}

// scrape fetches /metrics and parses the flat "name value" samples.
func scrape(c *http.Client, url string) (map[string]int64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseInt(value, 10, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

func summarize(log []request) record {
	rec := record{Sources: map[string]int{}}
	rec.Requests = len(log)
	var all, hits, misses []time.Duration
	var hitPlan, missPlan []float64
	for _, r := range log {
		switch {
		case r.status == http.StatusOK:
			rec.OK++
			rec.Sources[r.source]++
			all = append(all, r.latency)
			switch r.source {
			case "hit":
				hits = append(hits, r.latency)
				hitPlan = append(hitPlan, r.planMS)
			case "miss":
				misses = append(misses, r.latency)
				missPlan = append(missPlan, r.planMS)
			}
		case r.status == http.StatusTooManyRequests:
			rec.Rejected429++
		default:
			rec.Errors++
		}
	}
	if rec.OK > 0 {
		rec.HitRate = float64(rec.Sources["hit"]) / float64(rec.OK)
	}
	rec.LatencyMS = quantileMS(all)
	rec.HitLatencyMS = quantileMS(hits)
	rec.MissLatencyMS = quantileMS(misses)
	rec.ServerHitPlanMS = quantileF(hitPlan)
	rec.ServerMissPlanMS = quantileF(missPlan)
	if rec.HitLatencyMS.P50 > 0 {
		rec.HotColdSpeedupP50 = rec.MissLatencyMS.P50 / rec.HitLatencyMS.P50
	}
	return rec
}

func quantileMS(ds []time.Duration) quantiles {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d.Microseconds()) / 1000
	}
	return quantileF(fs)
}

func quantileF(fs []float64) quantiles {
	q := quantiles{N: len(fs)}
	if len(fs) == 0 {
		return q
	}
	sort.Float64s(fs)
	at := func(p float64) float64 {
		i := int(p * float64(len(fs)-1))
		return fs[i]
	}
	q.P50, q.P90, q.P99, q.Max = at(0.50), at(0.90), at(0.99), fs[len(fs)-1]
	return q
}
