// Command loadgen drives a running gossipd with an open-loop request
// stream and checks the serving layer's cache behaviour: the serve-smoke
// gate of `make check`. The serving benchmark itself is perfbench's serve
// workload (perfbench/, `bash perfbench/run.sh`), which splits client
// latency into server stages; loadgen writes no serve record.
//
// Arrivals are open-loop: requests fire on a fixed schedule of 1/rate
// seconds regardless of how fast earlier requests complete, the arrival
// model of a server facing independent clients (a closed loop would hide
// overload by slowing down with the server). Each arrival asks for the hot
// topology with probability 0.9, otherwise one of -cold-keys distinct
// random topologies in round-robin — hot requests exercise the cache hit
// path, cold ones force constructions and, once the keys outnumber the
// cache, evictions.
//
// After the run loadgen reconciles its own request log against the
// server's /metrics deltas: client-observed hits, misses, disk hits and
// coalesced requests must match the plancache_* counters exactly (valid
// when loadgen is the server's only client). With -assert it exits non-zero
// on any mismatch, on a zero hit rate, or if a disconnected-network probe
// fails to produce HTTP 422.
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
	"strconv"
	"strings"
	"sync"
	"time"
)

// hotFraction is the share of arrivals that ask for the hot topology key.
const hotFraction = 0.9

type request struct {
	status int
	source string
}

// summary is one run's client log tallied against the server's counters.
type summary struct {
	requests, ok, rejected429, errors int
	sources                           map[string]int

	server struct {
		hits, misses, diskHits, coalesced, evictions, entries int64
	}
	reconciled bool
}

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8423", "gossipd base URL")
		duration = flag.Duration("duration", 5*time.Second, "load duration")
		rate     = flag.Float64("rate", 100, "open-loop arrival rate, requests/second")
		n        = flag.Int("n", 1024, "processor count for every requested topology")
		coldKeys = flag.Int("cold-keys", 64, "distinct cold topology keys cycled round-robin")
		seed     = flag.Int64("seed", 1, "arrival-mix seed")
		assert   = flag.Bool("assert", false, "exit non-zero unless hit rate > 0, counters reconcile, and the 422 probe passes")
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
		if rng.Float64() >= hotFraction {
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

	sum := summarize(log)
	sum.server.hits = final["plancache_hits_total"] - base["plancache_hits_total"]
	sum.server.misses = final["plancache_misses_total"] - base["plancache_misses_total"]
	sum.server.diskHits = final["plancache_disk_hits_total"] - base["plancache_disk_hits_total"]
	sum.server.coalesced = final["plancache_coalesced_total"] - base["plancache_coalesced_total"]
	sum.server.evictions = final["plancache_evictions_total"] - base["plancache_evictions_total"]
	sum.server.entries = final["plancache_entries"] - base["plancache_entries"]
	// An entry is resident iff something materialised it (a construction or
	// a disk load) and it has not been evicted since.
	sum.reconciled = sum.server.hits == int64(sum.sources["hit"]) &&
		sum.server.misses == int64(sum.sources["miss"]) &&
		sum.server.diskHits == int64(sum.sources["disk"]) &&
		sum.server.coalesced == int64(sum.sources["coalesced"]) &&
		sum.server.entries == sum.server.misses+sum.server.diskHits-sum.server.evictions

	hitRate := 0.0
	if sum.ok > 0 {
		hitRate = float64(sum.sources["hit"]) / float64(sum.ok)
	}
	fmt.Printf("loadgen: %d requests (%d ok, %d shed, %d errors), hit rate %.3f, sources %v, %d evictions, reconciled=%v\n",
		sum.requests, sum.ok, sum.rejected429, sum.errors, hitRate, sum.sources, sum.server.evictions, sum.reconciled)

	if *assert {
		switch {
		case sum.ok == 0:
			fatal(fmt.Errorf("no successful requests"))
		case sum.sources["hit"] == 0:
			fatal(fmt.Errorf("zero cache hits across %d requests", sum.requests))
		case !sum.reconciled:
			fatal(fmt.Errorf("client log and server counters disagree: client %v, server %+v", sum.sources, sum.server))
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
	resp, err := c.Post(url+"/plan", "application/json", bytes.NewReader(data))
	if err != nil {
		return request{status: -1}
	}
	defer resp.Body.Close()
	r := request{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		var pr struct {
			Source string `json:"source"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&pr); err == nil {
			r.source = pr.Source
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

func summarize(log []request) summary {
	sum := summary{requests: len(log), sources: map[string]int{}}
	for _, r := range log {
		switch r.status {
		case http.StatusOK:
			sum.ok++
			sum.sources[r.source]++
		case http.StatusTooManyRequests:
			sum.rejected429++
		default:
			sum.errors++
		}
	}
	return sum
}
