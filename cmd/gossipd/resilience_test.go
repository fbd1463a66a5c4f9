// resilience_test.go covers the robustness surface of gossipd: warm starts
// from the disk tier, degraded-store serving, session TTL eviction, and
// consistent-hash routing with failover across replicas.
package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartHTTP restarts the server over one store directory and
// requires the second process generation to serve from disk: no rebuild
// (cache misses stay zero), one disk hit, and a plan identical to the one
// the first generation built.
func TestWarmStartHTTP(t *testing.T) {
	dir := t.TempDir()
	req := map[string]any{"topology": "ring", "n": 48, "include_rounds": true}

	_, ts1 := testServer(t, serverConfig{storeDir: dir})
	status, body := post(t, ts1.URL, "/plan", req)
	if status != http.StatusOK {
		t.Fatalf("cold: status %d: %s", status, body)
	}
	var cold planResponse
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Source != "miss" {
		t.Fatalf("cold source %q, want miss", cold.Source)
	}
	ts1.Close()

	// A "restarted" server: fresh process state, same store directory.
	s2, ts2 := testServer(t, serverConfig{storeDir: dir})
	status, body = post(t, ts2.URL, "/plan", req)
	if status != http.StatusOK {
		t.Fatalf("warm: status %d: %s", status, body)
	}
	var warm planResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Source != "disk" {
		t.Fatalf("warm source %q, want disk", warm.Source)
	}
	if warm.Fingerprint != cold.Fingerprint || warm.Rounds != cold.Rounds || warm.Radius != cold.Radius {
		t.Fatalf("warm plan %+v differs from cold %+v", warm, cold)
	}
	coldJSON, _ := json.Marshal(cold.Schedule)
	warmJSON, _ := json.Marshal(warm.Schedule)
	if string(coldJSON) != string(warmJSON) {
		t.Fatal("warm-started schedule is not bit-identical to the cold one")
	}
	st := s2.cache.Stats()
	if st.Misses != 0 || st.DiskHits != 1 {
		t.Fatalf("warm cache stats %+v, want 0 misses and 1 disk hit", st)
	}

	var ready readyResponse
	getJSON(t, ts2.URL+"/readyz", &ready)
	if ready.Status != "ok" || ready.Store == nil || ready.Store.Hits != 1 {
		t.Fatalf("warm readyz %+v, want ok with one store hit", ready)
	}
}

// TestReadyzDegradedStore opens the store somewhere no directory can exist
// (under a regular file) and requires graceful degradation: /plan still
// answers 200 from memory, /healthz stays ok (a restart would not fix the
// disk), and only /readyz + the gauge report the degraded state.
func TestReadyzDegradedStore(t *testing.T) {
	parent := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(parent, []byte("a file, not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, serverConfig{storeDir: filepath.Join(parent, "store")})
	if !s.store.Degraded() {
		t.Fatal("store under a regular file did not degrade")
	}

	status, body := post(t, ts.URL, "/plan", map[string]any{"topology": "ring", "n": 16})
	if status != http.StatusOK {
		t.Fatalf("degraded store cost a request: status %d: %s", status, body)
	}

	var health healthResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("healthz %+v: liveness must not reflect disk state", health)
	}
	var ready readyResponse
	getJSON(t, ts.URL+"/readyz", &ready)
	if ready.Status != "degraded" || ready.Store == nil || !ready.Store.Degraded {
		t.Fatalf("readyz %+v, want degraded with store detail", ready)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	dump, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), "planstore_degraded 1") {
		t.Error("metrics dump missing planstore_degraded 1")
	}
}

// TestSessionTTL drives the session map to its cap, expires everything with
// an injected clock, and requires (a) the freed slots to admit new sessions,
// (b) a request naming an expired session without a spec to 404.
func TestSessionTTL(t *testing.T) {
	var mu sync.Mutex
	clock := time.Unix(1000, 0)
	cfg := serverConfig{
		sessionTTL: time.Minute,
		now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return clock
		},
	}
	s, ts := testServer(t, cfg)

	session := func(name string) (int, []byte) {
		return post(t, ts.URL, "/mutate", map[string]any{"session": name, "topology": "ring", "n": 8})
	}
	for i := 0; i < maxChurnSessions; i++ {
		if status, body := session(string(rune('a'+i%26)) + string(rune('0'+i/26))); status != http.StatusOK {
			t.Fatalf("session %d: status %d: %s", i, status, body)
		}
	}
	if status, _ := session("overflow"); status != http.StatusTooManyRequests {
		t.Fatalf("session beyond the cap: status %d, want 429", status)
	}

	mu.Lock()
	clock = clock.Add(2 * time.Minute)
	mu.Unlock()

	// Naming an expired session without a topology is a 404 — the state is
	// gone and the client must re-create it.
	status, body := post(t, ts.URL, "/mutate", map[string]any{"session": "a0"})
	if status != http.StatusNotFound {
		t.Fatalf("expired session without spec: status %d (%s), want 404", status, body)
	}
	// The sweep freed every slot: a brand-new session fits again.
	status, body = session("reborn")
	if status != http.StatusOK {
		t.Fatalf("post-expiry create: status %d: %s", status, body)
	}
	var resp mutateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Created {
		t.Fatalf("post-expiry session not created fresh: %+v", resp)
	}
	if got := s.expiredSessions.Value(); got < maxChurnSessions {
		t.Fatalf("expired counter %d, want at least %d", got, maxChurnSessions)
	}
	s.sessionsMu.Lock()
	live := len(s.sessions)
	s.sessionsMu.Unlock()
	if live != 1 {
		t.Fatalf("%d sessions resident after expiry, want 1", live)
	}
}

// TestSessionTTLKeepsActive verifies that use refreshes the TTL: a session
// touched within the window survives a sweep that evicts an idle one.
func TestSessionTTLKeepsActive(t *testing.T) {
	var mu sync.Mutex
	clock := time.Unix(1000, 0)
	advance := func(d time.Duration) {
		mu.Lock()
		clock = clock.Add(d)
		mu.Unlock()
	}
	_, ts := testServer(t, serverConfig{
		sessionTTL: time.Minute,
		now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return clock
		},
	})
	create := func(name string) {
		if status, body := post(t, ts.URL, "/mutate", map[string]any{"session": name, "topology": "ring", "n": 8}); status != http.StatusOK {
			t.Fatalf("create %s: status %d: %s", name, status, body)
		}
	}
	create("busy")
	create("idle")
	advance(40 * time.Second)
	if status, _ := post(t, ts.URL, "/mutate", map[string]any{"session": "busy"}); status != http.StatusOK {
		t.Fatal("touching a live session failed")
	}
	advance(40 * time.Second) // idle is now 80s old, busy only 40s
	if status, _ := post(t, ts.URL, "/mutate", map[string]any{"session": "busy"}); status != http.StatusOK {
		t.Fatal("refreshed session expired inside its window")
	}
	if status, _ := post(t, ts.URL, "/mutate", map[string]any{"session": "idle"}); status != http.StatusNotFound {
		t.Fatal("idle session survived past its TTL")
	}
}

// clusterPair builds two replicas that know each other's base URLs. httptest
// assigns URLs only after the handler exists, so each server sits behind a
// handler indirection that is filled in once both URLs are known.
func clusterPair(t *testing.T) (s1, s2 *server, ts1, ts2 *httptest.Server) {
	t.Helper()
	type handlerBox struct{ h http.Handler }
	var h1, h2 atomic.Value
	notReady := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "not wired yet", http.StatusServiceUnavailable)
	})
	h1.Store(handlerBox{notReady})
	h2.Store(handlerBox{notReady})
	ts1 = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h1.Load().(handlerBox).h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts1.Close)
	ts2 = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h2.Load().(handlerBox).h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts2.Close)

	peers := []string{ts1.URL, ts2.URL}
	var err error
	s1, err = newServer(serverConfig{workers: 4, peers: peers, self: ts1.URL, logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s2, err = newServer(serverConfig{workers: 4, peers: peers, self: ts2.URL, logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	h1.Store(handlerBox{s1.handler()})
	h2.Store(handlerBox{s2.handler()})
	return s1, s2, ts1, ts2
}

// ringOwnedBy finds a ring size whose topology the given replica owns.
func ringOwnedBy(t *testing.T, s *server, owner string) map[string]any {
	t.Helper()
	for n := 8; n < 200; n++ {
		nw, err := buildNetwork(topologySpec{Topology: "ring", N: n})
		if err != nil {
			continue
		}
		if s.ring.Owner(nw.Fingerprint()) == owner {
			return map[string]any{"topology": "ring", "n": n}
		}
	}
	t.Fatal("no ring size in [8,200) hashes to the wanted owner — ring is broken")
	return nil
}

// TestClusterProxy routes a request for a peer-owned topology through the
// wrong replica and requires exactly one construction, on the owner.
func TestClusterProxy(t *testing.T) {
	s1, s2, ts1, _ := clusterPair(t)
	req := ringOwnedBy(t, s1, s2.self)

	status, body := post(t, ts1.URL, "/plan", req)
	if status != http.StatusOK {
		t.Fatalf("proxied plan: status %d: %s", status, body)
	}
	var resp planResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != "miss" {
		t.Fatalf("first proxied request source %q, want miss (built on the owner)", resp.Source)
	}
	if s1.proxied.Value() != 1 || s1.cache.Stats().Misses != 0 || s2.cache.Stats().Misses != 1 {
		t.Fatalf("proxied=%d, s1 misses=%d, s2 misses=%d: construction did not land on the owner",
			s1.proxied.Value(), s1.cache.Stats().Misses, s2.cache.Stats().Misses)
	}

	// A repeat through the non-owner hits the owner's hot cache.
	status, body = post(t, ts1.URL, "/plan", req)
	if status != http.StatusOK {
		t.Fatalf("second proxied plan: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != "hit" {
		t.Fatalf("second proxied request source %q, want hit", resp.Source)
	}

	// Self-owned keys never proxy.
	own := ringOwnedBy(t, s1, s1.self)
	before := s1.proxied.Value()
	if status, body := post(t, ts1.URL, "/plan", own); status != http.StatusOK {
		t.Fatalf("self-owned plan: status %d: %s", status, body)
	}
	if s1.proxied.Value() != before {
		t.Fatal("a self-owned key was proxied")
	}
}

// TestClusterForwardedServesLocally pins the loop-prevention rule: a request
// carrying the forwarded marker is served where it lands, even by a replica
// that does not own the key.
func TestClusterForwardedServesLocally(t *testing.T) {
	s1, s2, ts1, _ := clusterPair(t)
	req := ringOwnedBy(t, s1, s2.self)
	b, _ := json.Marshal(req)

	hr, err := http.NewRequest(http.MethodPost, ts1.URL+"/plan", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(forwardedHeader, s2.self)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: status %d", resp.StatusCode)
	}
	if s1.proxied.Value() != 0 || s1.cache.Stats().Misses != 1 || s2.cache.Stats().Misses != 0 {
		t.Fatalf("forwarded request re-routed: proxied=%d, s1 misses=%d, s2 misses=%d",
			s1.proxied.Value(), s1.cache.Stats().Misses, s2.cache.Stats().Misses)
	}
}

// TestClusterFailover kills the owning replica and requires the survivor to
// serve its keys locally: same answers, no 5xx, proxy errors counted.
func TestClusterFailover(t *testing.T) {
	s1, s2, ts1, ts2 := clusterPair(t)
	req := ringOwnedBy(t, s1, s2.self)

	ts2.Close() // the owner dies before ever serving the key

	status, body := post(t, ts1.URL, "/plan", req)
	if status != http.StatusOK {
		t.Fatalf("failover plan: status %d: %s", status, body)
	}
	var resp planResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != "miss" {
		t.Fatalf("failover source %q, want a local miss build", resp.Source)
	}
	if s1.proxyErrs.Value() == 0 {
		t.Fatal("proxy failure not counted")
	}
	if s1.cache.Stats().Misses != 1 {
		t.Fatalf("survivor built %d plans, want 1", s1.cache.Stats().Misses)
	}
	// While the owner is down, the survivor's own cache keeps the key warm.
	status, body = post(t, ts1.URL, "/plan", req)
	if status != http.StatusOK {
		t.Fatalf("second failover plan: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != "hit" {
		t.Fatalf("second failover source %q, want hit from the survivor's cache", resp.Source)
	}
}
