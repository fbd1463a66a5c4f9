package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func testServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	if cfg.workers == 0 {
		cfg.workers = 4
	}
	if cfg.timeout == 0 {
		cfg.timeout = 5 * time.Second
	}
	if cfg.logf == nil {
		cfg.logf = t.Logf
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, path string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestPlanEndpoint checks the basic flow: a cold request constructs
// (source=miss), a repeat serves from cache (source=hit), and both report
// the ring's n + r rounds.
func TestPlanEndpoint(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	req := map[string]any{"topology": "ring", "n": 16}

	var first planResponse
	status, body := post(t, ts.URL, "/plan", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Source != "miss" || first.Rounds != 24 || first.Radius != 8 || first.Processors != 16 {
		t.Fatalf("first response %+v, want miss with 24 rounds, radius 8", first)
	}

	var second planResponse
	status, body = post(t, ts.URL, "/plan", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.Source != "hit" {
		t.Fatalf("second response source %q, want hit", second.Source)
	}
	if second.Fingerprint != first.Fingerprint || len(second.Fingerprint) != 16 {
		t.Fatalf("fingerprints %q vs %q, want equal 16-hex strings", first.Fingerprint, second.Fingerprint)
	}
}

// TestPlanIncludeRounds requires include_rounds to carry the full schedule.
func TestPlanIncludeRounds(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	status, body := post(t, ts.URL, "/plan", map[string]any{"topology": "line", "n": 5, "include_rounds": true})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp planResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Schedule) != resp.Rounds {
		t.Fatalf("schedule has %d rounds, response says %d", len(resp.Schedule), resp.Rounds)
	}
	deliveries := 0
	for _, round := range resp.Schedule {
		for _, tx := range round {
			deliveries += len(tx.To)
		}
	}
	if deliveries == 0 {
		t.Fatal("included schedule is empty")
	}
}

// TestPlanRoundWindow checks the streamed round-window mode: the window
// matches the corresponding slice of the full schedule, out-of-range
// windows clamp to empty, and mixing window and include_rounds is a 400.
func TestPlanRoundWindow(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	status, body := post(t, ts.URL, "/plan", map[string]any{"topology": "ring", "n": 12, "include_rounds": true})
	if status != http.StatusOK {
		t.Fatalf("full schedule: status %d: %s", status, body)
	}
	var full planResponse
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}

	status, body = post(t, ts.URL, "/plan", map[string]any{"topology": "ring", "n": 12, "rounds_from": 3, "rounds_count": 4})
	if status != http.StatusOK {
		t.Fatalf("window: status %d: %s", status, body)
	}
	var window planResponse
	if err := json.Unmarshal(body, &window); err != nil {
		t.Fatal(err)
	}
	if window.RoundsFrom == nil || *window.RoundsFrom != 3 || window.RoundsCount == nil || *window.RoundsCount != 4 {
		t.Fatalf("window did not echo rounds_from=3 rounds_count=4: %+v", window)
	}
	if len(window.Schedule) != 4 {
		t.Fatalf("window has %d rounds, want 4", len(window.Schedule))
	}
	for i, round := range window.Schedule {
		wantJSON, _ := json.Marshal(full.Schedule[3+i])
		gotJSON, _ := json.Marshal(round)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("window round %d differs from full schedule round %d:\n%s\n%s", i, 3+i, gotJSON, wantJSON)
		}
	}

	// A window past the end clamps to empty rather than erroring.
	status, body = post(t, ts.URL, "/plan", map[string]any{"topology": "ring", "n": 12, "rounds_from": 1000, "rounds_count": 5})
	if status != http.StatusOK {
		t.Fatalf("clamped window: status %d: %s", status, body)
	}
	var clamped planResponse
	if err := json.Unmarshal(body, &clamped); err != nil {
		t.Fatal(err)
	}
	if len(clamped.Schedule) != 0 || clamped.RoundsCount == nil || *clamped.RoundsCount != 0 {
		t.Fatalf("out-of-range window not clamped to empty: %+v", clamped)
	}

	status, _ = post(t, ts.URL, "/plan", map[string]any{"topology": "ring", "n": 12, "include_rounds": true, "rounds_count": 2})
	if status != http.StatusBadRequest {
		t.Fatalf("include_rounds + window: status %d, want 400", status)
	}
	status, _ = post(t, ts.URL, "/plan", map[string]any{"topology": "ring", "n": 12, "rounds_from": -1, "rounds_count": 2})
	if status != http.StatusBadRequest {
		t.Fatalf("negative rounds_from: status %d, want 400", status)
	}
}

// TestDisconnectedReturns422 is the acceptance bug path: a disconnected
// network must produce a 422 JSON error — the panic class the Metrics()
// accessor fix removed — on both /plan and /execute.
func TestDisconnectedReturns422(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	disconnected := map[string]any{"processors": 4, "edges": [][2]int{{0, 1}}}
	for _, path := range []string{"/plan", "/execute"} {
		status, body := post(t, ts.URL, path, disconnected)
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d (%s), want 422", path, status, body)
		}
		var e apiError
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "not connected") {
			t.Fatalf("%s: error body %q does not name the disconnection", path, body)
		}
	}
}

// TestOversizedEdgeListReturns422: a short body naming far more processors
// than its edges can connect — given outright or inferred from an edge
// index — must be refused as disconnected before anything is allocated for
// it, on the plan and the churn-session paths, and leave the server up.
func TestOversizedEdgeListReturns422(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	bodies := []map[string]any{
		{"processors": 1 << 40, "edges": [][2]int{{0, 1}}},
		{"processors": 0, "edges": [][2]int{{0, 1000000000000}}},
	}
	for i, b := range bodies {
		for _, path := range []string{"/plan", "/execute", "/mutate"} {
			b["session"] = "huge"
			status, body := post(t, ts.URL, path, b)
			if status != http.StatusUnprocessableEntity {
				t.Fatalf("body %d %s: status %d (%s), want 422", i, path, status, body)
			}
			if !strings.Contains(string(body), "not connected") {
				t.Fatalf("body %d %s: error %q does not name the disconnection", i, path, body)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after oversized requests: status %d", resp.StatusCode)
	}
}

// TestOversizedBodyReturns413: a body over maxBodyBytes is refused with a
// 413 on every POST endpoint, standalone and in cluster mode, where the
// router reads the whole body before any handler decodes it, and the server
// stays up.
func TestOversizedBodyReturns413(t *testing.T) {
	_, standalone := testServer(t, serverConfig{})
	_, _, peer, _ := clusterPair(t)
	// A valid JSON prefix whose padding runs past the cap, so a decoder
	// reads up to the cap instead of stopping at a syntax error.
	body := `{"topology":"ring","n":16,"session":"big","pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for mode, ts := range map[string]*httptest.Server{"standalone": standalone, "peer": peer} {
		for _, path := range []string{"/plan", "/execute", "/mutate"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s %s: %v", mode, path, err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s %s: reading response: %v", mode, path, err)
			}
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s %s: status %d (%s), want 413", mode, path, resp.StatusCode, data)
			}
			if !strings.Contains(string(data), "exceeds") {
				t.Fatalf("%s %s: error %q does not name the cap", mode, path, data)
			}
		}
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("%s /healthz after oversized bodies: %v", mode, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s /healthz after oversized bodies: status %d", mode, resp.StatusCode)
		}
	}
}

// TestInvalidRequests maps the malformed-input space to 400s.
func TestInvalidRequests(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	cases := []struct {
		name string
		body any
	}{
		{"unknown topology", map[string]any{"topology": "klein-bottle", "n": 8}},
		{"generator precondition", map[string]any{"topology": "ring", "n": 2}},
		{"negative n", map[string]any{"topology": "line", "n": -4}},
		{"no topology", map[string]any{}},
		{"bad edge index", map[string]any{"processors": 3, "edges": [][2]int{{0, 9}}}},
		{"negative edge index", map[string]any{"processors": 3, "edges": [][2]int{{-1, 2}}}},
		{"both endpoints negative", map[string]any{"edges": [][2]int{{-3, -7}}}},
		{"negative processors", map[string]any{"processors": -2, "edges": [][2]int{{0, 1}}}},
		{"self-loop edge", map[string]any{"processors": 3, "edges": [][2]int{{1, 1}}}},
		{"unknown algorithm", map[string]any{"topology": "ring", "n": 8, "algorithm": "quantum"}},
		{"bad fault option", map[string]any{"topology": "ring", "n": 8, "link_loss": 1.5}},
	}
	for _, c := range cases {
		path := "/plan"
		if c.name == "bad fault option" {
			path = "/execute"
		}
		status, body := post(t, ts.URL, path, c.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, status, body)
		}
	}
	// Non-JSON body.
	resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON: status %d, want 400", resp.StatusCode)
	}

	// Negative indices must be rejected by validation with a descriptive
	// message, not caught falling out of the library as a panic.
	status, body := post(t, ts.URL, "/plan", map[string]any{"processors": 3, "edges": [][2]int{{-1, 2}}})
	if status != http.StatusBadRequest {
		t.Fatalf("negative index: status %d, want 400", status)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "negative processor index") || strings.Contains(e.Error, "panic") {
		t.Errorf("negative index error %q: want a clean validation message naming the negative index", e.Error)
	}
}

// wheelSpec is a wheel topology as an inline edge list: hub 0 linked to
// every rim vertex 1..n-1, rim closed into a ring. Radius 1 through the
// hub; losing a hub spoke still leaves the rim path — the graftable case.
func wheelSpec(n int) map[string]any {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	for i := 1; i < n-1; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	edges = append(edges, [2]int{n - 1, 1})
	return map[string]any{"processors": n, "edges": edges}
}

// TestMutateEndpoint drives one named churn session through the full
// outcome range: creation, a grafted tree repair, a fingerprint-restoring
// flap back to the original plan, and a non-tree removal that reuses the
// plan verbatim — then checks the churn counters surfaced on /metrics.
func TestMutateEndpoint(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	create := wheelSpec(8)
	create["session"] = "wheel"
	status, body := post(t, ts.URL, "/mutate", create)
	if status != http.StatusOK {
		t.Fatalf("create: status %d: %s", status, body)
	}
	var created mutateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if !created.Created || created.Radius != 1 || created.Processors != 8 || len(created.Fingerprint) != 16 {
		t.Fatalf("create response %+v, want created radius-1 8-processor session", created)
	}

	mutate := func(op string, u, v int) mutateResponse {
		t.Helper()
		status, body := post(t, ts.URL, "/mutate", map[string]any{
			"session":   "wheel",
			"mutations": []map[string]any{{"op": op, "u": u, "v": v}},
		})
		if status != http.StatusOK {
			t.Fatalf("%s {%d,%d}: status %d: %s", op, u, v, status, body)
		}
		var resp mutateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Created || len(resp.Results) != 1 {
			t.Fatalf("%s {%d,%d}: response %+v, want one result on the existing session", op, u, v, resp)
		}
		return resp
	}

	// Losing a hub spoke severs rim vertex 5 from the tree; the graft
	// reattaches it through a rim link.
	grafted := mutate("remove", 0, 5)
	if grafted.Results[0].Outcome != "grafted" || grafted.Results[0].Error != "" {
		t.Fatalf("spoke removal result %+v, want grafted", grafted.Results[0])
	}
	if grafted.Radius <= created.Radius || grafted.Fingerprint == created.Fingerprint {
		t.Fatalf("graft kept radius %d and fingerprint %s", grafted.Radius, grafted.Fingerprint)
	}

	// Re-adding the spoke restores the original fingerprint bit-identically,
	// so the planner serves the cached original plan again.
	restored := mutate("add", 0, 5)
	if restored.Results[0].Outcome != "reused" || restored.Fingerprint != created.Fingerprint || restored.Radius != 1 {
		t.Fatalf("flap home result %+v (fp %s), want reused with the original fingerprint", restored.Results[0], restored.Fingerprint)
	}

	// A rim link is not a tree edge: the plan survives verbatim.
	rim := mutate("remove", 2, 3)
	if rim.Results[0].Outcome != "reused" || rim.Links != created.Links-1 {
		t.Fatalf("rim removal result %+v with %d links, want reused with one fewer link", rim.Results[0], rim.Links)
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
	for _, want := range []string{"churn_patched_total 1", "churn_reused_total 2"} {
		if !strings.Contains(string(dump), want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

// TestMutateRefusedRemoval checks the disconnection path: removing a bridge
// is refused per-mutation (outcome unchanged, error recorded) under an
// overall 200, and later mutations in the batch still apply.
func TestMutateRefusedRemoval(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	status, body := post(t, ts.URL, "/mutate", map[string]any{
		"session": "line", "topology": "line", "n": 4,
		"mutations": []map[string]any{
			{"op": "remove", "u": 1, "v": 2}, // bridge: refused
			{"op": "add", "u": 0, "v": 2},    // still applies
		},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp mutateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results %+v, want 2", resp.Results)
	}
	if resp.Results[0].Outcome != "unchanged" || !strings.Contains(resp.Results[0].Error, "disconnect") {
		t.Fatalf("bridge removal result %+v, want unchanged with a disconnection error", resp.Results[0])
	}
	if resp.Results[1].Outcome != "reused" || resp.Results[1].Error != "" {
		t.Fatalf("chord add result %+v, want reused", resp.Results[1])
	}
	if resp.Links != 4 {
		t.Fatalf("links %d after refused removal + add, want 4", resp.Links)
	}
}

// TestMutateInvalid maps the /mutate error space: missing session name,
// unknown session with no topology, unknown op, and out-of-range or
// negative indices (validated against the session's processor count before
// any mutation applies).
func TestMutateInvalid(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	if status, body := post(t, ts.URL, "/mutate", map[string]any{"session": "s", "topology": "ring", "n": 8}); status != http.StatusOK {
		t.Fatalf("create: status %d: %s", status, body)
	}
	cases := []struct {
		name string
		body any
	}{
		{"no session", map[string]any{"topology": "ring", "n": 8}},
		{"unknown session without topology", map[string]any{"session": "ghost"}},
		{"unknown op", map[string]any{"session": "s", "mutations": []map[string]any{{"op": "toggle", "u": 0, "v": 1}}}},
		{"index out of range", map[string]any{"session": "s", "mutations": []map[string]any{{"op": "add", "u": 0, "v": 8}}}},
		{"negative index", map[string]any{"session": "s", "mutations": []map[string]any{{"op": "remove", "u": -1, "v": 1}}}},
		{"self-loop", map[string]any{"session": "s", "mutations": []map[string]any{{"op": "add", "u": 3, "v": 3}}}},
		{"disconnected creation spec", map[string]any{"session": "split", "processors": 4, "edges": [][2]int{{0, 1}}}},
	}
	for _, c := range cases {
		status, body := post(t, ts.URL, "/mutate", c.body)
		want := http.StatusBadRequest
		switch c.name {
		case "disconnected creation spec":
			want = http.StatusUnprocessableEntity
		case "unknown session without topology":
			// The session does not exist and the request carries nothing to
			// create it from: that's a missing resource, not a bad request —
			// exactly what a client holding an expired session name sees.
			want = http.StatusNotFound
		}
		if status != want {
			t.Errorf("%s: status %d (%s), want %d", c.name, status, body, want)
		}
	}
	// The invalid mutations above must not have half-applied: the session's
	// ring still has its original 8 links.
	status, body := post(t, ts.URL, "/mutate", map[string]any{"session": "s"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp mutateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Links != 8 || resp.Created {
		t.Fatalf("session state %+v after rejected batches, want untouched 8-link ring", resp)
	}
}

// TestExecuteEndpoint runs a lossy execution end to end and requires the
// self-healing pipeline to report completion.
func TestExecuteEndpoint(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	status, body := post(t, ts.URL, "/execute", map[string]any{
		"topology": "ring", "n": 32, "link_loss": 0.02, "loss_seed": 7,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp executeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Complete || resp.FinalCoverage != 1 {
		t.Fatalf("lossy ring did not heal: %+v", resp)
	}
	if resp.TotalRounds < resp.ScheduleRounds {
		t.Fatalf("total rounds %d below schedule rounds %d", resp.TotalRounds, resp.ScheduleRounds)
	}

	// Same topology: the execute path must reuse the cached plan.
	status, body = post(t, ts.URL, "/execute", map[string]any{"topology": "ring", "n": 32})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != "hit" {
		t.Fatalf("second execute source %q, want hit", resp.Source)
	}
	if !resp.Complete || resp.Dropped != 0 {
		t.Fatalf("fault-free execute: %+v", resp)
	}
}

// TestBackpressure429 fills the admission slots by hand and requires the
// next request to be shed with 429 and counted.
func TestBackpressure429(t *testing.T) {
	s, ts := testServer(t, serverConfig{workers: 1, queue: 1})
	for i := 0; i < cap(s.slots); i++ {
		s.slots <- struct{}{}
	}
	status, body := post(t, ts.URL, "/plan", map[string]any{"topology": "ring", "n": 8})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", status, body)
	}
	if s.rejected.Value() != 1 {
		t.Fatalf("rejected counter %d, want 1", s.rejected.Value())
	}
	for i := 0; i < cap(s.slots); i++ {
		<-s.slots
	}
	if status, _ := post(t, ts.URL, "/plan", map[string]any{"topology": "ring", "n": 8}); status != http.StatusOK {
		t.Fatalf("status %d after slots freed, want 200", status)
	}
}

// TestWorkerTimeout503 exhausts the execution slots (but not admission)
// and requires a short-budget request to time out with 503.
func TestWorkerTimeout503(t *testing.T) {
	s, ts := testServer(t, serverConfig{workers: 1, queue: 4, timeout: 50 * time.Millisecond})
	s.active <- struct{}{} // a stuck worker
	defer func() { <-s.active }()
	status, body := post(t, ts.URL, "/plan", map[string]any{"topology": "ring", "n": 8})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", status, body)
	}
}

// TestHealthzAndMetrics checks the liveness/readiness split — /healthz
// says only "the process answers", /readyz carries the serving detail —
// and that the Prometheus dump carries both the request counters and the
// plan-cache series, with the cache counters reconciling against the
// requests made.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	for i := 0; i < 3; i++ {
		post(t, ts.URL, "/plan", map[string]any{"topology": "star", "n": 9})
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" {
		t.Fatalf("health %+v, want ok", health)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready readyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ready.Status != "ok" || ready.Cache.Misses != 1 || ready.Cache.Hits != 2 {
		t.Fatalf("readyz %+v, want ok with 1 miss and 2 hits", ready)
	}
	if ready.Store != nil || ready.Cluster != nil {
		t.Fatalf("readyz %+v reports a store/cluster on a storeless standalone server", ready)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	dump, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(dump)
	for _, want := range []string{
		"plancache_hits_total 2",
		"plancache_misses_total 1",
		"plancache_evictions_total 0",
		"gossipd_requests_total 3",
		"gossipd_request_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

// TestConcurrentColdRequests aims a herd at one cold topology and requires
// the singleflight to construct once, with every response complete.
func TestConcurrentColdRequests(t *testing.T) {
	s, ts := testServer(t, serverConfig{workers: 8, queue: 100})
	const herd = 24
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body := post(t, ts.URL, "/plan", map[string]any{"topology": "mesh", "rows": 8, "cols": 8})
			if status != http.StatusOK {
				t.Errorf("status %d: %s", status, body)
			}
		}()
	}
	wg.Wait()
	st := s.cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d constructions for %d concurrent identical requests, want 1", st.Misses, herd)
	}
	if st.Hits+st.Coalesced != herd-1 {
		t.Fatalf("hits %d + coalesced %d != %d", st.Hits, st.Coalesced, herd-1)
	}
}
