// server.go is the request-handling half of gossipd: the JSON API, the
// bounded worker pool with 429 backpressure, the plan cache wiring, and the
// request metrics. main.go owns process concerns (flags, listening,
// signal-driven drain).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"multigossip"
	"multigossip/internal/cliutil"
	"multigossip/internal/ring"
)

// serverConfig sizes the serving layer.
type serverConfig struct {
	workers      int           // concurrent plan/execute requests in flight
	queue        int           // extra requests allowed to wait; beyond this, 429
	timeout      time.Duration // per-request budget, queue wait included
	cacheEntries int
	cacheBytes   int64

	// storeDir roots the crash-safe disk tier under the plan cache; empty
	// disables it (memory-only serving, exactly as before).
	storeDir string

	// sessionTTL evicts /mutate sessions idle longer than this; zero keeps
	// sessions for the life of the process.
	sessionTTL time.Duration

	// peers is the cluster membership as base URLs, self included; fewer
	// than two peers means standalone. self must appear in peers verbatim.
	peers []string
	self  string

	// now is the clock (tests inject a fake one); nil means time.Now.
	now func() time.Time
	// logf receives store and cluster event lines; nil logs to stderr.
	logf func(format string, args ...any)
}

// server serves gossip plans from a fingerprinted cache behind a bounded
// worker pool. All state is safe for concurrent use.
type server struct {
	cache   *multigossip.PlanCache
	metrics *multigossip.Metrics
	// store is the disk tier under the cache; nil when -store is unset.
	store *multigossip.PlanStore
	// slots is the admission bound: workers + queue tokens. A request that
	// cannot take a token immediately is rejected with 429 — open-loop
	// clients get instant backpressure instead of an unbounded queue.
	slots chan struct{}
	// active is the execution bound: at most cfg.workers requests compute
	// at once; admitted requests beyond that wait here (or time out).
	active  chan struct{}
	timeout time.Duration
	start   time.Time
	now     func() time.Time
	logf    func(format string, args ...any)

	// ring routes plan requests to their owning replica; nil when the
	// server runs standalone. self is this replica's base URL in the ring.
	ring   *ring.Ring
	self   string
	client *http.Client

	// sessions holds the named churn sessions /mutate drives. sessionsMu
	// guards the map only (lastUse included); each session has its own lock
	// because a DynamicPlanner is not safe for concurrent use.
	sessionsMu sync.Mutex
	sessions   map[string]*churnSession
	sessionTTL time.Duration

	reqs, rejected, clientErrs, serverErrs *multigossip.MetricsCounter
	proxied, proxyErrs, expiredSessions    *multigossip.MetricsCounter
	latency                                *multigossip.MetricsHistogram
}

func newServer(cfg serverConfig) (*server, error) {
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.queue < 0 {
		cfg.queue = 0
	}
	if cfg.timeout <= 0 {
		cfg.timeout = 10 * time.Second
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.logf == nil {
		cfg.logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "gossipd: "+format+"\n", args...)
		}
	}
	m := multigossip.NewMetrics()
	cacheOpts := []multigossip.CacheOption{
		multigossip.WithCacheCapacity(cfg.cacheEntries),
		multigossip.WithCacheBytes(cfg.cacheBytes),
		multigossip.WithCacheMetrics(m),
	}
	var store *multigossip.PlanStore
	if cfg.storeDir != "" {
		store = multigossip.OpenPlanStore(cfg.storeDir,
			multigossip.WithStoreMetrics(m),
			multigossip.WithStoreLogger(cfg.logf))
		cacheOpts = append(cacheOpts, multigossip.WithCacheStore(store))
	}
	s := &server{
		sessions:   make(map[string]*churnSession),
		cache:      multigossip.NewPlanCache(cacheOpts...),
		metrics:    m,
		store:      store,
		slots:      make(chan struct{}, cfg.workers+cfg.queue),
		active:     make(chan struct{}, cfg.workers),
		timeout:    cfg.timeout,
		start:      time.Now(),
		now:        cfg.now,
		logf:       cfg.logf,
		sessionTTL: cfg.sessionTTL,
		client:     &http.Client{Timeout: cfg.timeout},
		reqs:       m.Counter("gossipd_requests_total"),
		rejected:   m.Counter("gossipd_rejected_total"),
		clientErrs: m.Counter("gossipd_client_errors_total"),
		serverErrs: m.Counter("gossipd_server_errors_total"),
		proxied:    m.Counter("gossipd_proxied_total"),
		proxyErrs:  m.Counter("gossipd_proxy_errors_total"),
		expiredSessions: m.Counter(
			"gossipd_sessions_expired_total"),
		latency: m.Histogram("gossipd_request_seconds",
			[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}),
	}
	if len(cfg.peers) > 1 {
		found := false
		for _, p := range cfg.peers {
			if p == cfg.self {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("self %q is not among the peers %v", cfg.self, cfg.peers)
		}
		r, err := ring.New(cfg.peers, 0)
		if err != nil {
			return nil, fmt.Errorf("building cluster ring: %w", err)
		}
		s.ring, s.self = r, cfg.self
	}
	return s, nil
}

// handler returns the routed HTTP handler.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /plan", s.bounded(s.routed(s.handlePlan)))
	mux.HandleFunc("POST /execute", s.bounded(s.routed(s.handleExecute)))
	mux.HandleFunc("POST /mutate", s.bounded(s.handleMutate))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// fail classifies the response and bumps the matching error counter.
func (s *server) fail(w http.ResponseWriter, status int, err error) {
	switch {
	case status == http.StatusTooManyRequests:
		s.rejected.Inc()
	case status >= 500:
		s.serverErrs.Inc()
	default:
		s.clientErrs.Inc()
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

// maxBodyBytes caps every request body. The largest body the tests, the
// smokes and perfbench send is perfbench serve's cold miss, an edge list of
// 512 processors at average degree 6 (14,800 bytes at seed 1), so the cap
// leaves room for edge lists about 280 times that size.
const maxBodyBytes = 4 << 20

// bodyError classifies a failure to read or decode a request body: a body
// over maxBodyBytes is a 413, anything else a 400.
func bodyError(err error) (int, error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
	}
	return http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
}

// bounded wraps a handler with a request body cap, admission control, the
// worker pool, the per-request timeout, latency metering, and a panic
// barrier (a library panic becomes a 500, never a dead server).
func (s *server) bounded(h func(w http.ResponseWriter, r *http.Request) (status int, err error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.reqs.Inc()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		select {
		case s.slots <- struct{}{}:
			defer func() { <-s.slots }()
		default:
			s.fail(w, http.StatusTooManyRequests, errors.New("server saturated: worker pool and queue are full"))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		select {
		case s.active <- struct{}{}:
			defer func() { <-s.active }()
		case <-ctx.Done():
			s.fail(w, http.StatusServiceUnavailable, errors.New("timed out waiting for a worker"))
			return
		}
		begin := time.Now()
		defer func() {
			s.latency.Observe(time.Since(begin).Seconds())
			if p := recover(); p != nil {
				s.fail(w, http.StatusInternalServerError, fmt.Errorf("internal panic: %v", p))
			}
		}()
		if status, err := h(w, r); err != nil {
			s.fail(w, status, err)
		}
	}
}

// forwardedHeader marks a proxied request so the owning replica serves it
// locally instead of re-routing — one hop, never a loop, even if replicas
// momentarily disagree about membership.
const forwardedHeader = "X-Gossipd-Forwarded"

// servedByHeader names the replica whose cache answered, for observability.
const servedByHeader = "X-Gossipd-Served-By"

// routed wraps a plan-shaped handler with consistent-hash routing: in
// cluster mode, a request whose topology hashes to another replica is
// proxied there, so each replica's cache and disk tier serve a disjoint key
// range and the cluster builds each plan once. Anything that stops the
// proxy — unparseable spec, owner unreachable, owner overloaded — falls back
// to serving locally: routing is an optimisation, never an availability
// dependency.
func (s *server) routed(h func(w http.ResponseWriter, r *http.Request) (int, error)) func(w http.ResponseWriter, r *http.Request) (int, error) {
	return func(w http.ResponseWriter, r *http.Request) (int, error) {
		if s.ring == nil || r.Header.Get(forwardedHeader) != "" {
			return h(w, r)
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return bodyError(err)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var spec topologySpec
		if json.Unmarshal(body, &spec) != nil {
			return h(w, r) // let the local handler produce the 400
		}
		nw, err := buildNetwork(spec)
		if err != nil {
			return h(w, r)
		}
		owner := s.ring.Owner(nw.Fingerprint())
		if owner == s.self {
			w.Header().Set(servedByHeader, s.self)
			return h(w, r)
		}
		if s.proxy(w, r, owner, body) == nil {
			return 0, nil
		}
		s.proxyErrs.Inc()
		r.Body = io.NopCloser(bytes.NewReader(body))
		w.Header().Set(servedByHeader, s.self)
		return h(w, r)
	}
}

// proxy forwards the request to the owning replica and streams its response
// back verbatim. Only transport failures return an error (and trigger the
// caller's local fallback); an HTTP error status from the owner is a real
// answer and passes through.
func (s *server) proxy(w http.ResponseWriter, r *http.Request, owner string, body []byte) error {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, owner+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, s.self)
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	s.proxied.Inc()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set(servedByHeader, owner)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return nil
}

// topologySpec names a network the way the CLI flags do, or carries it
// inline as an edge list over `processors` vertices.
type topologySpec struct {
	Topology   string   `json:"topology"`
	N          int      `json:"n"`
	Rows       int      `json:"rows"`
	Cols       int      `json:"cols"`
	Dim        int      `json:"dim"`
	P          float64  `json:"p"`
	Radio      float64  `json:"radio"`
	Seed       int64    `json:"seed"`
	Processors int      `json:"processors"`
	Edges      [][2]int `json:"edges"`
}

// buildNetwork materialises the spec. Every invalid parameter — negative,
// out-of-range or self-loop edge indices included — comes back as a
// descriptive error before any link is applied, never as a panic. (An
// earlier version validated only the upper bound explicitly and let
// negative indices fall through to the library panic, which the handler's
// recover turned into an opaque 400; checkEdge closes that gap.)
func buildNetwork(spec topologySpec) (*multigossip.Network, error) {
	if len(spec.Edges) > 0 {
		n := spec.Processors
		if n < 0 {
			return nil, fmt.Errorf("invalid processors %d: must be non-negative", n)
		}
		if n == 0 {
			for _, e := range spec.Edges {
				if e[0] >= n {
					n = e[0] + 1
				}
				if e[1] >= n {
					n = e[1] + 1
				}
			}
		}
		for i, e := range spec.Edges {
			if err := checkEdge(e[0], e[1], n); err != nil {
				return nil, fmt.Errorf("invalid edge list: edges[%d]: %w", i, err)
			}
		}
		// A connected network needs n-1 links; refusing a larger n before
		// NewNetwork keeps a short body from sizing a huge allocation.
		if n > len(spec.Edges)+1 {
			return nil, fmt.Errorf("%w: %d processors need at least %d links, got %d",
				multigossip.ErrDisconnected, n, n-1, len(spec.Edges))
		}
		nw := multigossip.NewNetwork(n)
		for _, e := range spec.Edges {
			nw.AddLink(e[0], e[1])
		}
		return nw, nil
	}
	if spec.Topology == "" {
		return nil, errors.New("request names no topology and no edges")
	}
	return cliutil.Build(spec.Topology, cliutil.Params{
		N: spec.N, Rows: spec.Rows, Cols: spec.Cols, Dim: spec.Dim,
		P: spec.P, Radio: spec.Radio, Seed: spec.Seed,
	})
}

// checkEdge validates one endpoint pair against processor count n.
func checkEdge(u, v, n int) error {
	switch {
	case u < 0 || v < 0:
		return fmt.Errorf("negative processor index in {%d, %d}", u, v)
	case u >= n || v >= n:
		return fmt.Errorf("processor index out of range in {%d, %d}: network has %d processors", u, v, n)
	case u == v:
		return fmt.Errorf("self-loop at processor %d", u)
	}
	return nil
}

// parseAlgorithm resolves the request's algorithm field against the
// library's registry, so the accepted names — and the hint in the 400 for
// unknown ones — grow with the portfolio instead of being hardcoded here.
// (An earlier version listed "cud or simple" inline and silently rejected
// every later algorithm.)
func parseAlgorithm(name string) (multigossip.Algorithm, error) {
	a, err := multigossip.ParseAlgorithm(name)
	if err != nil {
		return 0, fmt.Errorf("unknown algorithm %q (want one of %s)",
			name, strings.Join(multigossip.AlgorithmNames(), ", "))
	}
	return a, nil
}

// planRequest asks for a schedule. include_rounds returns the full
// schedule; rounds_from/rounds_count return just that round window,
// streamed straight from the plan's pooled cursor — the response
// cost is proportional to the window, not to the O(n²) schedule, so
// clients can page through a huge plan round by round.
type planRequest struct {
	topologySpec
	Algorithm string `json:"algorithm"`
	// AlgoSeed seeds randomized algorithms (algebraic); deterministic ones
	// ignore it. Distinct from topologySpec.Seed, which seeds random
	// topology generation.
	AlgoSeed      int64 `json:"algo_seed"`
	IncludeRounds bool  `json:"include_rounds"`
	RoundsFrom    int   `json:"rounds_from"`
	RoundsCount   int   `json:"rounds_count"`
}

// roundJSON is one transmission of an included schedule.
type roundJSON struct {
	Message int   `json:"message"`
	From    int   `json:"from"`
	To      []int `json:"to"`
}

// planResponse summarises the plan and how the cache satisfied the request.
type planResponse struct {
	Fingerprint string        `json:"fingerprint"`
	Algorithm   string        `json:"algorithm"`
	Processors  int           `json:"processors"`
	Links       int           `json:"links"`
	Radius      int           `json:"radius"`
	Rounds      int           `json:"rounds"`
	Source      string        `json:"source"`
	PlanMillis  float64       `json:"plan_ms"`
	Schedule    [][]roundJSON `json:"schedule,omitempty"`
	// RoundsFrom/RoundsCount echo the served window when the request asked
	// for one: Schedule[i] is round RoundsFrom+i.
	RoundsFrom  *int `json:"rounds_from,omitempty"`
	RoundsCount *int `json:"rounds_count,omitempty"`
}

// planFor runs the shared plan path of /plan and /execute: build the
// network, consult the cache, map errors to HTTP statuses (400 for bad
// requests, 422 for disconnected networks — the bug class this server must
// answer, not crash on).
func (s *server) planFor(req planRequest) (*multigossip.Plan, planResponse, int, error) {
	algo, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		return nil, planResponse{}, http.StatusBadRequest, err
	}
	nw, err := buildNetwork(req.topologySpec)
	if err != nil {
		if errors.Is(err, multigossip.ErrDisconnected) {
			return nil, planResponse{}, http.StatusUnprocessableEntity, err
		}
		return nil, planResponse{}, http.StatusBadRequest, err
	}
	begin := time.Now()
	plan, source, err := s.cache.PlanSourced(nw,
		multigossip.WithAlgorithm(algo), multigossip.WithSeed(req.AlgoSeed))
	if err != nil {
		if errors.Is(err, multigossip.ErrDisconnected) {
			return nil, planResponse{}, http.StatusUnprocessableEntity, err
		}
		return nil, planResponse{}, http.StatusInternalServerError, err
	}
	resp := planResponse{
		Fingerprint: fmt.Sprintf("%016x", nw.Fingerprint()),
		Algorithm:   algo.String(),
		Processors:  nw.Processors(),
		Links:       nw.Links(),
		Radius:      plan.Radius(),
		Rounds:      plan.Rounds(),
		Source:      source.String(),
		PlanMillis:  float64(time.Since(begin).Microseconds()) / 1000,
	}
	return plan, resp, http.StatusOK, nil
}

func (s *server) handlePlan(w http.ResponseWriter, r *http.Request) (int, error) {
	var req planRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return bodyError(err)
	}
	plan, resp, status, err := s.planFor(req)
	if err != nil {
		return status, err
	}
	if (req.IncludeRounds || req.RoundsCount > 0 || req.RoundsFrom != 0) && !plan.Schedulable() {
		return http.StatusBadRequest,
			fmt.Errorf("algorithm %s has no transmission schedule to include (coded packets; rounds are reported, not enumerable)", resp.Algorithm)
	}
	switch {
	case req.RoundsCount > 0 || req.RoundsFrom != 0:
		if req.IncludeRounds {
			return http.StatusBadRequest, errors.New("include_rounds and rounds_from/rounds_count are mutually exclusive")
		}
		if req.RoundsFrom < 0 || req.RoundsCount < 0 {
			return http.StatusBadRequest, errors.New("rounds_from and rounds_count must be non-negative")
		}
		from := req.RoundsFrom
		count := req.RoundsCount
		if from > plan.Rounds() {
			from = plan.Rounds()
		}
		if max := plan.Rounds() - from; count > max {
			count = max
		}
		resp.Schedule = appendRounds(plan, from, count)
		resp.RoundsFrom, resp.RoundsCount = &from, &count
	case req.IncludeRounds:
		resp.Schedule = appendRounds(plan, 0, plan.Rounds())
	}
	writeJSON(w, http.StatusOK, resp)
	return 0, nil
}

// appendRounds renders the round window [from, from+count) for the wire.
// It streams through Plan.RoundAppend with one recycled buffer, so an
// implicit-backed plan serves any window without ever materialising the
// full schedule.
func appendRounds(plan *multigossip.Plan, from, count int) [][]roundJSON {
	out := make([][]roundJSON, 0, count)
	var buf []multigossip.Transmission
	for t := from; t < from+count; t++ {
		buf = plan.RoundAppend(t, buf[:0])
		round := make([]roundJSON, len(buf))
		for i, tx := range buf {
			round[i] = roundJSON{Message: tx.Message, From: tx.From, To: append([]int(nil), tx.To...)}
		}
		out = append(out, round)
	}
	return out
}

// executeRequest asks for a (possibly faulty) execution of the plan.
type executeRequest struct {
	planRequest
	LinkLoss  float64  `json:"link_loss"`
	LossSeed  int64    `json:"loss_seed"`
	DeadLinks [][2]int `json:"dead_links"`
	CrashStop []struct {
		Proc int `json:"proc"`
		From int `json:"from"`
	} `json:"crash_stop"`
	CrashWindows []struct {
		Proc int `json:"proc"`
		From int `json:"from"`
		To   int `json:"to"`
	} `json:"crash_windows"`
	RepairBudget  int  `json:"repair_budget"`
	WithoutRepair bool `json:"without_repair"`
}

// executeResponse is the FaultReport over the wire, plus the plan summary.
type executeResponse struct {
	planResponse
	Coverage          float64  `json:"coverage"`
	FinalCoverage     float64  `json:"final_coverage"`
	ReachableCoverage float64  `json:"reachable_coverage"`
	Complete          bool     `json:"complete"`
	Dropped           int      `json:"dropped"`
	Repaired          int      `json:"repaired"`
	ScheduleRounds    int      `json:"schedule_rounds"`
	RepairRounds      int      `json:"repair_rounds"`
	TotalRounds       int      `json:"total_rounds"`
	RepairIterations  int      `json:"repair_iterations"`
	QuarantinedLinks  [][2]int `json:"quarantined_links,omitempty"`
	DownProcessors    []int    `json:"down_processors,omitempty"`
	Stalled           bool     `json:"stalled"`
}

func (s *server) handleExecute(w http.ResponseWriter, r *http.Request) (int, error) {
	var req executeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return bodyError(err)
	}
	plan, resp, status, err := s.planFor(req.planRequest)
	if err != nil {
		return status, err
	}
	var opts []multigossip.FaultOption
	if req.LinkLoss > 0 {
		opts = append(opts, multigossip.WithLinkLoss(req.LinkLoss, req.LossSeed))
	}
	for _, l := range req.DeadLinks {
		opts = append(opts, multigossip.WithDeadLink(l[0], l[1]))
	}
	for _, c := range req.CrashStop {
		opts = append(opts, multigossip.WithCrashStop(c.Proc, c.From))
	}
	for _, c := range req.CrashWindows {
		opts = append(opts, multigossip.WithCrashWindow(c.Proc, c.From, c.To))
	}
	if req.RepairBudget > 0 {
		opts = append(opts, multigossip.WithRepairBudget(req.RepairBudget))
	}
	if req.WithoutRepair {
		opts = append(opts, multigossip.WithoutRepair())
	}
	rep, err := plan.ExecuteWithFaults(opts...)
	if err != nil {
		return http.StatusBadRequest, err
	}
	out := executeResponse{
		planResponse:      resp,
		Coverage:          rep.Coverage,
		FinalCoverage:     rep.FinalCoverage,
		ReachableCoverage: rep.ReachableCoverage,
		Complete:          rep.Complete,
		Dropped:           rep.Dropped,
		Repaired:          rep.Repaired,
		ScheduleRounds:    rep.ScheduleRounds,
		RepairRounds:      rep.RepairRounds,
		TotalRounds:       rep.TotalRounds,
		RepairIterations:  rep.RepairIterations,
		DownProcessors:    rep.DownProcessors,
		Stalled:           rep.Stalled,
	}
	for _, l := range rep.QuarantinedLinks {
		out.QuarantinedLinks = append(out.QuarantinedLinks, [2]int{l.U, l.V})
	}
	writeJSON(w, http.StatusOK, out)
	return 0, nil
}

// maxChurnSessions bounds the named-session map: sessions are created on
// first use and live for the process, so without a cap an open-loop client
// inventing session names would grow the server without bound.
const maxChurnSessions = 64

// churnSession is one named dynamic topology: a network plus the
// DynamicPlanner keeping its plan current. The planner is not safe for
// concurrent use, so every request touching the session holds mu. lastUse
// belongs to the server's TTL sweep and is guarded by sessionsMu, not mu.
type churnSession struct {
	mu      sync.Mutex
	nw      *multigossip.Network
	dp      *multigossip.DynamicPlanner
	lastUse time.Time
}

// mutationSpec is one topology mutation of a /mutate request.
type mutationSpec struct {
	Op string `json:"op"` // "add" or "remove"
	U  int    `json:"u"`
	V  int    `json:"v"`
}

// mutateRequest drives a named churn session. The first request for a
// session name must carry a topology spec (inline edges or a named family)
// and may set the flap hysteresis window; later requests address the
// session by name alone and the spec is ignored. Mutations apply in order.
type mutateRequest struct {
	topologySpec
	Session      string         `json:"session"`
	FlapWindowMS int            `json:"flap_window_ms"`
	Mutations    []mutationSpec `json:"mutations"`
}

// mutationResult reports how the planner absorbed one mutation. A refused
// removal (one that would disconnect the network) is not a request error:
// the outcome is "unchanged" and Error carries the refusal, under HTTP 200,
// so a batch keeps applying past it.
type mutationResult struct {
	Op      string `json:"op"`
	U       int    `json:"u"`
	V       int    `json:"v"`
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
}

// mutateResponse summarises the session's served plan after the batch.
// Outcome is the batch's single plan decision — the whole mutation list is
// absorbed by one reuse, one graft or one rebuild, not by a decision per
// mutation.
type mutateResponse struct {
	Session     string           `json:"session"`
	Created     bool             `json:"created"`
	Fingerprint string           `json:"fingerprint"`
	Processors  int              `json:"processors"`
	Links       int              `json:"links"`
	Radius      int              `json:"radius"`
	Rounds      int              `json:"rounds"`
	Outcome     string           `json:"outcome"`
	Results     []mutationResult `json:"results"`
}

// session returns the named churn session, creating it from the request's
// topology spec on first use. Sessions share the server's plan cache (so
// /plan requests for a patched topology hit the patched plan) and metrics
// registry (the churn_* counters aggregate across sessions).
//
// When a session TTL is configured, every call first sweeps sessions idle
// past the TTL — eviction frees their slot against maxChurnSessions. A
// request naming an unknown (or just-expired) session without a topology
// spec is a 404: the client must re-create the session, not mutate a
// topology the server no longer holds.
func (s *server) session(req mutateRequest) (sess *churnSession, created bool, status int, err error) {
	s.sessionsMu.Lock()
	defer s.sessionsMu.Unlock()
	now := s.now()
	if s.sessionTTL > 0 {
		for name, old := range s.sessions {
			if now.Sub(old.lastUse) > s.sessionTTL {
				delete(s.sessions, name)
				s.expiredSessions.Inc()
			}
		}
	}
	if sess, ok := s.sessions[req.Session]; ok {
		sess.lastUse = now
		return sess, false, 0, nil
	}
	if req.Topology == "" && len(req.Edges) == 0 {
		return nil, false, http.StatusNotFound,
			fmt.Errorf("unknown or expired session %q: re-create it with a topology spec", req.Session)
	}
	if len(s.sessions) >= maxChurnSessions {
		return nil, false, http.StatusTooManyRequests,
			fmt.Errorf("session limit reached (%d)", maxChurnSessions)
	}
	nw, err := buildNetwork(req.topologySpec)
	if err != nil {
		if errors.Is(err, multigossip.ErrDisconnected) {
			return nil, false, http.StatusUnprocessableEntity, err
		}
		return nil, false, http.StatusBadRequest, err
	}
	opts := []multigossip.DynamicOption{
		multigossip.WithPlanCache(s.cache),
		multigossip.WithChurnMetrics(s.metrics),
	}
	if req.FlapWindowMS > 0 {
		opts = append(opts, multigossip.WithFlapWindow(time.Duration(req.FlapWindowMS)*time.Millisecond))
	}
	dp, err := multigossip.NewDynamicPlanner(nw, opts...)
	if err != nil {
		if errors.Is(err, multigossip.ErrDisconnected) {
			return nil, false, http.StatusUnprocessableEntity, err
		}
		return nil, false, http.StatusBadRequest, err
	}
	sess = &churnSession{nw: nw, dp: dp, lastUse: now}
	s.sessions[req.Session] = sess
	return sess, true, 0, nil
}

func (s *server) handleMutate(w http.ResponseWriter, r *http.Request) (int, error) {
	var req mutateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return bodyError(err)
	}
	if req.Session == "" {
		return http.StatusBadRequest, errors.New("request names no session")
	}
	for i, m := range req.Mutations {
		if m.Op != "add" && m.Op != "remove" {
			return http.StatusBadRequest,
				fmt.Errorf("mutations[%d]: unknown op %q (want add or remove)", i, m.Op)
		}
	}
	sess, created, status, err := s.session(req)
	if err != nil {
		return status, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	// Index validation against the session's real processor count, before
	// any mutation applies — a half-applied batch with a 400 at the end
	// would leave the session in a state the client can't see.
	n := sess.nw.Processors()
	for i, m := range req.Mutations {
		if err := checkEdge(m.U, m.V, n); err != nil {
			return http.StatusBadRequest, fmt.Errorf("mutations[%d]: %w", i, err)
		}
	}
	// The whole list goes through one Apply: the planner nets out the damage
	// against the final topology and makes a single reuse/graft/rebuild
	// decision, instead of paying one decision (and one cache churn) per
	// mutation. Refused mutations come back per-entry, not as a request
	// error, so a batch keeps applying past a removal that would disconnect.
	muts := make([]multigossip.Mutation, len(req.Mutations))
	for i, m := range req.Mutations {
		muts[i] = multigossip.Mutation{Remove: m.Op == "remove", U: m.U, V: m.V}
	}
	outcome, applied, err := sess.dp.Apply(muts)
	if err != nil {
		return http.StatusInternalServerError, err
	}
	results := make([]mutationResult, len(applied))
	for i, a := range applied {
		results[i] = mutationResult{Op: req.Mutations[i].Op, U: a.U, V: a.V}
		switch {
		case a.Err != nil:
			results[i].Outcome = multigossip.PatchUnchanged.String()
			results[i].Error = a.Err.Error()
		case !a.Changed:
			results[i].Outcome = multigossip.PatchUnchanged.String()
		default:
			results[i].Outcome = outcome.String()
		}
	}
	plan := sess.dp.Plan()
	writeJSON(w, http.StatusOK, mutateResponse{
		Session:     req.Session,
		Created:     created,
		Fingerprint: fmt.Sprintf("%016x", sess.nw.Fingerprint()),
		Processors:  sess.nw.Processors(),
		Links:       sess.nw.Links(),
		Radius:      plan.Radius(),
		Rounds:      plan.Rounds(),
		Outcome:     outcome.String(),
		Results:     results,
	})
	return 0, nil
}

// healthResponse is the /healthz body: pure liveness. The process is up and
// the HTTP stack answers — nothing else. Orchestrators restart on a failed
// /healthz, so it must not reflect conditions a restart cannot fix (a dead
// disk would otherwise put the replica in a restart loop).
type healthResponse struct {
	Status   string `json:"status"`
	UptimeMS int64  `json:"uptime_ms"`
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status:   "ok",
		UptimeMS: time.Since(s.start).Milliseconds(),
	})
}

// clusterInfo describes this replica's place in the ring.
type clusterInfo struct {
	Self  string   `json:"self"`
	Peers []string `json:"peers"`
}

// readyResponse is the /readyz body: readiness and serving detail. Status is
// "degraded" when the disk tier has stopped writing — still HTTP 200,
// because a degraded replica serves correctly from memory and pulling it
// from rotation would turn a disk failure into lost capacity. Monitors that
// want to page on degradation read the status string (or the
// planstore_degraded gauge in /metrics).
type readyResponse struct {
	Status   string                  `json:"status"`
	UptimeMS int64                   `json:"uptime_ms"`
	Cache    multigossip.CacheStats  `json:"cache"`
	Store    *multigossip.StoreStats `json:"store,omitempty"`
	Cluster  *clusterInfo            `json:"cluster,omitempty"`
	Sessions int                     `json:"sessions"`
}

func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.sessionsMu.Lock()
	nsess := len(s.sessions)
	s.sessionsMu.Unlock()
	resp := readyResponse{
		Status:   "ok",
		UptimeMS: time.Since(s.start).Milliseconds(),
		Cache:    s.cache.Stats(),
		Sessions: nsess,
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Store = &st
		if s.store.Degraded() {
			resp.Status = "degraded"
		}
	}
	if s.ring != nil {
		resp.Cluster = &clusterInfo{Self: s.self, Peers: s.ring.Members()}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
}
