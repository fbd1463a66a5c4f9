// survivor.go implements the adaptive half of the repair engine: suspicion
// tracking, quarantine, and the survivor-subgraph reachability analysis.
//
// The retry loop in repair.go is sufficient against transient faults —
// under any sub-certain loss rate a retried delivery eventually lands. A
// permanently dead link or a crash-stop processor breaks that assumption:
// the same planned delivery fails every iteration and the budget burns out
// with nothing to show. Fault-tolerant gossip schemes treat such faults as
// a topology change, not a retry problem, and so does this file: repeated
// failures raise suspicion, suspicion past a threshold quarantines the
// link or processor, and planning moves to the survivor subgraph. Once the
// survivor graph is partitioned, the reachability analysis derives the
// coverage ceiling — the pairs whose message still has a holder in the
// destination's component — so the loop can terminate "complete up to
// reachability" instead of exhausting its budget on the impossible.
package repair

import (
	"sort"

	"multigossip/internal/fault"
	"multigossip/internal/graph"
	"multigossip/internal/schedule"
)

// Pair is one (processor, message) pair of the gossip deficit: processor
// Processor does not hold message Message.
type Pair struct {
	Processor, Message int
}

// QuarantineEvent records one amputation of the topology: the repair
// iteration whose failures pushed the suspicion counters past the
// threshold, and what was removed from the survivor graph.
type QuarantineEvent struct {
	Iteration  int          // 0-based repair iteration that triggered the event
	Links      []graph.Edge // links quarantined by the event, ordered by (U, V)
	Processors []int        // processors marked down by the event, ascending
}

// linkKey is an undirected link with u < v.
type linkKey struct{ u, v int }

func mkLink(a, b int) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// suspicion accumulates delivery-failure evidence across repair iterations
// and decides quarantine. It deliberately observes only what a real system
// could: which deliveries were attempted and which landed. The executor
// does know whether a loss was an in-flight drop or a crashed receiver,
// but the tracker does not use that distinction — both are a missing
// acknowledgement. A sender that was planned to transmit and stayed
// silent (fault.SenderDown) is evidence against the sender; a skip caused
// by upstream fault propagation (fault.SenderMissing) is evidence against
// nothing, which keeps a dead link early on a repair path from smearing
// suspicion over the healthy links downstream of it.
//
// Attribution follows parsimony. A receive that failed over a single link
// is explained by that link alone, so it raises suspicion against the link
// but not the processor — otherwise one dead bridge would amputate both of
// its live endpoints. A processor is suspected only on evidence no single
// link can explain: it went silent as a transmitter, or every receive to
// it failed across two or more distinct links in the same iteration.
type suspicion struct {
	threshold int

	// Persistent counters: consecutive failed iterations per link and per
	// processor, and what has already been quarantined.
	linkFail    map[linkKey]int
	procFail    []int
	quarantined map[linkKey]bool
	down        []bool

	// Per-iteration scratch, reset by beginIteration.
	linkAttempt map[linkKey]bool
	linkOK      map[linkKey]bool
	recvFail    []map[int]bool // receiver -> senders whose transmissions to it failed
	recvOK      []bool
	senderDown  []bool
	sendOK      []bool
}

func newSuspicion(n, threshold int) *suspicion {
	return &suspicion{
		threshold:   threshold,
		linkFail:    make(map[linkKey]int),
		procFail:    make([]int, n),
		quarantined: make(map[linkKey]bool),
		down:        make([]bool, n),
		linkAttempt: make(map[linkKey]bool),
		linkOK:      make(map[linkKey]bool),
		recvFail:    make([]map[int]bool, n),
		recvOK:      make([]bool, n),
		senderDown:  make([]bool, n),
		sendOK:      make([]bool, n),
	}
}

func (s *suspicion) beginIteration() {
	clear(s.linkAttempt)
	clear(s.linkOK)
	for i := range s.recvOK {
		clear(s.recvFail[i])
		s.recvOK[i] = false
		s.senderDown[i] = false
		s.sendOK[i] = false
	}
}

// observe is the fault.Observer fed to the executor during each repair
// iteration.
func (s *suspicion) observe(_, from, to, _ int, outcome fault.DeliveryOutcome) {
	switch outcome {
	case fault.Delivered:
		k := mkLink(from, to)
		s.linkAttempt[k] = true
		s.linkOK[k] = true
		s.recvOK[to] = true
		s.sendOK[from] = true
	case fault.LostInFlight, fault.ReceiverDown:
		// A transmission entered the link and never landed: evidence
		// against the link, and against the receiver once failures span
		// more links than one.
		s.linkAttempt[mkLink(from, to)] = true
		if s.recvFail[to] == nil {
			s.recvFail[to] = make(map[int]bool)
		}
		s.recvFail[to][from] = true
	case fault.SenderDown:
		// Nothing entered the link; the silence implicates the sender only.
		s.senderDown[from] = true
	case fault.SenderMissing, fault.Superseded:
		// Upstream propagation or a same-round conflict: no evidence
		// against this link or either endpoint.
	}
}

// endIteration folds the iteration's evidence into the persistent counters
// and returns what was newly quarantined (links ordered by (U, V),
// processors ascending).
//
// Processor quarantine dominates link quarantine: when a processor is the
// parsimonious explanation — it stayed silent as a sender, or receives to
// it failed over several distinct links at once — it alone is quarantined
// and the counters of its links are dropped (its links leave the survivor
// graph with it anyway).
func (s *suspicion) endIteration() (newLinks []graph.Edge, newProcs []int) {
	for p := range s.procFail {
		if s.down[p] {
			continue
		}
		switch {
		case s.recvOK[p] || s.sendOK[p]:
			s.procFail[p] = 0
		case s.senderDown[p] || len(s.recvFail[p]) >= 2:
			s.procFail[p]++
			if s.procFail[p] >= s.threshold {
				newProcs = append(newProcs, p)
			}
		}
	}
	for _, p := range newProcs {
		s.down[p] = true
	}
	for k := range s.linkFail {
		if s.down[k.u] || s.down[k.v] {
			delete(s.linkFail, k)
		}
	}
	for k := range s.linkAttempt {
		if s.quarantined[k] || s.down[k.u] || s.down[k.v] {
			continue
		}
		if s.linkOK[k] {
			delete(s.linkFail, k)
			continue
		}
		s.linkFail[k]++
		if s.linkFail[k] >= s.threshold {
			s.quarantined[k] = true
			delete(s.linkFail, k)
			newLinks = append(newLinks, graph.Edge{U: k.u, V: k.v})
		}
	}
	sort.Slice(newLinks, func(i, j int) bool {
		if newLinks[i].U != newLinks[j].U {
			return newLinks[i].U < newLinks[j].U
		}
		return newLinks[i].V < newLinks[j].V
	})
	return newLinks, newProcs
}

// survivorGraph returns g minus the quarantined links and minus every link
// incident to a down processor — the topology the planner may still trust.
// Down processors remain as isolated vertices so indices stay stable.
func (s *suspicion) survivorGraph(g *graph.Graph) *graph.Graph {
	sg := graph.New(g.N())
	for _, e := range g.Edges() {
		if s.down[e.U] || s.down[e.V] || s.quarantined[linkKey{e.U, e.V}] {
			continue
		}
		sg.AddEdge(e.U, e.V)
	}
	return sg
}

// quarantinedLinks returns the quarantined links ordered by (U, V).
func (s *suspicion) quarantinedLinks() []graph.Edge {
	out := make([]graph.Edge, 0, len(s.quarantined))
	for k := range s.quarantined {
		out = append(out, graph.Edge{U: k.u, V: k.v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// downProcessors returns the quarantined processors, ascending.
func (s *suspicion) downProcessors() []int {
	var out []int
	for p, d := range s.down {
		if d {
			out = append(out, p)
		}
	}
	return out
}

// reach is the reachability analysis of one survivor graph: its component
// labelling and the per-component union of hold sets, the messages a
// component can still spread internally (a down processor is isolated, so
// its singleton union is its own retained memory). Run builds one per
// survivor graph and keeps it until a quarantine replaces the graph. The
// unions stay exact meanwhile: repair rounds are planned over survivor
// links only, so every delivery moves a message within its component and
// no union changes.
type reach struct {
	compOf []int              // component label of every processor
	unions []*schedule.Bitset // one per component
}

func newReach(surv *graph.Graph, holds []*schedule.Bitset) *reach {
	compOf, count := surv.ComponentLabels()
	nmsg := 0
	if len(holds) > 0 {
		nmsg = holds[0].Len()
	}
	r := &reach{compOf: compOf, unions: schedule.NewBitsets(count, nmsg)}
	for v, h := range holds {
		r.unions[compOf[v]].Or(h)
	}
	return r
}

// deficit counts the missing (processor, message) pairs that a repair
// over the survivor graph could still close: pairs whose message has a
// holder in the processor's survivor component.
func (r *reach) deficit(holds []*schedule.Bitset) int {
	deficit := 0
	for v, h := range holds {
		deficit += r.unions[r.compOf[v]].CountAndNot(h)
	}
	return deficit
}

// unreachable lists the missing pairs beyond the reachable ceiling,
// ordered by (Processor, Message). Held pairs are never listed: a pair
// already delivered is trivially "reachable".
func (r *reach) unreachable(holds []*schedule.Bitset) []Pair {
	var out []Pair
	var msgs []int
	for v, h := range holds {
		msgs = h.AppendClearInBoth(msgs[:0], r.unions[r.compOf[v]])
		for _, m := range msgs {
			out = append(out, Pair{Processor: v, Message: m})
		}
	}
	return out
}
