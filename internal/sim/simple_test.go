package sim

import (
	"strings"
	"testing"

	"multigossip/internal/core"
	"multigossip/internal/graph"
	"multigossip/internal/implicit"
	"multigossip/internal/schedule"
	"multigossip/internal/spantree"
)

// recordSimple runs RunSimple with a schedule-building sink and returns
// the canonical-space schedule it produced.
func recordSimple(t *testing.T, topo implicit.Topo) (*schedule.Schedule, Result) {
	t.Helper()
	s := schedule.New(topo.N)
	res, err := RunSimple(topo, func(round int, txs []schedule.Transmission) error {
		for _, tx := range txs {
			s.AddSend(round, tx.Msg, tx.From, tx.To...)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunSimple: %v", err)
	}
	return s, res
}

// assertSimpleMatchesOffline holds RunSimple to core.BuildSimple on one
// labelled tree: the same transmissions, the same delivery count, and
// completion at 2n + height - 3.
func assertSimpleMatchesOffline(t *testing.T, name string, l *spantree.Labeled) {
	t.Helper()
	want := core.BuildSimple(l)
	want.Normalize()
	got, res := recordSimple(t, implicit.New(l).Topo())
	got.Normalize()
	if !got.Equal(want) {
		t.Fatalf("%s: RunSimple differs from core.BuildSimple\nsim:\n%s\noffline:\n%s", name, got, want)
	}
	if wantAt := core.SimpleTime(l.N(), l.T.Height); res.CompleteAt != wantAt {
		t.Fatalf("%s: completed at %d, want 2n+r-3 = %d", name, res.CompleteAt, wantAt)
	}
	if res.Deliveries != int64(want.Deliveries()) || res.Sends != int64(want.Transmissions()) {
		t.Fatalf("%s: %d deliveries in %d sends, want %d in %d",
			name, res.Deliveries, res.Sends, want.Deliveries(), want.Transmissions())
	}
}

func TestSimpleMatchesOffline(t *testing.T) {
	for _, g := range append(batteryGraphs(), graph.Grid(3, 3)) {
		assertSimpleMatchesOffline(t, g.String(), labeledFor(t, g))
	}
}

func TestSimpleExhaustiveSmallTrees(t *testing.T) {
	for n := 1; n <= 6; n++ {
		graph.AllTrees(n, func(g *graph.Graph) bool {
			tr, err := spantree.BFSTree(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			assertSimpleMatchesOffline(t, g.String(), spantree.Label(tr))
			return true
		})
	}
}

// TestSimpleFailFastDiagnostics drives RunSimple's checks with hand-crafted
// inconsistent three-vertex topologies (root 0, identity label maps).
func TestSimpleFailFastDiagnostics(t *testing.T) {
	cases := []struct {
		name, want           string
		hi, level, parent    []int32
		childStart, children []int32
	}{{
		// Vertex 1 claims message 2 in its interval but has no child to
		// deliver it, so its relay at time 1 has nothing to send.
		name: "missing-child-arrival", want: "expected message 2 from a child at time 1",
		hi: []int32{2, 2, 2}, level: []int32{0, 1, 1}, parent: []int32{-1, 0, 0},
		childStart: []int32{0, 2, 2, 2}, children: []int32{1, 2},
	}, {
		// Vertex 2 claims level 2 under the root, so both children relay
		// to the root at time 0.
		name: "receive-conflict", want: "vertex 0 receives two messages at time 1",
		hi: []int32{2, 1, 2}, level: []int32{0, 1, 2}, parent: []int32{-1, 0, 0},
		childStart: []int32{0, 2, 2, 2}, children: []int32{1, 2},
	}, {
		// The root's child list omits vertex 2, so the down phase never
		// reaches it.
		name: "incomplete", want: "vertex 2 holds 0 of 2 foreign messages",
		hi: []int32{2, 1, 2}, level: []int32{0, 1, 1}, parent: []int32{-1, 0, 0},
		childStart: []int32{0, 1, 1, 1}, children: []int32{1},
	}, {
		// Vertex 2 hangs below vertex 1, whose interval stops at 1.
		name: "child-outside-subtree", want: "vertex 1 received message 2 from a child at time 1 out of subtree order",
		hi: []int32{2, 1, 2}, level: []int32{0, 1, 2}, parent: []int32{-1, 0, 1},
		childStart: []int32{0, 1, 2, 2}, children: []int32{1, 2},
	}, {
		// Vertex 1 claims level 0, so its last relay lands in the round the
		// root's message 0 reaches it.
		name: "relay-and-forward", want: "vertex 1 must both relay message 2 up and forward message 0 down at time 2",
		hi: []int32{2, 2, 2}, level: []int32{0, 0, 2}, parent: []int32{-1, 0, 1},
		childStart: []int32{0, 1, 2, 2}, children: []int32{1, 2},
	}, {
		// Vertex 2 claims level -1, so message 2 reaches the root after the
		// root must multicast it.
		name: "root-not-holding", want: "root multicasts message 2 at time 3 before holding it",
		hi: []int32{2, 1, 2}, level: []int32{0, 1, -1}, parent: []int32{-1, 0, 0},
		childStart: []int32{0, 2, 2, 2}, children: []int32{1, 2},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vo, lo := identityMaps(3)
			topo := implicit.Topo{
				N: 3, Height: 2, Hi: c.hi, Level: c.level, Parent: c.parent,
				ChildStart: c.childStart, Children: c.children, VertexOf: vo, LabelOf: lo,
			}
			_, err := RunSimple(topo, nil)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want %q, got %v", c.want, err)
			}
		})
	}
}
