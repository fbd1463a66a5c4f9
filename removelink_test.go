package multigossip

import (
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
)

func TestRemoveLinkAbsentIsNoop(t *testing.T) {
	nw := Ring(8)
	fp := nw.Fingerprint()
	if err := nw.RemoveLink(0, 4); err != nil {
		t.Fatalf("removing an absent link: %v", err)
	}
	if nw.Links() != 8 {
		t.Errorf("absent-link removal changed the link count to %d", nw.Links())
	}
	if nw.Fingerprint() != fp {
		t.Error("absent-link removal changed the fingerprint")
	}
}

func TestRemoveLinkBridgeRollsBack(t *testing.T) {
	nw := Line(6) // every link of a line is a bridge
	err := nw.RemoveLink(2, 3)
	if err == nil {
		t.Fatal("bridge removal succeeded")
	}
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("bridge removal error %v does not wrap ErrDisconnected", err)
	}
	if !nw.HasLink(2, 3) {
		t.Error("bridge removal was not rolled back")
	}
	if !nw.Connected() {
		t.Error("network disconnected after rolled-back removal")
	}
	if r := nw.Radius(); r != 3 {
		t.Errorf("radius %d after rolled-back removal, want 3", r)
	}
}

func TestRemoveLinkFingerprintBitIdentical(t *testing.T) {
	nw := Ring(16)
	orig := nw.Fingerprint()

	// Remove an existing link and re-add it: the fingerprint must come back
	// bit for bit, because the XOR delta self-cancels.
	if err := nw.RemoveLink(3, 4); err != nil {
		t.Fatal(err)
	}
	removed := nw.Fingerprint()
	if removed == orig {
		t.Error("fingerprint unchanged by a real removal")
	}
	nw.AddLink(3, 4)
	if got := nw.Fingerprint(); got != orig {
		t.Errorf("fingerprint %#x after remove-then-re-add, want original %#x", got, orig)
	}

	// The incrementally maintained value must also agree with a from-scratch
	// computation over the same topology.
	nw.AddLink(0, 8)
	fresh := Ring(16)
	fresh.AddLink(0, 8)
	if nw.Fingerprint() != fresh.Fingerprint() {
		t.Error("incremental fingerprint diverged from the from-scratch value")
	}
}

// TestRemoveLinkMetricsStayExact churns a random network with interleaved
// metric reads and cross-checks every read against a freshly built network
// of the same topology, exercising both the repair path and the fallback.
func TestRemoveLinkMetricsStayExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nw := RandomNetwork(rng, 48, 0.12)
	for step := 0; step < 30; step++ {
		u, v := rng.Intn(48), rng.Intn(48)
		if u == v {
			continue
		}
		if nw.HasLink(u, v) {
			if err := nw.RemoveLink(u, v); err != nil && !errors.Is(err, ErrDisconnected) {
				t.Fatal(err)
			}
		} else {
			nw.AddLink(u, v)
		}
		got, err := nw.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewNetwork(48)
		for u := 0; u < 48; u++ {
			for v := u + 1; v < 48; v++ {
				if nw.HasLink(u, v) {
					fresh.AddLink(u, v)
				}
			}
		}
		want, err := fresh.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if got.Radius != want.Radius || got.Diameter != want.Diameter {
			t.Fatalf("step %d: metrics (r=%d,d=%d), fresh network says (r=%d,d=%d)",
				step, got.Radius, got.Diameter, want.Radius, want.Diameter)
		}
	}
}

// TestConcurrentChurnAndAccessors is the -race regression test for the
// unlocked read-accessor bug: HasLink, Links and Connected used to read the
// graph without the mutation lock, racing AddLink. It hammers every
// accessor against concurrent AddLink/RemoveLink churn.
func TestConcurrentChurnAndAccessors(t *testing.T) {
	nw := Ring(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				u := (i*13 + w*17) % 64
				v := (u + 2 + i%31) % 64
				if u == v {
					continue
				}
				if i%3 == 0 {
					_ = nw.RemoveLink(u, v) // may fail on a bridge; rollback keeps it legal
				} else {
					nw.AddLink(u, v)
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch (i + w) % 5 {
				case 0:
					nw.HasLink(i%64, (i+1)%64)
				case 1:
					if nw.Links() < 0 {
						t.Error("negative link count")
					}
				case 2:
					if !nw.Connected() {
						t.Error("network disconnected under rollback-guarded churn")
					}
				case 3:
					nw.Fingerprint()
				default:
					if r := nw.Radius(); r < 1 || r > 32 {
						t.Errorf("radius %d out of range", r)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestNetworkMethodsSnapshotUnderChurn is the -race regression test for
// the Network methods that read the graph without the mutation lock. One
// goroutine flaps a chord of a six-ring (never a bridge) while another
// calls each method; every plan must verify against the topology it was
// planned on.
func TestNetworkMethodsSnapshotUnderChurn(t *testing.T) {
	nw := Ring(6)
	nw.AddLink(0, 3)
	plan, err := Ring(6).PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	js, err := plan.ScheduleJSON()
	if err != nil {
		t.Fatal(err)
	}
	calls := []func() error{
		func() error { _, err := nw.GossipStreamSummary(true); return err },
		func() error { _, err := nw.GossipStreamSummary(false); return err },
		func() error {
			p, err := nw.PlanKPortGossip(2)
			if err != nil {
				return err
			}
			return p.Verify()
		},
		func() error {
			p, err := nw.PlanGather(0)
			if err != nil {
				return err
			}
			return p.Verify()
		},
		func() error {
			p, err := nw.PlanScatter(0)
			if err != nil {
				return err
			}
			return p.Verify()
		},
		func() error {
			p, err := nw.PlanMulticasts([]Multicast{{Origin: 0, Dests: []int{2, 3, 4}}, {Origin: 5, Dests: []int{1}}})
			if err != nil {
				return err
			}
			return p.Verify()
		},
		func() error { _, err := nw.OptimalRounds(MulticastModel, 6); return err },
		func() error { _, err := nw.GreedyRounds(MulticastModel, 1, 2); return err },
		func() error { nw.HamiltonianCircuit(); return nil },
		func() error {
			p, err := nw.PlanRingRotation([]int{0, 1, 2, 3, 4, 5})
			if err != nil {
				return err
			}
			return p.Verify()
		},
		func() error { return nw.WriteEdgeList(io.Discard) },
		func() error { _, err := VerifyScheduleJSON(nw, []byte(js)); return err },
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := nw.RemoveLink(0, 3); err != nil {
				t.Error(err)
				return
			}
			nw.AddLink(0, 3)
		}
	}()
	for round := 0; round < 3; round++ {
		for i, call := range calls {
			if err := call(); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
	}
	close(done)
	wg.Wait()
}

// TestGatherPlanKeepsItsTopology routes a gather over a chord, removes the
// chord and verifies the plan: it checks the topology it was planned on,
// not the network's current one.
func TestGatherPlanKeepsItsTopology(t *testing.T) {
	nw := Ring(8)
	nw.AddLink(0, 4)
	p, err := nw.PlanGather(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.RemoveLink(0, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("gather planned over chord {0, 4} fails after its removal: %v", err)
	}
}
