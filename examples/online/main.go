// Online: the Section 4 distributed adaptation, executed for real.
//
// "The only global information they need is the value of i, j, and k."
// Each processor runs as a state machine knowing just its DFS tuple and
// tree neighbourhood, acting only on the messages that actually reach it;
// synchronous rounds (the paper's software barrier) carry the messages.
// The run must match the plan transmission for transmission —
// ExecuteDistributed errors out otherwise.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"multigossip"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		nw   *multigossip.Network
	}{
		{"Fig. 4 network (n=16)", multigossip.Fig4Network()},
		{"hypercube d=5 (n=32)", multigossip.Hypercube(5)},
		{"random network (n=48)", multigossip.RandomNetwork(rng, 48, 0.1)},
		{"sensor field (n=40)", multigossip.SensorField(rng, 40, 0.22)},
	} {
		plan, err := tc.nw.PlanGossip()
		if err != nil {
			log.Fatal(err)
		}
		rounds, err := plan.ExecuteDistributed()
		if err != nil {
			log.Fatalf("%s: distributed run failed: %v", tc.name, err)
		}
		fmt.Printf("%-24s %d processors gossiped in %d rounds — identical to the offline schedule (n + r = %d)\n",
			tc.name, tc.nw.Processors(), rounds, plan.Rounds())
	}
}
