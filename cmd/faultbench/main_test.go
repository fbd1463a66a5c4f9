package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestReproducesCommittedRecord reruns the n = 256 loss cases and
// permanent-fault scenarios of the committed BENCH_fault.json through the
// functions main calls, and requires every field of every row to come
// back identical: repair is deterministic under seeded loss, so any
// change to the planner, the executor or the diameter cap that alters an
// outcome shows here.
func TestReproducesCommittedRecord(t *testing.T) {
	buf, err := os.ReadFile("../../BENCH_fault.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed report
	if err := json.Unmarshal(buf, &committed); err != nil {
		t.Fatal(err)
	}
	const n = 256
	for _, kind := range []string{"ring", "grid", "random"} {
		var want []record
		for _, r := range committed.Cases {
			if r.Topology == kind && r.N == n {
				want = append(want, r)
			}
		}
		if len(want) == 0 {
			t.Fatalf("committed record has no %s n=%d cases", kind, n)
		}
		rates := make([]float64, len(want))
		for i, r := range want {
			rates[i] = r.LossRate
		}
		got, err := measure(kind, n, rates, want[0].Trials, want[0].RepairBudget, nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s n=%d loss %v:\n got %+v\nwant %+v", kind, n, want[i].LossRate, got[i], want[i])
			}
		}

		var wantPerm []permRecord
		for _, r := range committed.PermanentFaults {
			if r.Topology == kind && r.N == n {
				wantPerm = append(wantPerm, r)
			}
		}
		if len(wantPerm) == 0 {
			t.Fatalf("committed record has no %s n=%d permanent-fault rows", kind, n)
		}
		gotPerm, err := measurePermanent(kind, n, wantPerm[0].RepairBudget, nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(gotPerm, wantPerm) {
			t.Errorf("%s n=%d permanent faults:\n got %+v\nwant %+v", kind, n, gotPerm, wantPerm)
		}
	}
}
