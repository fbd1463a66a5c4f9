package multigossip

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// storeRing returns a connected ring network of n processors with a few
// chords so plans are not degenerate.
func storeRing(n int) *Network {
	nw := NewNetwork(n)
	for i := 0; i < n; i++ {
		nw.AddLink(i, (i+1)%n)
	}
	nw.AddLink(0, n/2)
	nw.AddLink(1, n/3)
	return nw
}

// TestStoreWarmStartBitIdentical is the crash/restart drill: build through a
// store-backed cache, throw the cache (and the "process") away, open a
// fresh cache over the same directory, and require the plan to come back
// from disk — zero constructions — with every round bit-identical to the
// pre-crash plan's.
func TestStoreWarmStartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	nw := storeRing(64)

	cold := NewPlanCache(WithCacheStore(OpenPlanStore(dir)))
	before, src, err := cold.PlanSourced(nw)
	if err != nil || src != CacheMiss {
		t.Fatalf("cold plan: %v, %v", src, err)
	}

	store := OpenPlanStore(dir)
	warm := NewPlanCache(WithCacheStore(store))
	after, src, err := warm.PlanSourced(nw)
	if err != nil {
		t.Fatalf("warm plan: %v", err)
	}
	if src != CacheDisk {
		t.Fatalf("warm source = %v, want CacheDisk", src)
	}
	if st := warm.Stats(); st.Misses != 0 || st.DiskHits != 1 {
		t.Fatalf("warm stats %+v, want zero rebuilds and one disk hit", st)
	}
	if st := store.Stats(); st.Hits != 1 {
		t.Fatalf("store stats %+v, want one hit", st)
	}

	if before.Rounds() != after.Rounds() {
		t.Fatalf("rounds %d vs %d across restart", before.Rounds(), after.Rounds())
	}
	for r := 0; r < before.Rounds(); r++ {
		if !reflect.DeepEqual(before.Round(r), after.Round(r)) {
			t.Fatalf("round %d differs across restart", r)
		}
	}
	if err := after.Verify(); err != nil {
		t.Fatalf("restored plan failed verification: %v", err)
	}
}

// TestStoreCorruptEntryRebuilds flips a payload bit on disk and requires the
// checksum to catch it: the corrupted entry quarantines, the request falls
// through to a rebuild, and the rebuilt plan is served and re-persisted.
func TestStoreCorruptEntryRebuilds(t *testing.T) {
	dir := t.TempDir()
	nw := storeRing(32)

	cold := NewPlanCache(WithCacheStore(OpenPlanStore(dir)))
	if _, err := cold.Plan(nw); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.plan"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries on disk: %v (%v)", entries, err)
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x10
	if err := os.WriteFile(entries[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	store := OpenPlanStore(dir)
	warm := NewPlanCache(WithCacheStore(store))
	p, src, err := warm.PlanSourced(nw)
	if err != nil {
		t.Fatalf("plan after corruption: %v", err)
	}
	if src != CacheMiss {
		t.Fatalf("source = %v, want CacheMiss (corrupt entry must rebuild, not serve)", src)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Quarantined != 1 || st.Hits != 0 {
		t.Fatalf("store stats %+v, want the corrupt entry quarantined and no hit", st)
	}
	q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
	if len(q) != 1 {
		t.Fatalf("quarantine holds %v, want the bad entry", q)
	}
	// The rebuild wrote through, so the next process warm-starts again.
	if _, src, _ := NewPlanCache(WithCacheStore(OpenPlanStore(dir))).PlanSourced(nw); src != CacheDisk {
		t.Fatalf("post-recovery source = %v, want CacheDisk", src)
	}
}

// TestStoreSemanticForgeryDropped hand-crafts an entry whose checksum is
// valid but whose payload decodes to a topology with a different
// fingerprint — the store tier cannot see this, the decode layer must.
func TestStoreSemanticForgeryDropped(t *testing.T) {
	dir := t.TempDir()
	victim := storeRing(32)
	other := storeRing(48)

	// Persist a plan for `other`, then copy its bytes onto `victim`'s key
	// with a fresh, valid checksum (Save computes it).
	cold := NewPlanCache(WithCacheStore(OpenPlanStore(dir)))
	if _, err := cold.Plan(other); err != nil {
		t.Fatal(err)
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "*.plan"))
	if len(entries) != 1 {
		t.Fatalf("entries: %v", entries)
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	forged := OpenPlanStore(dir)
	forged.s.Save(victim.Fingerprint(), int(ConcurrentUpDown), raw[32:])

	store := OpenPlanStore(dir)
	warm := NewPlanCache(WithCacheStore(store))
	p, src, err := warm.PlanSourced(victim)
	if err != nil {
		t.Fatal(err)
	}
	if src != CacheMiss {
		t.Fatalf("source = %v, want CacheMiss for a fingerprint-mismatched payload", src)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Quarantined != 1 {
		t.Fatalf("store stats %+v, want the forged entry quarantined via Drop", st)
	}
}

// TestStoreTreePlansPersist: every TreeBased algorithm's plan writes
// through as its packed tree, and a fresh cache over the same directory
// serves it from disk with every round, every timetable and Verify
// unchanged. Beep and Algebraic plans have no tree and write no entry.
func TestStoreTreePlansPersist(t *testing.T) {
	nw := storeRing(16)
	for _, info := range Algorithms() {
		t.Run(info.Name, func(t *testing.T) {
			dir := t.TempDir()
			store := OpenPlanStore(dir)
			built, err := NewPlanCache(WithCacheStore(store)).Plan(nw, WithAlgorithm(info.ID))
			if err != nil {
				t.Fatal(err)
			}
			if !info.TreeBased {
				if store.Entries() != 0 {
					t.Fatalf("%d entries on disk after a %v plan, want none", store.Entries(), info.ID)
				}
				return
			}
			loaded, src, err := NewPlanCache(WithCacheStore(OpenPlanStore(dir))).PlanSourced(nw, WithAlgorithm(info.ID))
			if err != nil || src != CacheDisk {
				t.Fatalf("replan = %v, %v; want a disk hit", src, err)
			}
			if loaded.Algorithm() != info.ID || loaded.Rounds() != built.Rounds() {
				t.Fatalf("loaded %v plan of %d rounds, built %v of %d", loaded.Algorithm(), loaded.Rounds(), built.Algorithm(), built.Rounds())
			}
			for r := 0; r < built.Rounds(); r++ {
				if !reflect.DeepEqual(loaded.Round(r), built.Round(r)) {
					t.Fatalf("round %d differs after reload", r)
				}
			}
			for v := 0; v < nw.Processors(); v++ {
				if loaded.TimetableOf(v) != built.TimetableOf(v) {
					t.Fatalf("timetable of %d differs after reload", v)
				}
			}
			if err := loaded.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreDegradedKeepsServing opens a store over an unwritable directory
// and requires the cache to behave exactly as if no store were attached.
func TestStoreDegradedKeepsServing(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root; chmod 0555 does not block writes")
	}
	parent := t.TempDir()
	dir := filepath.Join(parent, "store")
	if err := os.Mkdir(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	store := OpenPlanStore(dir)
	if !store.Degraded() {
		t.Fatal("store over an unwritable directory must open degraded")
	}
	pc := NewPlanCache(WithCacheStore(store))
	nw := storeRing(24)
	p, src, err := pc.PlanSourced(nw)
	if err != nil || src != CacheMiss {
		t.Fatalf("degraded-store plan = %v, %v", src, err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, src, err := pc.PlanSourced(nw); err != nil || src != CacheHit {
		t.Fatalf("second request = %v, %v; memory tier must be unaffected", src, err)
	}
}

// TestPlanBytesRoundtrip exercises the payload codec directly across
// topology shapes, including the canonical-encoding property.
func TestPlanBytesRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 5, 33, 100} {
		nw := NewNetwork(n)
		for i := 0; i < n-1; i++ {
			nw.AddLink(i, i+1)
		}
		for i := 0; i < n/2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				nw.AddLink(u, v)
			}
		}
		p, err := nw.PlanGossip()
		if err != nil {
			t.Fatal(err)
		}
		enc := encodePlanBytes(p)
		q, err := decodePlanBytes(enc, nw.Fingerprint(), ConcurrentUpDown)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !bytes.Equal(encodePlanBytes(q), enc) {
			t.Fatalf("n=%d: re-encoding the decoded plan changed the bytes", n)
		}
		if q.Rounds() != p.Rounds() || q.Radius() != p.Radius() {
			t.Fatalf("n=%d: shape drift across roundtrip", n)
		}
		for r := 0; r < p.Rounds(); r++ {
			if !reflect.DeepEqual(p.Round(r), q.Round(r)) {
				t.Fatalf("n=%d: round %d differs", n, r)
			}
		}
	}
}

// TestPlanBytesRejects maps malformed payloads to errPlanBytes: every case
// is something a checksum-passing but buggy or hostile writer could emit.
func TestPlanBytesRejects(t *testing.T) {
	nw := storeRing(16)
	p, err := nw.PlanGossip()
	if err != nil {
		t.Fatal(err)
	}
	good := encodePlanBytes(p)
	fp := nw.Fingerprint()

	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases := map[string][]byte{
		"empty":          {},
		"header only":    good[:8],
		"truncated plan": good[:len(good)-9],
		"self loop": mutate(func(b []byte) []byte {
			copy(b[12:16], b[8:12]) // first edge becomes (u,u)
			return b
		}),
		"vertex out of range": mutate(func(b []byte) []byte {
			b[12], b[13], b[14], b[15] = 0xFF, 0xFF, 0xFF, 0x7F
			return b
		}),
		"duplicate edge": mutate(func(b []byte) []byte {
			copy(b[16:24], b[8:16])
			return b
		}),
	}
	for name, data := range cases {
		if _, err := decodePlanBytes(data, fp, ConcurrentUpDown); !errors.Is(err, errPlanBytes) {
			t.Errorf("%s: err = %v, want errPlanBytes", name, err)
		}
	}
	if _, err := decodePlanBytes(good, fp+1, ConcurrentUpDown); !errors.Is(err, errPlanBytes) {
		t.Errorf("wrong fingerprint: err = %v, want errPlanBytes", err)
	}
	if _, err := decodePlanBytes(good, fp, Beep); !errors.Is(err, errPlanBytes) {
		t.Errorf("wrong algorithm: err = %v, want errPlanBytes", err)
	}
	// Tree edge not in topology: rebuild the payload with one graph edge
	// removed so the plan's spanning tree references a missing link.
	treeU, treeV := -1, -1
	for v := 0; v < 16; v++ {
		if par := p.imp.ParentOriginal(v); par >= 0 {
			treeU, treeV = v, par
			break
		}
	}
	slim := NewNetwork(16)
	for _, e := range p.network.Edges() {
		if (e.U == treeU && e.V == treeV) || (e.U == treeV && e.V == treeU) {
			continue
		}
		slim.AddLink(e.U, e.V)
	}
	slimPlan := &Plan{network: slim.snapshotGraph(), algo: ConcurrentUpDown, radius: p.radius, imp: p.imp}
	if _, err := decodePlanBytes(encodePlanBytes(slimPlan), slim.Fingerprint(), ConcurrentUpDown); !errors.Is(err, errPlanBytes) {
		t.Errorf("missing tree edge: err = %v, want errPlanBytes", err)
	}
}

// FuzzStorePlanDecode asserts the full store decode path — graph section
// plus implicit plan — never panics, and that accepted payloads are
// genuinely well-formed (they re-encode canonically and verify).
func FuzzStorePlanDecode(f *testing.F) {
	nw := storeRing(12)
	if p, err := nw.PlanGossip(); err == nil {
		f.Add(encodePlanBytes(p), nw.Fingerprint())
	}
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, fp uint64) {
		p, err := decodePlanBytes(data, fp, ConcurrentUpDown)
		if err != nil {
			return
		}
		if !bytes.Equal(encodePlanBytes(p), data) {
			t.Fatal("accepted payload does not round-trip")
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("accepted payload fails plan verification: %v", err)
		}
	})
}

// TestStoreMetricsExposed checks the planstore_* series land in the same
// registry the rest of the serving stack reports through.
func TestStoreMetricsExposed(t *testing.T) {
	m := NewMetrics()
	store := OpenPlanStore(t.TempDir(), WithStoreMetrics(m), WithStoreLogger(t.Logf))
	pc := NewPlanCache(WithCacheStore(store), WithCacheMetrics(m))
	if _, err := pc.Plan(storeRing(16)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	out := buf.String()
	for _, series := range []string{"planstore_writes_total 1", "planstore_degraded 0", "plancache_disk_hits_total 0"} {
		if !bytes.Contains(buf.Bytes(), []byte(series)) {
			t.Errorf("metrics missing %q:\n%s", series, out)
		}
	}
}
