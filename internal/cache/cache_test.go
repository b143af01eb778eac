package cache

import (
	"reflect"
	"testing"

	"repro/internal/sparsity"
)

func TestPolicyStrings(t *testing.T) {
	for _, p := range []Policy{PolicyNone, PolicyLRU, PolicyLFU, PolicyBelady} {
		if p.String() == "invalid" {
			t.Fatalf("policy %d has no name", p)
		}
	}
	if got := Policy(100).String(); got != "invalid" {
		t.Fatalf("an unknown policy is named %q", got)
	}
}

// Policy numbers travel in configs and reports; the four keep their values.
func TestPolicyNumbersArePinned(t *testing.T) {
	if got := [...]Policy{PolicyNone, PolicyLRU, PolicyLFU, PolicyBelady}; got != [...]Policy{0, 1, 2, 3} {
		t.Fatalf("cache policies renumbered: %v", got)
	}
}

func TestNoCacheAllMisses(t *testing.T) {
	g := NewGroupCache(PolicyNone, 100, 10)
	h, m := g.AccessSparse([]int{1, 2, 3})
	if h != 0 || m != 3 {
		t.Fatalf("no-cache: hits=%d misses=%d", h, m)
	}
	if g.Capacity() != 0 {
		t.Fatal("PolicyNone should clamp capacity to 0")
	}
}

func TestCacheWarmupThenHits(t *testing.T) {
	g := NewGroupCache(PolicyLRU, 4, 10)
	h, m := g.AccessSparse([]int{1, 2, 3})
	if h != 0 || m != 3 {
		t.Fatalf("cold: hits=%d misses=%d", h, m)
	}
	h, m = g.AccessSparse([]int{1, 2, 3})
	if h != 3 || m != 0 {
		t.Fatalf("warm: hits=%d misses=%d", h, m)
	}
	if got := g.Stats().HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v", got)
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	g := NewGroupCache(PolicyLRU, 2, 10)
	g.AccessSparse([]int{1})
	g.AccessSparse([]int{2})
	g.AccessSparse([]int{1}) // 1 now more recent than 2
	g.AccessSparse([]int{3}) // must evict 2
	if !g.Resident(1) || g.Resident(2) || !g.Resident(3) {
		t.Fatalf("LRU residency wrong: 1=%v 2=%v 3=%v", g.Resident(1), g.Resident(2), g.Resident(3))
	}
}

func TestLFUEvictsRarest(t *testing.T) {
	g := NewGroupCache(PolicyLFU, 2, 10)
	g.AccessSparse([]int{1})
	g.AccessSparse([]int{1})
	g.AccessSparse([]int{1})
	g.AccessSparse([]int{2})
	g.AccessSparse([]int{3}) // 2 has freq 1, 1 has freq 3 → evict 2
	if !g.Resident(1) || g.Resident(2) || !g.Resident(3) {
		t.Fatal("LFU eviction wrong")
	}
	if g.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", g.Stats().Evictions)
	}
}

func TestInFlightUnitsProtected(t *testing.T) {
	g := NewGroupCache(PolicyLRU, 2, 10)
	// Access 3 units with capacity 2: the first two fill the cache; the
	// third finds all residents in-flight and bypasses.
	h, m := g.AccessSparse([]int{1, 2, 3})
	if h != 0 || m != 3 {
		t.Fatalf("hits=%d misses=%d", h, m)
	}
	if !g.Resident(1) || !g.Resident(2) || g.Resident(3) {
		t.Fatal("bypass behavior wrong")
	}
	if g.Stats().Evictions != 0 {
		t.Fatal("in-flight units must not be evicted")
	}
}

func TestBeladyOptimalOnKnownTrace(t *testing.T) {
	// Classic example: capacity 2, accesses 1,2,3,1,2. Belady keeps 1 and 2
	// (evicting nothing useful for 3) → misses: 1,2,3 cold; 1,2 hit.
	stream := [][]int{{1}, {2}, {3}, {1}, {2}}
	b := NewGroupCache(PolicyBelady, 2, 5)
	b.SetTrace(stream)
	var hits, misses int
	for _, units := range stream {
		h, m := b.AccessSparse(units)
		hits += h
		misses += m
	}
	if misses != 3 || hits != 2 {
		t.Fatalf("belady: hits=%d misses=%d, want 2/3", hits, misses)
	}
	// LRU on the same trace does worse: 1,2,3 cold; then 1 evicted? LRU:
	// after {1,2}, access 3 evicts 1; access 1 evicts 2; access 2 evicts 3
	// → 5 misses, 0 hits.
	l := NewGroupCache(PolicyLRU, 2, 5)
	var lhits int
	for _, units := range stream {
		h, _ := l.AccessSparse(units)
		lhits += h
	}
	if lhits >= hits {
		t.Fatalf("LRU (%d hits) should not beat Belady (%d hits) here", lhits, hits)
	}
}

func TestBeladyNeverWorseThanLRUOrLFU(t *testing.T) {
	// Randomized traces: Belady hit count must be >= LRU and LFU.
	streams := [][][]int{}
	seed := uint64(12345)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1
		return int((seed >> 33) % uint64(n))
	}
	for trial := 0; trial < 5; trial++ {
		var stream [][]int
		for i := 0; i < 200; i++ {
			units := []int{next(20)}
			if next(3) == 0 {
				units = append(units, next(20))
			}
			stream = append(stream, units)
		}
		streams = append(streams, stream)
	}
	for _, stream := range streams {
		run := func(p Policy) int64 {
			g := NewGroupCache(p, 5, 20)
			if p == PolicyBelady {
				g.SetTrace(stream)
			}
			for _, u := range stream {
				g.AccessSparse(u)
			}
			return g.Stats().Hits
		}
		b, l, f := run(PolicyBelady), run(PolicyLRU), run(PolicyLFU)
		if b < l || b < f {
			t.Fatalf("Belady hits %d below LRU %d or LFU %d", b, l, f)
		}
	}
}

func TestAccessDensePinsToCapacity(t *testing.T) {
	g := NewGroupCache(PolicyLFU, 3, 10)
	h, m := g.AccessDense()
	if h != 3 || m != 7 {
		t.Fatalf("dense first access: hits=%d misses=%d", h, m)
	}
	h, m = g.AccessDense()
	if h != 3 || m != 7 {
		t.Fatalf("dense steady state: hits=%d misses=%d", h, m)
	}
	if g.Stats().Evictions != 0 {
		t.Fatal("dense access should never churn")
	}
}

func TestCapacityClamp(t *testing.T) {
	g := NewGroupCache(PolicyLRU, 100, 10)
	if g.Capacity() != 10 {
		t.Fatalf("capacity = %d, want clamp to 10", g.Capacity())
	}
	g2 := NewGroupCache(PolicyLRU, -5, 10)
	if g2.Capacity() != 0 {
		t.Fatal("negative capacity should clamp to 0")
	}
}

func denseUniverse() ([][sparsity.NumGroups]int, [][sparsity.NumGroups]int) {
	caps := make([][sparsity.NumGroups]int, 2)
	nunits := make([][sparsity.NumGroups]int, 2)
	for l := 0; l < 2; l++ {
		nunits[l][sparsity.GroupUpGate] = 8
		nunits[l][sparsity.GroupDown] = 16
		caps[l][sparsity.GroupUpGate] = 4
		caps[l][sparsity.GroupDown] = 8
	}
	return caps, nunits
}

func TestModelCacheAccessAndView(t *testing.T) {
	caps, nunits := denseUniverse()
	mc := NewModelCache(PolicyLFU, caps, nunits)
	var ta sparsity.TokenAccess
	ta.Groups[sparsity.GroupUpGate] = sparsity.GroupAccess{Kind: sparsity.AccessSparse, Units: []int{1, 2}}
	ta.Groups[sparsity.GroupDown] = sparsity.GroupAccess{Kind: sparsity.AccessSparse, Units: []int{5}}
	res := mc.Access(0, &ta)
	if res.MissUnits[sparsity.GroupUpGate] != 2 || res.MissUnits[sparsity.GroupDown] != 1 {
		t.Fatalf("cold access result: %+v", res)
	}
	if !mc.Resident(0, sparsity.GroupUpGate)[1] || mc.Resident(1, sparsity.GroupUpGate)[1] || mc.Resident(0, sparsity.GroupUpRows) != nil {
		t.Fatal("CacheView residency wrong")
	}
	if mc.Occupancy() != 3 {
		t.Fatalf("occupancy %d after three cold inserts", mc.Occupancy())
	}
	res = mc.Access(0, &ta)
	if res.HitUnits[sparsity.GroupUpGate] != 2 {
		t.Fatalf("warm access result: %+v", res)
	}
	st := mc.TotalStats()
	if st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("total stats: %+v", st)
	}
}

// A ModelCache that served accesses and was Reset is the one its
// constructor builds, and Matches names exactly the constructor arguments
// it can stand in for: the serving engine pools caches on that test.
func TestModelCacheResetAndMatches(t *testing.T) {
	caps, nunits := denseUniverse()
	mc := NewModelCache(PolicyLFU, caps, nunits)
	var ta sparsity.TokenAccess
	ta.Groups[sparsity.GroupUpGate] = sparsity.GroupAccess{Kind: sparsity.AccessSparse, Units: []int{1, 2, 3, 4, 5}}
	ta.Groups[sparsity.GroupDown] = sparsity.GroupAccess{Kind: sparsity.AccessDense}
	for l := 0; l < 2; l++ {
		mc.Access(l, &ta)
		mc.Access(l, &ta)
	}
	mc.Reset()
	if fresh := NewModelCache(PolicyLFU, caps, nunits); !reflect.DeepEqual(mc, fresh) {
		t.Fatalf("Reset left %+v, the constructor builds %+v", mc, fresh)
	}
	other, wider := [][sparsity.NumGroups]int{caps[0], caps[1]}, [][sparsity.NumGroups]int{nunits[0], nunits[1]}
	other[0][sparsity.GroupDown]--
	wider[1][sparsity.GroupDown]++
	for _, c := range []struct {
		name         string
		policy       Policy
		caps, nunits [][sparsity.NumGroups]int
		match        bool
	}{
		{"same arguments", PolicyLFU, caps, nunits, true},
		{"another policy", PolicyLRU, caps, nunits, false},
		{"another capacity", PolicyLFU, other, nunits, false},
		{"another universe", PolicyLFU, caps, wider, false},
		{"another layer count", PolicyLFU, caps[:1], nunits[:1], false},
	} {
		if got := mc.Matches(c.policy, c.caps, c.nunits); got != c.match {
			t.Errorf("%s: Matches = %v, want %v", c.name, got, c.match)
		}
	}
	// A capacity past the universe is clamped to it, by both.
	full, over := [][sparsity.NumGroups]int{caps[0], caps[1]}, [][sparsity.NumGroups]int{caps[0], caps[1]}
	full[1][sparsity.GroupDown], over[1][sparsity.GroupDown] = nunits[1][sparsity.GroupDown], 100
	if !NewModelCache(PolicyLFU, full, nunits).Matches(PolicyLFU, over, nunits) {
		t.Error("a cache at a clamped capacity does not match the unclamped arguments")
	}
}

func TestModelCacheUnconfiguredGroupPanics(t *testing.T) {
	caps, nunits := denseUniverse()
	mc := NewModelCache(PolicyLRU, caps, nunits)
	var ta sparsity.TokenAccess
	ta.Groups[sparsity.GroupUpRows] = sparsity.GroupAccess{Kind: sparsity.AccessDense}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unconfigured group")
		}
	}()
	mc.Access(0, &ta)
}

func TestModelCacheBeladyIntegration(t *testing.T) {
	caps := make([][sparsity.NumGroups]int, 1)
	nunits := make([][sparsity.NumGroups]int, 1)
	nunits[0][sparsity.GroupDown] = 10
	caps[0][sparsity.GroupDown] = 2
	// Install the access stream as the future, replay the same accesses.
	accesses := [][]int{{1}, {2}, {3}, {1}, {2}}
	mc := NewModelCache(PolicyBelady, caps, nunits)
	mc.SetFuture(func(l int, g sparsity.GroupID) [][]int {
		if l != 0 || g != sparsity.GroupDown {
			t.Fatalf("future asked for unconfigured group %v at layer %d", g, l)
		}
		return accesses
	})
	for _, u := range accesses {
		var ta sparsity.TokenAccess
		ta.Groups[sparsity.GroupDown] = sparsity.GroupAccess{Kind: sparsity.AccessSparse, Units: u}
		mc.Access(0, &ta)
	}
	st := mc.TotalStats()
	if st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("belady integration: %+v", st)
	}
}

func TestSetTraceOnNonBeladyPanics(t *testing.T) {
	g := NewGroupCache(PolicyLRU, 2, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.SetTrace(nil)
}

func TestHitRateEmpty(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty hit rate should be 0")
	}
}
