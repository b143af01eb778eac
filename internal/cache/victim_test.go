package cache

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// refCache is GroupCache as it stood before the heap: last-use stamps, use
// counts and in-flight stamps in three arrays, and a linear scan over the
// whole universe per miss. It is the oracle the heap is held to — same
// (hits, misses) per call, same residency, same Stats — and carries the
// AccessDense capacity fix so the two can be compared across dense accesses,
// and LFU's admission by count when misses outnumber the room.
type refCache struct {
	policy   Policy
	capacity int
	nunits   int
	resident []bool
	count    int

	clock    int64
	lastUse  []int64
	freq     []int64
	inflight []int64

	future  [][]int32
	cursor  []int
	syncPos int

	stats Stats
}

func newRefCache(policy Policy, capacity, nunits int) *refCache {
	if capacity < 0 {
		capacity = 0
	}
	if capacity > nunits {
		capacity = nunits
	}
	if policy == PolicyNone {
		capacity = 0
	}
	return &refCache{
		policy: policy, capacity: capacity, nunits: nunits,
		resident: make([]bool, nunits), lastUse: make([]int64, nunits),
		freq: make([]int64, nunits), inflight: make([]int64, nunits),
	}
}

func (g *refCache) setTrace(stream [][]int) {
	g.future = make([][]int32, g.nunits)
	for pos, units := range stream {
		for _, u := range units {
			g.future[u] = append(g.future[u], int32(pos))
		}
	}
	g.cursor = make([]int, g.nunits)
	g.syncPos = 0
}

func (g *refCache) nextUse(u int) int32 {
	const never = 1 << 30
	f := g.future[u]
	c := g.cursor[u]
	for c < len(f) && int(f[c]) <= g.syncPos {
		c++
	}
	g.cursor[u] = c
	if c == len(f) {
		return never
	}
	return f[c]
}

func (g *refCache) accessSparse(units []int) (hits, misses int) {
	if g.capacity == 0 {
		g.stats.Misses += int64(len(units))
		return 0, len(units)
	}
	g.clock++
	for _, u := range units {
		g.inflight[u] = g.clock
		g.freq[u]++
		g.lastUse[u] = g.clock
	}
	// LFU admits its misses, each once, by count, highest first, then by
	// list position, as long as there is a free slot or a resident unit
	// outside the access; the rest bypass.
	var bypass []bool
	if g.policy == PolicyLFU {
		bypass = make([]bool, g.nunits)
		var missed []int
		for _, u := range units {
			if !g.resident[u] && !slices.Contains(missed, u) {
				missed = append(missed, u)
			}
		}
		room := g.capacity - g.count
		for v := 0; v < g.nunits; v++ {
			if g.resident[v] && g.inflight[v] != g.clock {
				room++
			}
		}
		slices.SortStableFunc(missed, func(a, b int) int { return cmp.Compare(g.freq[b], g.freq[a]) })
		for _, u := range missed[min(room, len(missed)):] {
			bypass[u] = true
		}
	}
	for _, u := range units {
		if g.resident[u] {
			hits++
			continue
		}
		misses++
		if bypass == nil || !bypass[u] {
			g.insert(u)
		}
	}
	g.stats.Hits += int64(hits)
	g.stats.Misses += int64(misses)
	if g.policy == PolicyBelady {
		g.syncPos++
	}
	return hits, misses
}

func (g *refCache) insert(u int) {
	if g.count < g.capacity {
		g.resident[u] = true
		g.count++
		return
	}
	victim := g.refPickVictim()
	if victim < 0 {
		return
	}
	if g.policy == PolicyBelady && g.nextUse(u) >= g.nextUse(victim) {
		return
	}
	g.resident[victim] = false
	g.resident[u] = true
	g.stats.Evictions++
}

// refPickVictim is the scan the heap replaced: the resident unit outside the
// current access with the minimum key, lowest unit on ties, or -1.
func (g *refCache) refPickVictim() int {
	inFlight := func(v int) bool { return g.inflight[v] == g.clock }
	best := -1
	switch g.policy {
	case PolicyLRU:
		var bestUse int64 = 1<<62 - 1
		for v := 0; v < g.nunits; v++ {
			if g.resident[v] && !inFlight(v) && g.lastUse[v] < bestUse {
				best, bestUse = v, g.lastUse[v]
			}
		}
	case PolicyLFU:
		var bestFreq int64 = 1<<62 - 1
		for v := 0; v < g.nunits; v++ {
			if g.resident[v] && !inFlight(v) && g.freq[v] < bestFreq {
				best, bestFreq = v, g.freq[v]
			}
		}
	case PolicyBelady:
		var bestNext int32 = -1
		for v := 0; v < g.nunits; v++ {
			if g.resident[v] && !inFlight(v) {
				if nu := g.nextUse(v); nu > bestNext {
					best, bestNext = v, nu
				}
			}
		}
	}
	return best
}

func (g *refCache) accessDense() (hits, misses int) {
	for u := 0; g.count < g.capacity; u++ {
		if !g.resident[u] {
			g.resident[u] = true
			g.count++
		}
	}
	hits = g.count
	misses = g.nunits - g.count
	g.stats.Hits += int64(hits)
	g.stats.Misses += int64(misses)
	if g.policy == PolicyBelady {
		g.syncPos++
	}
	return hits, misses
}

var victimPolicies = []Policy{PolicyLRU, PolicyLFU, PolicyBelady}

// checkEvictable holds g, between accesses, to the structure's invariant:
// the evictable set is exactly the resident units (nothing is in flight
// between accesses), each once, each word carrying its unit's current key.
func checkEvictable(g *GroupCache) error {
	if len(g.evictable) != g.count || g.count > g.capacity {
		return fmt.Errorf("evictable set holds %d units, occupancy %d, capacity %d", len(g.evictable), g.count, g.capacity)
	}
	units := make([]int, len(g.evictable))
	for i, w := range g.evictable {
		u := int(w & unitMask)
		if u >= g.nunits || !g.resident[u] {
			return fmt.Errorf("evictable[%d] = unit %d, universe %d, not resident", i, u, g.nunits)
		}
		if w != g.word(u) {
			return fmt.Errorf("evictable[%d] = %#x, unit %d's word under key %d is %#x", i, w, u, g.key[u], g.word(u))
		}
		units[i] = u
	}
	slices.Sort(units)
	for i := 1; i < len(units); i++ {
		if units[i] == units[i-1] {
			return fmt.Errorf("unit %d is evictable twice", units[i])
		}
	}
	return nil
}

// sameAccess applies one access — units, or a dense access when dense is
// set — to both caches and compares everything observable.
func sameAccess(g *GroupCache, ref *refCache, dense bool, units []int) error {
	var h, m, rh, rm int
	if dense {
		h, m = g.AccessDense()
		rh, rm = ref.accessDense()
	} else {
		h, m = g.AccessSparse(units)
		rh, rm = ref.accessSparse(units)
	}
	if h != rh || m != rm {
		return fmt.Errorf("hits/misses %d/%d, scan says %d/%d", h, m, rh, rm)
	}
	if !slices.Equal(g.resident, ref.resident) {
		u := 0
		for g.Resident(u) == ref.resident[u] {
			u++
		}
		return fmt.Errorf("unit %d resident %v, scan says %v", u, g.Resident(u), ref.resident[u])
	}
	if g.Stats() != ref.stats || g.Occupancy() != ref.count {
		return fmt.Errorf("stats %+v occupancy %d, scan says %+v / %d", g.Stats(), g.Occupancy(), ref.stats, ref.count)
	}
	return checkEvictable(g)
}

// The heap must evict exactly the unit the scan would have, on every miss
// of every policy: random universes and capacities (including 0 and the
// whole universe), skewed unit lists of every length from empty to longer
// than the capacity (the bypass regime) with the occasional repeated unit,
// dense accesses interleaved. Belady replays a stream that departs from its
// trace.
func TestVictimSequenceMatchesScan(t *testing.T) {
	const accesses = 1064
	for _, policy := range victimPolicies {
		for trial := 0; trial < 12; trial++ {
			state := uint64(policy)<<32 | uint64(trial)<<8 | 1
			next := func(n int) int {
				state = state*6364136223846793005 + 1442695040888963407
				return int((state >> 33) % uint64(n))
			}
			nunits := 1 + next(300)
			capacity := next(nunits + 1)
			switch trial {
			case 0:
				capacity = 0
			case 1:
				capacity = nunits
			}
			// Squaring the draw skews accesses toward low units, so some units
			// stay hot while the tail churns; a unit already listed yields to
			// the next one not yet listed.
			listed := make([]int, nunits)
			lists := 0
			list := func() []int {
				n := next(nunits + 1)
				if next(4) == 0 {
					n = min(next(capacity+2), nunits)
				}
				lists++
				units := make([]int, 0, n+1)
				for len(units) < n {
					r := next(nunits)
					u := r * r / nunits
					if next(3) == 0 {
						u = r
					}
					for listed[u] == lists {
						u = (u + 1) % nunits
					}
					listed[u] = lists
					units = append(units, u)
				}
				if n > 0 && next(8) == 0 {
					units = append(units, units[next(n)])
				}
				return units
			}
			g := NewGroupCache(policy, capacity, nunits)
			ref := newRefCache(policy, capacity, nunits)
			if policy == PolicyBelady {
				trace := make([][]int, accesses)
				for i := range trace {
					if next(6) != 0 {
						trace[i] = list()
					}
				}
				g.SetTrace(trace)
				ref.setTrace(trace)
			}
			for i := 0; i < accesses; i++ {
				dense := next(25) == 0
				var units []int
				if !dense {
					units = list()
				}
				if err := sameAccess(g, ref, dense, units); err != nil {
					t.Fatalf("%v trial %d (capacity %d of %d), access %d (dense %v, %d units): %v",
						policy, trial, capacity, nunits, i, dense, len(units), err)
				}
			}
		}
	}
}

// FuzzGroupCacheVictims decodes bytes into a policy, a universe of up to
// 4096 units (two bytes, little-endian, mod 4096: the scan costs a wider
// universe more executions than it adds paths), a capacity and an access script
// (255 is a dense access; any other byte is a list length, followed by that
// many unit bytes, each scaled by a stride of nunits>>8 so a wide universe
// lists high unit ids) and holds the eviction words to the scan. It then
// holds Reset to the constructor, under LRU, LFU, and None in place of
// Belady: a cache that ran the script and was Reset equals a new one field
// for field, and runs the script backwards with the same hits, misses,
// victims and statistics.
func FuzzGroupCacheVictims(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 9, 0, 2, 1, 4, 255, 3, 1, 2, 3})
	f.Add([]byte{1, 11, 0, 3, 5, 0, 1, 2, 3, 4, 2, 5, 6, 2, 0, 0, 4, 7, 8, 9, 10, 255, 1, 3})
	f.Add([]byte{2, 4, 0, 4, 6, 0, 1, 2, 3, 0, 1, 255, 0, 2, 3, 3})
	f.Add([]byte{4, 30, 0, 7, 3, 1, 2, 3, 3, 9, 9, 1, 2, 20, 21, 255, 4, 5, 6, 7, 8})
	// A long script on a small cache: hundreds of evictions, counts that grow.
	long := []byte{1, 7, 0, 3}
	for i := 0; i < 276; i++ {
		long = append(long, 2, byte(i*i), byte(i/3))
	}
	f.Add(long)
	// The widest universe, a capacity above 64, lists of unit ids 16 apart.
	wide := []byte{0, 0xff, 0x0f, 70}
	for i := 0; i < 40; i++ {
		wide = append(wide, 3, byte(i*7), byte(i*i), byte(i*5/2))
	}
	f.Add(wide)
	// LFU with more misses than room (16 units, capacity 1 or 2). Distinct
	// counts: 2 was counted twice while bypassing, so it is admitted over 5,
	// listed first. Equal counts: five cold misses, the first two admitted.
	f.Add([]byte{1, 16, 0, 1, 3, 1, 2, 3, 3, 1, 2, 3, 2, 5, 2})
	f.Add([]byte{1, 16, 0, 2, 5, 9, 3, 12, 5, 7})
	// Room 0: every resident unit is in the access, so every miss bypasses.
	f.Add([]byte{1, 16, 0, 2, 2, 1, 2, 4, 1, 2, 3, 4})
	// Units listed twice: 3 counts two uses and is admitted with 4 over 5;
	// then 6 and 7 are admitted at a tie and 8 bypasses twice.
	f.Add([]byte{1, 16, 0, 2, 2, 1, 2, 4, 3, 4, 3, 5, 6, 6, 7, 6, 7, 8, 8})
	// A unit listed three times counts past the clock: 2 is admitted over 1.
	// Listed three times on a cold cache, 4 is one miss, with room to spare;
	// resident, 5 is no miss at all, though listed more times than the room.
	f.Add([]byte{1, 16, 0, 1, 4, 1, 2, 2, 2})
	f.Add([]byte{1, 16, 0, 2, 3, 4, 4, 4})
	f.Add([]byte{1, 16, 0, 2, 1, 5, 3, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		policy := victimPolicies[int(data[0])%len(victimPolicies)]
		nunits := 1 + int(binary.LittleEndian.Uint16(data[1:]))%4096
		capacity := int(data[3]) % (nunits + 1)
		stride := max(1, nunits>>8)
		var dense []bool
		var script [][]int
		for data = data[4:]; len(data) > 0; {
			n := int(data[0])
			data = data[1:]
			if n == 255 {
				dense, script = append(dense, true), append(script, nil)
				continue
			}
			if n > len(data) {
				n = len(data)
			}
			units := make([]int, n)
			for i, b := range data[:n] {
				units[i] = int(b) * stride % nunits
			}
			data = data[n:]
			dense, script = append(dense, false), append(script, units)
		}
		g := NewGroupCache(policy, capacity, nunits)
		ref := newRefCache(policy, capacity, nunits)
		if policy == PolicyBelady && len(script) > 0 {
			// The script shifted by one access: a trace the replay departs from.
			trace := append(script[1:len(script):len(script)], script[0])
			g.SetTrace(trace)
			ref.setTrace(trace)
		} else if policy == PolicyBelady {
			return
		}
		for i, units := range script {
			if err := sameAccess(g, ref, dense[i], units); err != nil {
				t.Fatalf("%v capacity %d of %d, access %d (dense %v, units %v): %v",
					policy, capacity, nunits, i, dense[i], units, err)
			}
		}

		if policy == PolicyBelady {
			policy = PolicyNone
		}
		used := NewGroupCache(policy, capacity, nunits)
		for i, units := range script {
			access(used, dense[i], units)
		}
		used.Reset()
		fresh := NewGroupCache(policy, capacity, nunits)
		if !reflect.DeepEqual(used, fresh) {
			t.Fatalf("%v capacity %d of %d: Reset left %+v, the constructor builds %+v", policy, capacity, nunits, used, fresh)
		}
		for i := len(script) - 1; i >= 0; i-- {
			uh, um := access(used, dense[i], script[i])
			fh, fm := access(fresh, dense[i], script[i])
			if uh != fh || um != fm {
				t.Fatalf("%v after Reset, backward access %d: hits/misses %d/%d, a new cache %d/%d", policy, i, uh, um, fh, fm)
			}
			if !slices.Equal(used.resident, fresh.resident) || used.Stats() != fresh.Stats() {
				t.Fatalf("%v after Reset, backward access %d: residency %v stats %+v, a new cache %v %+v",
					policy, i, used.resident, used.Stats(), fresh.resident, fresh.Stats())
			}
			if err := checkEvictable(used); err != nil {
				t.Fatalf("%v after Reset, backward access %d: %v", policy, i, err)
			}
		}
	})
}

// access runs one script entry against g.
func access(g *GroupCache, dense bool, units []int) (hits, misses int) {
	if dense {
		return g.AccessDense()
	}
	return g.AccessSparse(units)
}

// Belady's next-use order cannot be kept in a heap keyed when a unit was
// last touched. Trace: 1, 2, 1, 3, 3, 2, 1 with room for two units. The
// replay touches 2 where the trace promised 1 (position 2), so at the miss
// on 3 unit 1's next use is position 6, not the position 2 computed when it
// was inserted — that stale key would call unit 1 the *nearest* and evict
// unit 2 (next use 5). The scan re-derives next use from the stream
// position and evicts unit 1.
func TestBeladyKeyAtLastTouchGoesStale(t *testing.T) {
	g := NewGroupCache(PolicyBelady, 2, 5)
	g.SetTrace([][]int{{1}, {2}, {1}, {3}, {3}, {2}, {1}})
	for _, u := range []int{1, 2, 2} {
		g.AccessSparse([]int{u})
	}
	g.AccessSparse([]int{3})
	if g.Resident(1) || !g.Resident(2) || !g.Resident(3) {
		t.Fatalf("after the off-trace replay: 1=%v 2=%v 3=%v, want 1 evicted", g.Resident(1), g.Resident(2), g.Resident(3))
	}
}

// steadyLists returns n lists of k distinct units over nunits, drawn without
// replacement from a fixed Zipf-like popularity (weight 1/(1+rank)^skew
// under a shuffled ranking): the shape of a decode stream, where a hot core
// recurs token after token and the tail churns.
func steadyLists(n, k, nunits int, skew float64) [][]int {
	state := uint64(nunits)<<16 | uint64(k)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 11
	}
	shuffle := func(a []int) {
		for i := len(a) - 1; i > 0; i-- {
			j := int(next() % uint64(i+1))
			a[i], a[j] = a[j], a[i]
		}
	}
	rank := make([]int, nunits)
	for u := range rank {
		rank[u] = u
	}
	shuffle(rank)
	lists := make([][]int, n)
	arrival := make([]float64, nunits)
	for i := range lists {
		// The k earliest arrivals of independent exponential clocks with the
		// units' weights as rates are a weighted sample without replacement.
		order := make([]int, nunits)
		for u := range order {
			order[u] = u
			uniform := (float64(next()) + 1) / (1 << 53)
			arrival[u] = -math.Log(uniform) * math.Pow(float64(1+rank[u]), skew)
		}
		sort.Slice(order, func(a, b int) bool { return arrival[order[a]] < arrival[order[b]] })
		lists[i] = order[:k:k]
		shuffle(lists[i])
	}
	return lists
}

// Steady-state accesses allocate nothing: 40-unit lists against 60 units of
// room, and against 20, where misses outnumber the room and one selection
// admits them: LRU the first listed, LFU by their (skewed, so distinct)
// counts.
func TestAccessSparseDoesNotAllocate(t *testing.T) {
	lists := steadyLists(64, 40, 256, 1)
	for _, c := range []struct {
		policy   Policy
		capacity int
	}{{PolicyLRU, 60}, {PolicyLFU, 60}, {PolicyLRU, 20}, {PolicyLFU, 20}} {
		g := NewGroupCache(c.policy, c.capacity, 256)
		i := 0
		access := func() {
			g.AccessSparse(lists[i%len(lists)])
			i++
		}
		for i < 512 {
			access()
		}
		st := g.Stats()
		if st.Evictions == 0 {
			t.Fatalf("%v capacity %d: warm-up never evicted", c.policy, c.capacity)
		}
		if bypassed := st.Misses > st.Evictions+int64(c.capacity); bypassed != (c.capacity == 20) {
			t.Fatalf("%v capacity %d: %d misses, %d evictions; bypassed %v", c.policy, c.capacity, st.Misses, st.Evictions, bypassed)
		}
		if allocs := testing.AllocsPerRun(512, access); allocs != 0 {
			t.Errorf("%v capacity %d: %v allocations per AccessSparse at steady state", c.policy, c.capacity, allocs)
		}
	}
}

// A dense access on a group that sparse accesses have already filled past
// unit capacity-1 used to pin units 0..capacity-1 regardless and leave more
// units resident than the cache holds.
func TestAccessDenseStopsAtCapacity(t *testing.T) {
	g := NewGroupCache(PolicyLRU, 2, 5)
	g.AccessSparse([]int{4})
	h, m := g.AccessDense()
	if g.Occupancy() != 2 || h != 2 || m != 3 {
		t.Fatalf("occupancy %d (capacity %d), hits %d misses %d", g.Occupancy(), g.Capacity(), h, m)
	}
	if !g.Resident(4) || !g.Resident(0) || g.Resident(1) {
		t.Fatalf("residency 0=%v 1=%v 4=%v, want 4 kept and 0 pinned beside it", g.Resident(0), g.Resident(1), g.Resident(4))
	}
	// The pinned unit is registered with the eviction order: 4 was used at
	// clock 1 and 0 never, so the next miss evicts 0.
	g.AccessSparse([]int{3})
	if g.Resident(0) || !g.Resident(3) || !g.Resident(4) || g.Occupancy() != 2 {
		t.Fatalf("after a miss: 0=%v 3=%v 4=%v occupancy %d", g.Resident(0), g.Resident(3), g.Resident(4), g.Occupancy())
	}
}

func TestHostileInputsPanicByName(t *testing.T) {
	for _, c := range []struct {
		name, want string
		fn         func()
	}{
		{"negative universe", "cache: unit universe -1 outside [0, 16777216]", func() { NewGroupCache(PolicyLRU, 2, -1) }},
		{"universe past the eviction word", "cache: unit universe 16777217 outside [0, 16777216]", func() { NewGroupCache(PolicyLRU, 2, 1<<unitBits+1) }},
		{"clock past the eviction word", "cache: clock reached 1<<40, past the key an eviction word holds", func() {
			g := NewGroupCache(PolicyLRU, 2, 5)
			g.clock = 1<<keyBits - 1
			g.AccessSparse([]int{1})
		}},
		{"use count past the eviction word", "cache: unit 3's use count reached 1<<40, past the key an eviction word holds", func() {
			g := NewGroupCache(PolicyLFU, 2, 5)
			g.key[3] = 1<<keyBits - 1
			g.AccessSparse([]int{3})
		}},
		{"unit past the universe", "cache: unit 5 outside the universe of 5", func() { NewGroupCache(PolicyLFU, 2, 5).AccessSparse([]int{1, 5}) }},
		{"negative unit", "cache: unit -1 outside the universe of 5", func() { NewGroupCache(PolicyLFU, 2, 5).AccessSparse([]int{-1}) }},
	} {
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("%s: panic %v, want %q", c.name, got, c.want)
				}
			}()
			c.fn()
		}()
	}
}

// The stamps are the clock's low 32 bits. Across their wrap every stamp is
// cleared and the clock skips the stamp 0, so no unit of an old access looks
// like one of the current access and the victims stay the scan's. Units 0..9
// are accessed one per token at clocks 1..10 and left resident with stamps
// 0..9, which the stamp passes again just after the wrap.
func TestStampWrapKeepsVictims(t *testing.T) {
	for _, policy := range []Policy{PolicyLRU, PolicyLFU} {
		g, ref := NewGroupCache(policy, 20, 64), newRefCache(policy, 20, 64)
		for u := 0; u < 40; u++ {
			if u == 10 {
				g.clock, ref.clock = 1<<32-3, 1<<32-3
			}
			if err := sameAccess(g, ref, false, []int{u}); err != nil {
				t.Fatalf("%v, unit %d at clock %#x: %v", policy, u, g.clock, err)
			}
		}
		if g.clock != 1<<32+28 || g.Stats().Evictions != 20 {
			t.Fatalf("%v: clock %#x, %d evictions; the script should cross the wrap and evict 20", policy, g.clock, g.Stats().Evictions)
		}
	}
}

// NewGroupCache allocates 13 bytes per unit (resident 1, key 8, stamp 4)
// and 8 per unit of capacity (the eviction words), plus the struct. For the
// bandwidth-bound analog's down group, 768 units with a 158-unit share, that
// is 11 488 bytes after size-class rounding.
func TestNewGroupCacheAllocBytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit size classes")
	}
	// The least of a few rounds: the test binary's own goroutines allocate
	// now and then while one runs.
	const n = 64
	keep := make([]*GroupCache, n)
	got := uint64(math.MaxUint64)
	for round := 0; round < 4; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = NewGroupCache(PolicyLFU, 158, 768)
		}
		runtime.ReadMemStats(&after)
		got = min(got, (after.TotalAlloc-before.TotalAlloc)/n)
	}
	if got != 11488 {
		t.Fatalf("NewGroupCache(LFU, 158, 768) allocates %d bytes, want 11488", got)
	}
}

// A unit listed twice is touched twice — the first occurrence misses and
// inserts, the repeat hits — and enters the eviction order once.
func TestRepeatedUnitHitsOnRepeat(t *testing.T) {
	for _, policy := range []Policy{PolicyLRU, PolicyLFU} {
		g := NewGroupCache(policy, 2, 6)
		if h, m := g.AccessSparse([]int{3, 3}); h != 1 || m != 1 {
			t.Fatalf("%v: cold repeat hits=%d misses=%d, want 1/1", policy, h, m)
		}
		if h, m := g.AccessSparse([]int{3, 1, 3}); h != 2 || m != 1 {
			t.Fatalf("%v: warm repeat hits=%d misses=%d, want 2/1", policy, h, m)
		}
		if err := checkEvictable(g); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		// Full cache, every resident unit in the access: 5 bypasses, twice.
		if h, m := g.AccessSparse([]int{1, 3, 5, 5}); h != 2 || m != 2 || g.Resident(5) {
			t.Fatalf("%v: bypass repeat hits=%d misses=%d resident(5)=%v", policy, h, m, g.Resident(5))
		}
	}
}

// benchAccessSparse drives a group of the bandwidth-bound analog's shape
// (bench/: dim 256, dff 768, DIP-CA-50 on the A18-like plan) with k-unit
// skewed lists, reporting the miss count beside the time so the structure's
// cost per miss can be read without a profile.
func benchAccessSparse(b *testing.B, policy Policy, nunits, k, capacity int) {
	lists := steadyLists(256, k, nunits, 1.3)
	g := NewGroupCache(policy, capacity, nunits)
	for _, units := range lists {
		g.AccessSparse(units)
	}
	before := g.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AccessSparse(lists[i%len(lists)])
	}
	st := g.Stats()
	b.ReportMetric(float64(st.Misses-before.Misses)/float64(b.N), "misses/access")
	b.ReportMetric(float64(st.Evictions-before.Evictions)/float64(b.N), "evictions/access")
}

// Up/gate columns under LFU: 166 of 256 units per token against a 52-unit
// share, so most misses bypass.
func BenchmarkGroupCacheAccessSparse256k166(b *testing.B) {
	benchAccessSparse(b, PolicyLFU, 256, 166, 52)
}

// Down columns under LFU: 154 of 768 units per token against a 158-unit share.
func BenchmarkGroupCacheAccessSparse768k154(b *testing.B) {
	benchAccessSparse(b, PolicyLFU, 768, 154, 158)
}

// Down columns at half density: 384 of 768 units per token against the same
// share, so every access has more misses than room and ranks them by count
// (LFU) or by list position (LRU).
func BenchmarkGroupCacheAccessSparse768k384(b *testing.B) {
	benchAccessSparse(b, PolicyLFU, 768, 384, 158)
}

func BenchmarkGroupCacheAccessSparse768k384LRU(b *testing.B) {
	benchAccessSparse(b, PolicyLRU, 768, 384, 158)
}

// selectSmallest leaves the k smallest words in front of the rest, whatever
// their order going in: every k of every length up to 40, on ascending,
// descending and shuffled distinct words.
func TestSelectSmallest(t *testing.T) {
	state := uint64(1)
	for n := 1; n <= 40; n++ {
		for k := 1; k <= n; k++ {
			for layout := 0; layout < 3; layout++ {
				h := make([]uint64, n)
				for i := range h {
					h[i] = uint64(i)<<unitBits | uint64(n-i)
					if layout == 1 {
						h[i] = uint64(n-i)<<unitBits | uint64(i)
					}
				}
				if layout == 2 {
					for i := n - 1; i > 0; i-- {
						state = state*6364136223846793005 + 1442695040888963407
						j := int((state >> 33) % uint64(i+1))
						h[i], h[j] = h[j], h[i]
					}
				}
				want := slices.Sorted(slices.Values(h))
				selectSmallest(h, k)
				front := slices.Sorted(slices.Values(h[:k]))
				back := slices.Sorted(slices.Values(h[k:]))
				if !slices.Equal(append(front, back...), want) {
					t.Fatalf("n %d k %d layout %d: front %v back %v", n, k, layout, front, back)
				}
			}
		}
	}
}
