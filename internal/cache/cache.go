// Package cache simulates the DRAM weight cache of Section 5: weights are
// fetched from Flash at neuron/column granularity (the "units" of
// sparsity.GroupID groups), retained in a bounded DRAM budget, and evicted
// by a configurable policy — LRU, LFU, the clairvoyant Belady oracle, or no
// caching at all. The cache exposes the sparsity.CacheView interface so
// DIP-CA can bias its masks toward resident units, and reports hit/miss
// unit counts so the hardware simulator can price each token.
package cache

import (
	"fmt"

	"repro/internal/sparsity"
)

// Policy selects the eviction strategy.
type Policy int

const (
	// PolicyNone disables caching: every access is a miss.
	PolicyNone Policy = iota
	// PolicyLRU evicts the least recently used unit.
	PolicyLRU
	// PolicyLFU evicts the least frequently used unit (session counts).
	PolicyLFU
	// PolicyBelady evicts the unit whose next use is farthest in the
	// future, using a pre-recorded access trace (Belady, 1966). It is the
	// optimal eviction policy for a fixed access sequence.
	PolicyBelady
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyLRU:
		return "lru"
	case PolicyLFU:
		return "lfu"
	case PolicyBelady:
		return "belady"
	default:
		return "invalid"
	}
}

// Stats accumulates cache events in units.
type Stats struct {
	Hits, Misses, Evictions int64
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// GroupCache caches the units of one weight group at one layer.
//
// Eviction order is one total order for every policy: the victim is the
// evictable unit with the smallest (key, unit) pair, where key[u] is the
// policy's single per-unit number — the last-use stamp (LRU) or the use
// count (LFU; counted for non-resident units too, so a returning unit keeps
// its history). The evictable units — resident and not part of the access
// being processed — sit in an indexed binary min-heap on that order. A unit
// of the current access leaves the heap when the access starts and re-enters
// under its new key when it ends, so "in the heap" is the
// eviction-protection test and a miss takes the heap top in O(log capacity).
type GroupCache struct {
	policy   Policy
	capacity int
	nunits   int
	count    int
	clock    int64

	resident []bool
	key      []int64
	heap     []int32 // evictable units, min-heap on (key, unit)
	pos      []int32 // pos[u] is u's index in heap, or -1

	// Belady state: for each unit, the (ascending) positions in the access
	// stream where it is used, and a cursor into that list.
	future  [][]int32
	cursor  []int
	syncPos int // current stream position

	stats Stats
}

// NewGroupCache returns a cache over nunits units holding at most capacity
// of them. capacity is clamped to [0, nunits]; a negative nunits panics.
func NewGroupCache(policy Policy, capacity, nunits int) *GroupCache {
	if nunits < 0 {
		panic("cache: negative unit universe")
	}
	capacity = clampCapacity(policy, capacity, nunits)
	g := &GroupCache{
		policy:   policy,
		capacity: capacity,
		nunits:   nunits,
		resident: make([]bool, nunits),
		key:      make([]int64, nunits),
		heap:     make([]int32, 0, capacity),
		pos:      make([]int32, nunits),
	}
	for u := range g.pos {
		g.pos[u] = -1
	}
	return g
}

// clampCapacity is the capacity NewGroupCache gives a group: capacity
// clamped to [0, nunits], and 0 when the policy caches nothing.
func clampCapacity(policy Policy, capacity, nunits int) int {
	if policy == PolicyNone || capacity < 0 {
		return 0
	}
	return min(capacity, nunits)
}

// Reset empties the cache in place back to what NewGroupCache built with
// the same arguments: nothing resident, every key, the clock and the
// statistics zero, and no Belady trace.
func (g *GroupCache) Reset() {
	clear(g.resident)
	clear(g.key)
	for u := range g.pos {
		g.pos[u] = -1
	}
	g.heap = g.heap[:0]
	g.count, g.clock = 0, 0
	g.future, g.cursor, g.syncPos = nil, nil, 0
	g.stats = Stats{}
}

// Capacity returns the unit capacity.
func (g *GroupCache) Capacity() int { return g.capacity }

// Stats returns the accumulated statistics.
func (g *GroupCache) Stats() Stats { return g.stats }

// Resident reports whether unit u is in DRAM.
func (g *GroupCache) Resident(u int) bool { return g.resident[u] }

// Occupancy returns the number of resident units.
func (g *GroupCache) Occupancy() int { return g.count }

// SetTrace installs the future access stream for the Belady policy. Each
// stream element is the sparse unit list of one token's access. It panics
// for other policies.
func (g *GroupCache) SetTrace(stream [][]int) {
	if g.policy != PolicyBelady {
		panic("cache: SetTrace on non-Belady cache")
	}
	g.future = make([][]int32, g.nunits)
	for pos, units := range stream {
		for _, u := range units {
			g.future[u] = append(g.future[u], int32(pos))
		}
	}
	g.cursor = make([]int, g.nunits)
	g.syncPos = 0
}

// nextUse returns the next stream position at which unit u is used strictly
// after the current position, or a sentinel beyond any position.
func (g *GroupCache) nextUse(u int) int32 {
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

// AccessSparse processes one token's access to the listed units, updating
// residency per the policy, and returns the hit and miss unit counts. A
// unit listed twice is touched twice: the first occurrence may miss and
// insert, the repeat then hits.
func (g *GroupCache) AccessSparse(units []int) (hits, misses int) {
	if g.capacity == 0 {
		g.stats.Misses += int64(len(units))
		return 0, len(units)
	}
	g.clock++
	// Every unit of the access is needed this token, so none may be evicted
	// by another's miss: take the resident ones out of the heap up front.
	for _, u := range units {
		if uint(u) >= uint(g.nunits) {
			panic(fmt.Sprintf("cache: unit %d outside the universe of %d", u, g.nunits))
		}
		if p := g.pos[u]; p >= 0 {
			g.heapRemove(int(p))
		}
	}
	for _, u := range units {
		switch g.policy {
		case PolicyLRU:
			g.key[u] = g.clock
		case PolicyLFU:
			g.key[u]++
		}
		if g.resident[u] {
			hits++
			continue
		}
		misses++
		g.insert(u)
	}
	for _, u := range units {
		if g.resident[u] && g.pos[u] < 0 {
			g.heapPush(u)
		}
	}
	g.stats.Hits += int64(hits)
	g.stats.Misses += int64(misses)
	if g.policy == PolicyBelady {
		g.syncPos++
	}
	return hits, misses
}

// insert makes u, a unit of the access being processed, resident when the
// cache has room or a victim to give up; otherwise u bypasses the cache
// (the paper's low-density regime, where the active units exceed the cache
// and are loaded straight to the processing unit). u joins the heap when
// the access ends.
func (g *GroupCache) insert(u int) {
	if g.count < g.capacity {
		g.count++
	} else if !g.evictFor(u) {
		return
	}
	g.resident[u] = true
}

// evictFor frees one slot for u by evicting the heap top, and reports
// false when nothing may be evicted: every resident unit is needed this
// token, or (Belady) keeping the cache contents serves the future better.
func (g *GroupCache) evictFor(u int) bool {
	if len(g.heap) == 0 {
		return false
	}
	at := 0
	if g.policy == PolicyBelady {
		at = g.beladyVictim()
		if g.nextUse(u) >= g.nextUse(int(g.heap[at])) {
			// Optimal-with-bypass: the incoming unit is needed again no sooner
			// than the best victim, so caching it cannot help.
			return false
		}
	}
	g.resident[g.heap[at]] = false
	g.heapRemove(at)
	g.stats.Evictions++
	return true
}

// beladyVictim returns the heap index of the evictable unit whose next use
// is farthest away, lowest unit on ties. Belady keeps a scan (over the
// evictable units, not the universe) because its order cannot be
// maintained incrementally: next use is a function of the stream position,
// not of the unit's own touches, so a key computed at a unit's last touch
// goes stale as soon as the replayed stream departs from the recorded one
// (a position the trace promised passes without the touch; see
// TestBeladyKeyAtLastTouchGoesStale). It is an offline oracle; its keys
// stay zero and the heap serves it only as the set of evictable units.
func (g *GroupCache) beladyVictim() int {
	best, bestUnit, bestNext := 0, int32(-1), int32(-1)
	for i, v := range g.heap {
		if nu := g.nextUse(int(v)); nu > bestNext || (nu == bestNext && v < bestUnit) {
			best, bestUnit, bestNext = i, v, nu
		}
	}
	return best
}

// less orders the heap: smaller key first, lower unit on ties.
func (g *GroupCache) less(u, v int32) bool {
	ku, kv := g.key[u], g.key[v]
	return ku < kv || (ku == kv && u < v)
}

// heapPush adds u to the evictable set.
func (g *GroupCache) heapPush(u int) {
	g.heap = append(g.heap, int32(u))
	g.siftUp(len(g.heap) - 1)
}

// heapRemove takes the unit at heap index i out of the evictable set.
func (g *GroupCache) heapRemove(i int) {
	last := len(g.heap) - 1
	g.pos[g.heap[i]] = -1
	moved := g.heap[last]
	g.heap = g.heap[:last]
	if i == last {
		return
	}
	g.heap[i] = moved
	g.siftDown(i)
	if g.heap[i] == moved {
		g.siftUp(i)
	}
}

// siftUp moves the unit at heap index i toward the root until its parent is
// not larger, carrying it in a register and writing it once.
func (g *GroupCache) siftUp(i int) {
	u := g.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		v := g.heap[parent]
		if !g.less(u, v) {
			break
		}
		g.heap[i], g.pos[v] = v, int32(i)
		i = parent
	}
	g.heap[i], g.pos[u] = u, int32(i)
}

// siftDown moves the unit at heap index i toward the leaves until neither
// child is smaller.
func (g *GroupCache) siftDown(i int) {
	n := len(g.heap)
	u := g.heap[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		v := g.heap[child]
		if r := child + 1; r < n && g.less(g.heap[r], v) {
			child, v = r, g.heap[r]
		}
		if !g.less(v, u) {
			break
		}
		g.heap[i], g.pos[v] = v, int32(i)
		i = child
	}
	g.heap[i], g.pos[u] = u, int32(i)
}

// AccessDense processes a token that reads every unit of the group. Dense
// groups behave like statically pinned weights: the first access fills the
// cache to capacity with the lowest-numbered units not yet resident (units
// 0..capacity-1 on a group only ever read densely) and later accesses hit
// on the pinned set — no churn, because evicting under a cyclic full scan
// can never help. Pinned units are evictable by later sparse accesses.
func (g *GroupCache) AccessDense() (hits, misses int) {
	for u := 0; g.count < g.capacity; u++ {
		if !g.resident[u] {
			g.resident[u] = true
			g.count++
			g.heapPush(u)
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

// ModelCache is the full per-layer, per-group cache hierarchy for one
// model. It implements sparsity.CacheView.
type ModelCache struct {
	Policy Policy
	groups [][sparsity.NumGroups]*GroupCache
}

// NewModelCache builds caches for layers × groups. caps and nunits give the
// per-layer per-group unit capacities and universes; a zero universe means
// the group is unused by the scheme and gets no cache.
func NewModelCache(policy Policy, caps, nunits [][sparsity.NumGroups]int) *ModelCache {
	if len(caps) != len(nunits) {
		panic("cache: caps/nunits layer count mismatch")
	}
	mc := &ModelCache{Policy: policy}
	mc.groups = make([][sparsity.NumGroups]*GroupCache, len(caps))
	for l := range caps {
		for g := 0; g < int(sparsity.NumGroups); g++ {
			if nunits[l][g] > 0 {
				mc.groups[l][g] = NewGroupCache(policy, caps[l][g], nunits[l][g])
			}
		}
	}
	return mc
}

// Matches reports whether mc is laid out as NewModelCache(policy, caps,
// nunits) lays one out — the same groups with the same universes and
// capacities — so that after a Reset it cannot be told from a new one.
func (mc *ModelCache) Matches(policy Policy, caps, nunits [][sparsity.NumGroups]int) bool {
	if mc.Policy != policy || len(mc.groups) != len(caps) || len(caps) != len(nunits) {
		return false
	}
	for l, gs := range mc.groups {
		for g, gc := range gs {
			n := nunits[l][g]
			if gc == nil {
				if n > 0 {
					return false
				}
			} else if gc.nunits != n || gc.capacity != clampCapacity(policy, caps[l][g], n) {
				return false
			}
		}
	}
	return true
}

// Reset empties every group (see GroupCache.Reset), so the cache is again
// what NewModelCache built.
func (mc *ModelCache) Reset() {
	for l := range mc.groups {
		for _, gc := range mc.groups[l] {
			if gc != nil {
				gc.Reset()
			}
		}
	}
}

// Resident implements sparsity.CacheView: the group's live residency slice,
// nil for a group the scheme does not use.
func (mc *ModelCache) Resident(layer int, g sparsity.GroupID) []bool {
	gc := mc.groups[layer][g]
	if gc == nil {
		return nil
	}
	return gc.resident
}

// AccessResult reports one token's traffic for one layer in units.
type AccessResult struct {
	HitUnits, MissUnits [sparsity.NumGroups]int
}

// Access replays a TokenAccess against the layer's caches.
func (mc *ModelCache) Access(layer int, ta *sparsity.TokenAccess) AccessResult {
	var res AccessResult
	for g := 0; g < int(sparsity.NumGroups); g++ {
		acc := ta.Groups[g]
		if acc.Kind == sparsity.AccessUnused {
			continue
		}
		gc := mc.groups[layer][g]
		if gc == nil {
			panic(fmt.Sprintf("cache: access to unconfigured group %v at layer %d", sparsity.GroupID(g), layer))
		}
		var h, m int
		if acc.Kind == sparsity.AccessDense {
			h, m = gc.AccessDense()
		} else {
			h, m = gc.AccessSparse(acc.Units)
		}
		res.HitUnits[g] = h
		res.MissUnits[g] = m
	}
	return res
}

// Occupancy returns the total resident units across all layers and groups —
// a full fingerprint of cache fill, used by determinism tests.
func (mc *ModelCache) Occupancy() int {
	n := 0
	for l := range mc.groups {
		for g := 0; g < int(sparsity.NumGroups); g++ {
			if gc := mc.groups[l][g]; gc != nil {
				n += gc.Occupancy()
			}
		}
	}
	return n
}

// TotalStats sums statistics over all layers and groups.
func (mc *ModelCache) TotalStats() Stats {
	var s Stats
	for l := range mc.groups {
		for g := 0; g < int(sparsity.NumGroups); g++ {
			if gc := mc.groups[l][g]; gc != nil {
				st := gc.Stats()
				s.Hits += st.Hits
				s.Misses += st.Misses
				s.Evictions += st.Evictions
			}
		}
	}
	return s
}

// SetFuture installs the Belady oracle's future in every Belady group:
// stream(l, g) is group g's access stream at layer l, one unit list per
// access in order (nil for a dense access), as GroupCache.SetTrace takes it.
func (mc *ModelCache) SetFuture(stream func(layer int, g sparsity.GroupID) [][]int) {
	for l, gs := range mc.groups {
		for g, gc := range gs {
			if gc != nil && gc.policy == PolicyBelady {
				gc.SetTrace(stream(l, sparsity.GroupID(g)))
			}
		}
	}
}
