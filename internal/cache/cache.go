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
	"slices"

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
// Every policy evicts by one total order: the evictable unit (resident, and
// not part of the access being processed) with the smallest (key, unit)
// pair, where key[u] is the last-use stamp (LRU) or the use count (LFU;
// counted for non-resident units too, so a returning unit keeps its
// history). The evictable units are an unordered list of eviction words
// key<<unitBits | unit, whose integer order is that pair order.
type GroupCache struct {
	policy   Policy
	capacity int
	nunits   int
	count    int
	clock    int64

	resident  []bool
	key       []int64
	stamp     []uint32 // uint32(clock) on the units of the access in progress
	evictable []uint64 // eviction words of the evictable units

	// Belady state: for each unit, the (ascending) positions in the access
	// stream where it is used, and a cursor into that list.
	future  [][]int32
	cursor  []int
	syncPos int // current stream position

	stats Stats
}

// An eviction word holds a unit in its low unitBits bits and the unit's key
// in the keyBits above them, so a universe holds at most 1<<unitBits units
// and a key stays below 1<<keyBits: the clock and an LFU use count (which
// repeated listings drive past the clock) panic there.
const (
	unitBits = 24
	keyBits  = 64 - unitBits
	unitMask = 1<<unitBits - 1
)

// NewGroupCache returns a cache over nunits units holding at most capacity
// of them. capacity is clamped to [0, nunits]; an nunits outside [0,
// 1<<unitBits], the units an eviction word holds, panics.
func NewGroupCache(policy Policy, capacity, nunits int) *GroupCache {
	if uint(nunits) > 1<<unitBits {
		panic(fmt.Sprintf("cache: unit universe %d outside [0, %d]", nunits, 1<<unitBits))
	}
	capacity = clampCapacity(policy, capacity, nunits)
	return &GroupCache{
		policy:    policy,
		capacity:  capacity,
		nunits:    nunits,
		resident:  make([]bool, nunits),
		key:       make([]int64, nunits),
		stamp:     make([]uint32, nunits),
		evictable: make([]uint64, 0, capacity),
	}
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
// the same arguments: nothing resident, every key, stamp, the clock and the
// statistics zero, and no Belady trace.
func (g *GroupCache) Reset() {
	clear(g.resident)
	clear(g.key)
	clear(g.stamp)
	g.evictable = g.evictable[:0]
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

// word is u's eviction word under its current key.
func (g *GroupCache) word(u int) uint64 { return uint64(g.key[u])<<unitBits | uint64(u) }

// AccessSparse processes one token's access to the listed units, updating
// residency per the policy, and returns the hit and miss unit counts. A
// unit listed twice is touched twice: the first occurrence may miss and
// insert, the repeat then hits. Misses are admitted while there is room
// (free slots and evictable units), highest key first and then in list
// order, and Belady admits only ones used sooner than their victims. A list
// longer than 1<<unitBits, the positions an admission word holds, panics.
func (g *GroupCache) AccessSparse(units []int) (hits, misses int) {
	if g.capacity == 0 {
		g.stats.Misses += int64(len(units))
		return 0, len(units)
	}
	if len(units) > 1<<unitBits {
		panic(fmt.Sprintf("cache: access lists %d units, past the %d positions an admission word holds", len(units), 1<<unitBits))
	}
	// The access's stamp is uint32(clock). Stamps only grow between wraps of
	// the low 32 bits, so an old one never matches; at a wrap every stamp is
	// cleared and the clock skips 0, which leaves the LRU keys' order as it was.
	g.clock++
	if uint32(g.clock) == 0 {
		if g.clock == 1<<keyBits {
			panic(fmt.Sprintf("cache: clock reached 1<<%d, past the key an eviction word holds", keyBits))
		}
		clear(g.stamp)
		g.clock++
	}
	s := uint32(g.clock)
	// Every unit of the access is needed this token, so none may be evicted
	// by another's miss: stamp them, update their keys, drop resident words.
	for _, u := range units {
		if uint(u) >= uint(g.nunits) {
			panic(fmt.Sprintf("cache: unit %d outside the universe of %d", u, g.nunits))
		}
		switch g.policy {
		case PolicyLRU:
			g.key[u] = g.clock
		case PolicyLFU:
			if g.key[u]++; g.key[u] == 1<<keyBits {
				panic(fmt.Sprintf("cache: unit %d's use count reached 1<<%d, past the key an eviction word holds", u, keyBits))
			}
		}
		g.stamp[u] = s
	}
	kept := g.evictable[:0]
	for _, w := range g.evictable {
		if g.stamp[w&unitMask] != s {
			kept = append(kept, w)
		}
	}
	listed := len(units) - (len(g.evictable) - len(kept)) // listings of misses
	g.evictable = kept
	// Misses past the room bypass the cache (the paper's low-density regime,
	// where the active units exceed the cache and are loaded straight to the
	// processing unit). LRU and LFU keep the room distinct ones of highest
	// key, earliest first listing on ties (LRU's keys all tie), picked as
	// victims are: one selection over a word per miss, ^(key<<unitBits |
	// unitMask-pos) with pos its first listing, in the list's spare capacity,
	// which grows once to hold the capacity and an access of this length.
	// The rest are stamped s-1 and bypass, as every miss does with no room.
	if room := g.capacity - g.count + len(kept); 0 < room && room < listed && g.policy != PolicyBelady {
		g.evictable = slices.Grow(g.evictable, g.capacity+len(units)-len(kept))
		words := g.evictable[len(kept):len(kept)]
		for pos, u := range units {
			if !g.resident[u] && g.stamp[u] == s {
				g.stamp[u] = s - 1
				words = append(words, ^uint64(g.key[u])<<unitBits|uint64(pos))
			}
		}
		room = min(room, len(words))
		selectSmallest(words, room)
		for _, w := range words[:room] {
			g.stamp[units[w&unitMask]] = s
		}
	}
	evicts := 0
	for _, u := range units {
		if g.resident[u] {
			hits++
			continue
		}
		misses++
		switch {
		case g.stamp[u] != s:
			continue
		case g.count < g.capacity:
			g.count++
		case g.policy == PolicyBelady:
			if !g.beladyEvictFor(u) {
				continue
			}
		case evicts < len(g.evictable):
			evicts++
		default:
			continue
		}
		g.resident[u] = true
	}
	// The evictable list does not change during an LRU or LFU walk, so the
	// victims counted there are its smallest words, whichever miss took
	// which: one selection finds them all.
	if evicts > 0 {
		selectSmallest(g.evictable, evicts)
		for _, w := range g.evictable[:evicts] {
			g.resident[w&unitMask] = false
		}
		g.evictable = append(g.evictable[:0], g.evictable[evicts:]...)
		g.stats.Evictions += int64(evicts)
	}
	// The resident units of the access become evictable again, once each.
	for _, u := range units {
		if g.resident[u] && g.stamp[u] == s {
			g.stamp[u] = s - 1
			g.evictable = append(g.evictable, g.word(u))
		}
	}
	g.stats.Hits += int64(hits)
	g.stats.Misses += int64(misses)
	if g.policy == PolicyBelady {
		g.syncPos++
	}
	return hits, misses
}

// beladyEvictFor makes room for u by swap-deleting the evictable unit used
// farthest in the future, and reports false when nothing may be evicted:
// every resident unit is needed this token, or keeping the cache contents
// serves the future better.
func (g *GroupCache) beladyEvictFor(u int) bool {
	h := g.evictable
	if len(h) == 0 {
		return false
	}
	at := g.beladyVictim()
	if g.nextUse(u) >= g.nextUse(int(h[at]&unitMask)) {
		// Optimal-with-bypass: the incoming unit is needed again no sooner
		// than the best victim, so caching it cannot help.
		return false
	}
	g.resident[h[at]&unitMask] = false
	g.stats.Evictions++
	h[at] = h[len(h)-1]
	g.evictable = h[:len(h)-1]
	return true
}

// beladyVictim returns the index of the evictable unit whose next use is
// farthest away, lowest unit on ties. Belady keeps a scan (over the
// evictable units, not the universe) because its order cannot be
// maintained incrementally: next use is a function of the stream position,
// not of the unit's own touches, so a key computed at a unit's last touch
// goes stale as soon as the replayed stream departs from the recorded one
// (a position the trace promised passes without the touch; see
// TestBeladyKeyAtLastTouchGoesStale). It is an offline oracle; its keys
// stay zero.
func (g *GroupCache) beladyVictim() int {
	best, bestUnit, bestNext := 0, -1, int32(-1)
	for i, w := range g.evictable {
		v := int(w & unitMask)
		if nu := g.nextUse(v); nu > bestNext || (nu == bestNext && v < bestUnit) {
			best, bestUnit, bestNext = i, v, nu
		}
	}
	return best
}

// selectSmallest moves the k smallest of the distinct words h to h[:k], in
// no order, by quickselect on the middle word.
func selectSmallest(h []uint64, k int) {
	lo, hi := 0, len(h)-1
	for lo < hi && k < len(h) {
		p := h[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for h[i] < p {
				i++
			}
			for h[j] > p {
				j--
			}
			if i <= j {
				h[i], h[j] = h[j], h[i]
				i, j = i+1, j-1
			}
		}
		if k-1 <= j {
			hi = j
		} else if k-1 >= i {
			lo = i
		} else {
			return
		}
	}
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
			g.evictable = append(g.evictable, g.word(u))
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
