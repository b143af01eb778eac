package cache

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// Property: for every policy, the resident count never exceeds capacity
// and hits+misses equals the number of accessed units.
func TestCacheInvariants(t *testing.T) {
	policies := []Policy{PolicyNone, PolicyLRU, PolicyLFU}
	f := func(seed uint64) bool {
		state := seed
		next := func(n int) int {
			state = state*6364136223846793005 + 1
			return int((state >> 33) % uint64(n))
		}
		for _, p := range policies {
			cap := next(6)
			g := NewGroupCache(p, cap, 12)
			var accessed int64
			for step := 0; step < 100; step++ {
				n := 1 + next(4)
				seen := map[int]bool{}
				var units []int
				for len(units) < n {
					u := next(12)
					if !seen[u] {
						seen[u] = true
						units = append(units, u)
					}
				}
				h, m := g.AccessSparse(units)
				if h+m != len(units) {
					return false
				}
				accessed += int64(len(units))
				resident := 0
				for u := 0; u < 12; u++ {
					if g.Resident(u) {
						resident++
					}
				}
				if resident > g.Capacity() {
					return false
				}
			}
			st := g.Stats()
			if st.Hits+st.Misses != accessed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: a hit never changes residency; a miss either inserts the unit
// or bypasses, never removes an unrelated non-victim.
func TestLRURecencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		state := seed | 1
		next := func(n int) int {
			state = state*6364136223846793005 + 1
			return int((state >> 33) % uint64(n))
		}
		g := NewGroupCache(PolicyLRU, 3, 10)
		lastTouched := -1
		for step := 0; step < 200; step++ {
			u := next(10)
			g.AccessSparse([]int{u})
			lastTouched = u
			// The most recently touched unit must be resident (capacity>0
			// guarantees insertion or it was already there).
			if !g.Resident(lastTouched) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// residents lists g's resident units in ascending order.
func residents(g *GroupCache) []int {
	var rs []int
	for u, r := range g.resident {
		if r {
			rs = append(rs, u)
		}
	}
	return rs
}

// Property: while no miss bypasses — an access of distinct units no longer
// than the capacity always finds room or a victim — the resident set, the
// counters and the victim sequence do not depend on the order units are
// listed in: the access's own units are protected, they all take the same
// stamp (LRU) or increment (LFU), and the victims are the smallest evictable
// (key, unit) pairs whichever miss claims them.
func TestResidentSetIndependentOfListOrderWithoutBypass(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		for _, p := range []Policy{PolicyLRU, PolicyLFU} {
			const nunits = 24
			capacity := 1 + rng.Intn(12)
			asc, shuffled := NewGroupCache(p, capacity, nunits), NewGroupCache(p, capacity, nunits)
			for step := 0; step < 200; step++ {
				units := rng.Perm(nunits)[:1+rng.Intn(capacity)]
				sorted := append([]int(nil), units...)
				sort.Ints(sorted)
				ha, ma := asc.AccessSparse(sorted)
				hs, ms := shuffled.AccessSparse(units)
				if ha != hs || ma != ms || asc.Stats() != shuffled.Stats() ||
					!reflect.DeepEqual(residents(asc), residents(shuffled)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The one place list order decides what the cache holds: an access with more
// units than there is room for admits its misses until nothing is
// evictable, and the rest bypass. LRU, whose misses all tie, admits the
// first ones listed; so does LFU among misses of equal count, and a cold
// miss counts one use. A warm miss, counted before, LFU admits first. A miss
// listed twice counts two uses and is ranked once, at its first listing;
// admitted, its repeat hits.
func TestBypassAdmitsFirstMissesInListOrder(t *testing.T) {
	for _, p := range []Policy{PolicyLRU, PolicyLFU} {
		for _, c := range []struct {
			list, want []int
			// warm is accessed beside residents 0–3 before list: with no room
			// it bypasses, counted but not cached. lfu is then LFU's residents.
			warm, lfu []int
			hits      int
		}{
			// Residents 1, 2, 3 are hits and protected; only 0 is evictable,
			// so exactly one miss is admitted: the first one listed.
			{[]int{9, 3, 12, 5, 1, 7, 14, 2}, []int{1, 2, 3, 9}, nil, nil, 3},
			{[]int{2, 14, 7, 1, 5, 12, 3, 9}, []int{1, 2, 3, 14}, nil, nil, 3},
			{[]int{1, 2, 3, 5, 7, 9, 12, 14}, []int{1, 2, 3, 5}, nil, nil, 3},
			// 14 was used once before: LFU admits it, though it is listed last.
			{[]int{9, 3, 12, 5, 1, 7, 14, 2}, []int{1, 2, 3, 9}, []int{14}, []int{1, 2, 3, 14}, 3},
			// 9 and 12 both count two uses: 9 is admitted at its first
			// listing, ahead of 12's, and its repeat hits. Ranked at its
			// second listing, 9 would lose the tie to 12.
			{[]int{9, 3, 12, 5, 1, 9, 2, 7}, []int{1, 2, 3, 9}, []int{12}, []int{1, 2, 3, 9}, 4},
		} {
			g := NewGroupCache(p, 4, 16)
			g.AccessSparse([]int{0})
			g.AccessSparse([]int{1, 2, 3})
			want := c.want
			if c.warm != nil {
				g.AccessSparse(append([]int{0, 1, 2, 3}, c.warm...))
				if p == PolicyLFU {
					want = c.lfu
				}
			}
			h, m := g.AccessSparse(c.list)
			if got := residents(g); h != c.hits || h+m != len(c.list) || g.Stats().Evictions != 1 || !reflect.DeepEqual(got, want) {
				t.Fatalf("%v list %v (warm %v): %d hits %d misses %d evictions, resident %v; want %d/%d/1 and %v",
					p, c.list, c.warm, h, m, g.Stats().Evictions, got, c.hits, len(c.list)-c.hits, want)
			}
		}
		// A cold cache admits the first capacity units of the list.
		g := NewGroupCache(p, 3, 16)
		g.AccessSparse([]int{11, 4, 8, 2, 15})
		if got := residents(g); !reflect.DeepEqual(got, []int{4, 8, 11}) {
			t.Fatalf("%v cold bypass: resident %v, want the first three listed", p, got)
		}
	}
}
