package cache

import (
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
