package cache

// This file adds the eviction policies beyond the paper's main trio —
// FIFO and an aging LFU — used by the extended fig11-style ablations and
// cmd/dipsim. FIFO is the classic baseline the OS literature compares
// against; aging LFU addresses plain LFU's known failure mode (stale
// frequency counts pinning units whose hot phase has passed), which
// matters for long decoding sessions whose activation statistics drift.

const (
	// PolicyFIFO evicts the unit resident longest, regardless of use.
	PolicyFIFO Policy = iota + 100
	// PolicyLFUAged is LFU whose counts decay by half every AgingPeriod
	// accesses, so long-stale popularity cannot pin a unit forever.
	PolicyLFUAged
)

// AgingPeriod is the number of token-accesses between count halvings for
// PolicyLFUAged.
const AgingPeriod = 256

// maybeAge halves every use count once per aging period. Floor division can
// reorder units (3 and 2 both become 1, and the tie then goes to the lower
// unit), so the heap is rebuilt; it runs between accesses, when every
// resident unit is in the heap.
func (g *GroupCache) maybeAge() {
	if g.policy != PolicyLFUAged || g.clock%AgingPeriod != 0 {
		return
	}
	for u := range g.key {
		g.key[u] /= 2
	}
	for i := len(g.heap)/2 - 1; i >= 0; i-- {
		g.siftDown(i)
	}
}
