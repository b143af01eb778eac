package serving

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/sparsity"
)

// ArbPolicy decides how the plan's DRAM cache budget is divided among
// concurrent sessions.
type ArbPolicy int

const (
	// ArbExclusive gives every session the full solo budget (over-committed
	// — the no-contention upper bound). A session under ArbExclusive is
	// bit-identical to a solo SystemEvaluate of the same stream.
	ArbExclusive ArbPolicy = iota
	// ArbFairShare partitions the budget equally across the batch width:
	// each session's private cache holds budget/MaxActive.
	ArbFairShare
	// ArbShared backs every session with one shared cache at the full
	// budget. Accesses are committed in slot order at every token, so
	// sessions genuinely contend — and statistics stay deterministic for a
	// fixed admission order.
	ArbShared
)

// String names the policy (CLI-compatible: see ParseArbPolicy).
func (p ArbPolicy) String() string {
	switch p {
	case ArbExclusive:
		return "exclusive"
	case ArbFairShare:
		return "fair"
	case ArbShared:
		return "shared"
	default:
		return "invalid"
	}
}

// ParseArbPolicy maps a CLI name to its policy.
func ParseArbPolicy(s string) (ArbPolicy, error) {
	for p := ArbExclusive; p <= ArbShared; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("serving: unknown arbitration policy %q (exclusive|fair|shared)", s)
}

// Policies lists every arbitration policy in declaration order.
func Policies() []ArbPolicy {
	return []ArbPolicy{ArbExclusive, ArbFairShare, ArbShared}
}

// grant issues a newly admitted (or resumed) session a private cache at its
// policy share of the budget and records the share on the session: the
// newest pooled cache, Reset, when there is one, else a new one.
func (e *Engine) grant(sess *Session) *cache.ModelCache {
	sess.Share = grantShare(e.cfg)
	if n := len(e.spareCaches); n > 0 {
		mc := e.spareCaches[n-1]
		e.spareCaches = e.spareCaches[:n-1]
		mc.Reset()
		return mc
	}
	return cache.NewModelCache(e.cfg.System.Policy, e.caps, e.plan.NUnits)
}

// grantShare is the budget fraction of a private grant: the full
// over-committed budget under ArbExclusive, 1/MaxActive under fair share.
func grantShare(cfg Config) float64 {
	if cfg.Arb == ArbFairShare {
		return 1 / float64(cfg.MaxActive)
	}
	return 1
}

// scaledCaps scales per-layer per-group unit capacities by a budget
// fraction. frac == 1 returns the capacities untouched, keeping the
// exclusive path bit-identical to the solo plan.
func scaledCaps(caps [][sparsity.NumGroups]int, frac float64) [][sparsity.NumGroups]int {
	if frac >= 1 {
		return caps
	}
	out := make([][sparsity.NumGroups]int, len(caps))
	for l := range caps {
		for g := range caps[l] {
			out[l][g] = int(frac * float64(caps[l][g]))
		}
	}
	return out
}
