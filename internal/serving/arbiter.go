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
	// ArbGreedy is first-come-first-served: each admitted session claims
	// all remaining budget; sessions arriving after exhaustion decode
	// cache-less (every access a Flash miss) until a claim is released.
	ArbGreedy
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
	case ArbGreedy:
		return "greedy"
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
	return 0, fmt.Errorf("serving: unknown arbitration policy %q (exclusive|fair|greedy|shared)", s)
}

// Policies lists every arbitration policy in declaration order.
func Policies() []ArbPolicy {
	return []ArbPolicy{ArbExclusive, ArbFairShare, ArbGreedy, ArbShared}
}

// grant issues a newly admitted (or resumed) session a private cache at its
// policy share of the budget, recording the share on the session and greedy
// claims on the engine pool. The pool is clamped to [0, 1] on every
// mutation: repeated admit/suspend/retire cycles accumulate floating-point
// error in `claimed`, and an unclamped pool would eventually grant late
// sessions shares slightly above 1 or below 0.
func (e *Engine) grant(sess *Session) *cache.ModelCache {
	share := 1.0 // ArbExclusive: the full over-committed budget
	switch e.cfg.Arb {
	case ArbFairShare:
		share = 1 / float64(e.cfg.MaxActive)
	case ArbGreedy:
		share = 1 - e.claimed
		if share < 0 {
			share = 0
		}
		if share > 0 {
			e.claimants++
		}
		e.claimed = clamp01(e.claimed + share)
		sess.claim = share
	}
	sess.Share = share
	return cache.NewModelCache(e.cfg.System.Policy, scaledCaps(e.plan.Caps, share), e.plan.NUnits)
}

// releaseClaim returns a session's greedy claim to the pool. Whenever no
// live session holds a claim the pool is reset to exactly 0, so drift from
// long admit/retire cycles can never compound across pool generations.
func (e *Engine) releaseClaim(sess *Session) {
	if sess.claim > 0 {
		e.claimants--
		e.claimed -= sess.claim
	}
	sess.claim = 0
	if e.claimants == 0 {
		e.claimed = 0
		return
	}
	e.claimed = clamp01(e.claimed)
}

// clamp01 pins a budget fraction into [0, 1].
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
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
