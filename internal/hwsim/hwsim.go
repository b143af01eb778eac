// Package hwsim is the analytic hardware simulator of Appendix A: it prices
// each generated token by the weight bytes moved over the DRAM and Flash
// interfaces, the two transfer channels that bound on-device token
// generation. NPU compute is not modeled, matching the paper ("we do not
// simulate NPU inference times").
//
// Memory planning follows the paper's policy: everything that is not
// dynamically pruned — embeddings, attention, the KV cache, any predictor —
// is statically pinned in DRAM; the remaining DRAM budget is divided
// uniformly across the MLP layers as weight-cache capacity, and within a
// layer proportionally to each weight group's size.
//
// Byte counts are scaled so each simulated analog occupies the same number
// of bytes as its paper counterpart (a phi3med-sim token moves "7.4 GB
// model"-scale traffic); this is a uniform multiplier, so relative
// throughput between methods is unaffected, but absolute tok/s land in the
// same range the paper reports.
package hwsim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/model"
	"repro/internal/sparsity"
)

// Device describes the memory system under simulation.
type Device struct {
	Name string
	// DRAMBandwidth is the DRAM I/O speed in bytes/second.
	DRAMBandwidth float64
	// FlashBandwidth is the Flash read speed in bytes/second.
	FlashBandwidth float64
	// DRAMFraction is the available DRAM capacity expressed as a fraction
	// of the model's total weight bytes (the paper's Table 2 uses ≈ 0.5).
	DRAMFraction float64
}

// A18Like returns the default device of the paper's main experiments:
// Apple-A18-class DRAM at 60 GB/s, Flash at 1 GB/s, DRAM fitting half the
// model.
func A18Like() Device {
	return Device{Name: "a18", DRAMBandwidth: 60e9, FlashBandwidth: 1e9, DRAMFraction: 0.5}
}

// PaperModelBytes maps each analog to its paper counterpart's 4-bit
// footprint (Table 2 "Model size"), used to scale simulated byte counts.
var PaperModelBytes = map[string]float64{
	model.Phi3MedSim:   7.4e9,
	model.Phi3MiniSim:  2.4e9,
	model.Llama8BSim:   4.3e9,
	model.Mistral7BSim: 3.9e9,
	model.ReluFiedSim:  3.9e9,
}

// Plan is a memory layout for one (model, device, scheme-shape) triple.
type Plan struct {
	Dev Device
	// BytesPerWeight is the storage width (0.5 for INT4).
	BytesPerWeight float64
	// MLPByteScale is the multiplier mapping simulated MLP weight bytes to
	// paper-scale bytes.
	MLPByteScale float64
	// StaticBytes is pinned DRAM: non-MLP weights, predictor, KV cache.
	StaticBytes float64
	// KVBytes is the KV-cache allocation included in StaticBytes.
	KVBytes float64
	// ModelBytes is the total weight footprint (scaled).
	ModelBytes float64
	// CacheBudgetBytes is DRAM left for the MLP weight caches.
	CacheBudgetBytes float64
	// Caps and NUnits give per-layer per-group cache capacities and unit
	// universes (unit counts, not bytes).
	Caps, NUnits [][sparsity.NumGroups]int
	// unitBytes[g] is the scaled byte size of one unit of group g.
	unitBytes [sparsity.NumGroups]float64
	layers    int
}

// Byte shares of a model that maps to a paper counterpart (models with no
// PaperModelBytes entry use their actual static weights, unscaled).
const (
	// staticFraction is the share of model bytes outside the MLPs. Real GQA
	// LLMs of the Phi/Mistral class keep ~15% of weights in
	// embeddings+attention; the tiny analogs would misreport this ratio, so
	// the plan uses the paper-scale share.
	staticFraction = 0.15
	// kvFraction is the KV-cache DRAM share of model bytes (the
	// Phi-3-Medium @2k-context ratio).
	kvFraction = 0.02
)

// PlanOpts tunes planning.
type PlanOpts struct {
	// BytesPerWeight defaults to 0.5 (INT4).
	BytesPerWeight float64
	// Groups marks which weight groups the scheme touches; unused groups
	// get no cache and their weights are not double-counted. Exactly one of
	// the two MLP representations must be used per matrix (see
	// sparsity.GroupID). Use ProbeGroups to derive this from a scheme.
	Groups [sparsity.NumGroups]bool
}

// ProbeGroups runs one scheme forward on a probe input to discover which
// groups the scheme touches.
func ProbeGroups(s sparsity.Scheme, m *model.Model) [sparsity.NumGroups]bool {
	mlp := m.Blocks[0].MLP
	x := make([]float32, mlp.Dim)
	for i := range x {
		x[i] = float32(i%7) - 3
	}
	_, ta := s.Forward(0, x, mlp, nil)
	var used [sparsity.NumGroups]bool
	for g := 0; g < int(sparsity.NumGroups); g++ {
		used[g] = ta.Groups[g].Kind != sparsity.AccessUnused
	}
	return used
}

// NewPlan lays out DRAM for the model on the device.
func NewPlan(m *model.Model, dev Device, opts PlanOpts) (*Plan, error) {
	if opts.BytesPerWeight == 0 {
		opts.BytesPerWeight = 0.5
	}
	anyGroup := false
	for _, u := range opts.Groups {
		anyGroup = anyGroup || u
	}
	if !anyGroup {
		return nil, fmt.Errorf("hwsim: no weight groups marked as used")
	}
	p := &Plan{Dev: dev, BytesPerWeight: opts.BytesPerWeight, layers: len(m.Blocks)}
	rawMLPBytes := float64(float64(m.MLPWeightCount()) * opts.BytesPerWeight)
	var staticWeightBytes float64
	if paper, ok := PaperModelBytes[m.Cfg.Name]; ok {
		// Map onto the paper counterpart's proportions: the tiny analogs
		// over-represent embeddings/attention, so byte shares come from the
		// paper-scale model while access *patterns* come from the analog.
		p.ModelBytes = paper
		p.MLPByteScale = (1 - staticFraction) * paper / rawMLPBytes
		staticWeightBytes = staticFraction * paper
		p.KVBytes = kvFraction * paper
	} else {
		p.MLPByteScale = 1
		staticWeightBytes = float64(float64(m.StaticWeightCount()) * opts.BytesPerWeight)
		p.ModelBytes = rawMLPBytes + staticWeightBytes
		headDim := m.Cfg.Dim / m.Cfg.Heads
		p.KVBytes = float64(2*m.Cfg.KVHeads*headDim*m.Cfg.MaxSeq*len(m.Blocks)) * 2
	}
	bpw := opts.BytesPerWeight * p.MLPByteScale
	p.StaticBytes = staticWeightBytes + p.KVBytes
	budget := float64(dev.DRAMFraction * p.ModelBytes)
	p.CacheBudgetBytes = budget - p.StaticBytes
	if p.CacheBudgetBytes < 0 {
		p.CacheBudgetBytes = 0
	}
	// Per-layer uniform split, then proportional to group bytes in layer.
	dim, dff := m.Cfg.Dim, m.Cfg.DFF
	var groupBytes [sparsity.NumGroups]float64
	var layerBytes float64
	for g := sparsity.GroupID(0); g < sparsity.NumGroups; g++ {
		if !opts.Groups[g] {
			continue
		}
		units, per := sparsity.GroupUnits(g, dim, dff)
		p.unitBytes[g] = float64(per) * bpw
		groupBytes[g] = float64(float64(units*per) * bpw)
		layerBytes += groupBytes[g]
	}
	perLayer := p.CacheBudgetBytes / float64(p.layers)
	p.Caps = make([][sparsity.NumGroups]int, p.layers)
	p.NUnits = make([][sparsity.NumGroups]int, p.layers)
	for l := 0; l < p.layers; l++ {
		for g := sparsity.GroupID(0); g < sparsity.NumGroups; g++ {
			if !opts.Groups[g] {
				continue
			}
			units, _ := sparsity.GroupUnits(g, dim, dff)
			p.NUnits[l][g] = units
			share := perLayer * groupBytes[g] / layerBytes
			p.Caps[l][g] = int(share / p.unitBytes[g])
		}
	}
	return p, nil
}

// NewCache builds the cache hierarchy for the plan under a policy.
func (p *Plan) NewCache(policy cache.Policy) *cache.ModelCache {
	return cache.NewModelCache(policy, p.Caps, p.NUnits)
}

// UnitBytes returns the scaled byte size of one unit of group g.
func (p *Plan) UnitBytes(g sparsity.GroupID) float64 { return p.unitBytes[g] }

// Meter accumulates per-token transfer costs for a decoding run: each token
// is one column of a Step it waited for (ChargeStep). BeginToken and then
// each layer's AddAccess price a token by hand as a one-column step does;
// the benchmark module's traced decode is their caller.
type Meter struct {
	plan   *Plan
	tokens int
	// DRAMBytes and FlashBytes are the cumulative traffic on each channel.
	DRAMBytes, FlashBytes float64
}

// NewMeter returns a meter for the plan.
func (p *Plan) NewMeter() *Meter { return &Meter{plan: p} }

// BeginToken accounts the per-token static reads: the pinned non-MLP
// weights stream from DRAM every token, plus on average half the KV cache.
func (mt *Meter) BeginToken() {
	mt.tokens++
	mt.DRAMBytes += mt.plan.staticBytes(1)
}

// staticBytes is what a step of width columns reads besides the MLP units:
// the pinned non-MLP weights once, and on average half of each column's KV
// cache. The halving compiles to a multiply by 0.5; the conversions keep
// arm64 from fusing either product into an add.
func (p *Plan) staticBytes(width int) float64 {
	return (p.StaticBytes - p.KVBytes) + float64(float64(width)*float64(p.KVBytes/2))
}

// AddAccess accounts one layer's cache access result.
func (mt *Meter) AddAccess(res cache.AccessResult) {
	for g := sparsity.GroupID(0); g < sparsity.NumGroups; g++ {
		ub := mt.plan.unitBytes[g]
		mt.DRAMBytes += float64(float64(res.HitUnits[g]) * ub)
		mt.FlashBytes += float64(float64(res.MissUnits[g]) * ub)
	}
}

// ChargeStep accounts one token that waited for the whole of step: its
// column is charged every byte the step moved, so a column's latency is the
// step's. A one-column step charges what BeginToken and that column's
// AddAccess calls do, bit for bit.
func (mt *Meter) ChargeStep(s *Step) {
	mt.tokens++
	mt.DRAMBytes += mt.plan.staticBytes(s.width)
	for _, res := range s.fetched {
		mt.AddAccess(res)
	}
}

// Tokens returns the number of tokens accounted.
func (mt *Meter) Tokens() int { return mt.tokens }

// Latency returns the mean seconds per token.
func (mt *Meter) Latency() float64 {
	if mt.tokens == 0 {
		return 0
	}
	total := mt.DRAMBytes/mt.plan.Dev.DRAMBandwidth + mt.FlashBytes/mt.plan.Dev.FlashBandwidth
	return total / float64(mt.tokens)
}

// Throughput returns tokens per second.
func (mt *Meter) Throughput() float64 {
	l := mt.Latency()
	if l == 0 {
		return 0
	}
	return 1 / l
}

// Step prices one lockstep sub-step of columns — one token each — that
// share a cache: the pinned non-MLP weights stream once, each column streams
// its own KV, and each unit the columns list in a (layer, group) is fetched
// once, from DRAM if it is resident when the first column listing it
// commits and from flash otherwise; later columns reuse that fetch. The
// cache sees every column's access unchanged, so its state and each
// column's hit and miss counts are what per-column accesses give. A
// one-column step's fetch is its column's own cache result. A wider step
// stamps each unit with the id of the last step that fetched it, so opening
// a step clears no per-unit state, and nothing is allocated after the first
// step wider than one column.
type Step struct {
	plan    *Plan
	width   int
	id      uint32
	stamps  []uint32                       // backs stamp; nil until a step is wider than one column
	stamp   [][sparsity.NumGroups][]uint32 // per layer and group, by unit
	fetched []cache.AccessResult           // per layer: the step's DRAM and flash fetches, in units
}

// NewStep returns an empty step over the plan's unit universes.
func (p *Plan) NewStep() *Step {
	return &Step{plan: p, fetched: make([]cache.AccessResult, p.layers)}
}

// Plan returns the plan the step prices on.
func (s *Step) Plan() *Plan { return s.plan }

// Begin opens the next step, of width columns, with no fetches yet. The
// step id skips 0 at a wrap of its 32 bits, clearing every stamp, so an old
// stamp never matches. A step wider than one column lays out one stamp per
// unit of every (layer, group), the first time one opens.
func (s *Step) Begin(width int) {
	s.width = width
	clear(s.fetched)
	if s.id++; s.id == 0 {
		clear(s.stamps)
		s.id++
	}
	if width == 1 || s.stamps != nil {
		return
	}
	p := s.plan
	n := 0
	for l := range p.NUnits {
		for _, u := range p.NUnits[l] {
			n += u
		}
	}
	s.stamps = make([]uint32, n)
	s.stamp = make([][sparsity.NumGroups][]uint32, p.layers)
	n = 0
	for l := range p.NUnits {
		for g, u := range p.NUnits[l] {
			s.stamp[l][g] = s.stamps[n : n+u : n+u]
			n += u
		}
	}
}

// Access applies one column's accesses at a layer to mc and adds them to
// the step, returning the cache's result for the column's own hit and miss
// counts. A unit no earlier column of the step listed is fetched from where
// the cache serves it: a sparse unit from DRAM if it was resident before
// this access, a dense group's from DRAM if it is resident after it (a
// dense access only pins, as the cache counts it). A unit listed twice is
// fetched once. Each column accesses a layer once.
func (s *Step) Access(layer int, ta *sparsity.TokenAccess, mc *cache.ModelCache) cache.AccessResult {
	if s.width == 1 {
		s.fetched[layer] = mc.Access(layer, ta)
		return s.fetched[layer]
	}
	s.fetch(layer, ta, mc, sparsity.AccessSparse)
	res := mc.Access(layer, ta)
	s.fetch(layer, ta, mc, sparsity.AccessDense)
	return res
}

// fetch adds the units of ta's groups of the given kind that the step has
// not fetched yet, priced by mc's residency now.
func (s *Step) fetch(layer int, ta *sparsity.TokenAccess, mc *cache.ModelCache, kind sparsity.AccessKind) {
	res := &s.fetched[layer]
	for g := range ta.Groups {
		acc := &ta.Groups[g]
		if acc.Kind != kind {
			continue
		}
		stamp := s.stamp[layer][g]
		resident := mc.Resident(layer, sparsity.GroupID(g))
		if resident == nil {
			continue // a group mc does not hold: its Access panics, naming it
		}
		n := len(acc.Units)
		if kind == sparsity.AccessDense {
			n = len(stamp)
		}
		for i := range n {
			u := i
			if kind == sparsity.AccessSparse {
				u = acc.Units[i]
			}
			if stamp[u] == s.id {
				continue
			}
			stamp[u] = s.id
			if resident[u] {
				res.HitUnits[g]++
			} else {
				res.MissUnits[g]++
			}
		}
	}
}

// Seconds returns the step's simulated transfer time: what one column's
// meter is charged for it.
func (s *Step) Seconds() float64 {
	mt := Meter{plan: s.plan}
	mt.ChargeStep(s)
	return mt.Latency()
}
