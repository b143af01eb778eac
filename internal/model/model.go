// Package model assembles the nn layers into a decoder-only transformer
// language model (RMSNorm → GQA attention → RMSNorm → gated MLP, with
// residual connections), provides deterministic training from scratch,
// incremental decoding, teacher-forced scoring on the decoder, and
// checkpointing.
//
// Inference is the Decoder: perplexity, multiple-choice scoring and
// calibration capture step one, as a served session does. It accepts an
// MLPHook, a function that replaces the dense MLP forward at each (layer,
// token). The sparsity package supplies hooks implementing every pruning
// scheme in the paper; passing a nil hook evaluates the dense model. Each
// token passes through every layer before the next token starts, so hooks
// that carry state across tokens (the DRAM cache of DIP-CA) observe the
// order a real decoder would.
//
// Training steps the Decoder too: TrainStep decodes a sequence with a tape
// that records what each layer's backward pass reads, so the repo has one
// forward pass.
package model

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config describes a model architecture.
type Config struct {
	Name    string
	Vocab   int
	Dim     int
	Layers  int
	Heads   int
	KVHeads int
	DFF     int
	MaxSeq  int
	Act     nn.Activation
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Vocab <= 0 || c.Dim <= 0 || c.Layers <= 0 || c.DFF <= 0 || c.MaxSeq <= 0:
		return fmt.Errorf("model: non-positive dimension in config %+v", c)
	case c.Dim%c.Heads != 0:
		return fmt.Errorf("model: dim %d not divisible by heads %d", c.Dim, c.Heads)
	case c.Heads%c.KVHeads != 0:
		return fmt.Errorf("model: heads %d not divisible by kv heads %d", c.Heads, c.KVHeads)
	}
	return nil
}

// Block is one transformer layer.
type Block struct {
	Norm1 *nn.RMSNorm
	Attn  *nn.Attention
	Norm2 *nn.RMSNorm
	MLP   *nn.GLUMLP
}

// Model is the assembled language model.
type Model struct {
	Cfg    Config
	Embed  *nn.Embedding
	Blocks []*Block
	NormF  *nn.RMSNorm
	Head   *nn.Linear
}

// New builds a model with freshly initialized weights from the seed.
func New(cfg Config, seed uint64) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := tensor.NewRNG(seed)
	m := &Model{Cfg: cfg}
	m.Embed = nn.NewEmbedding(cfg.Vocab, cfg.MaxSeq, cfg.Dim, rng.Split(1))
	for l := 0; l < cfg.Layers; l++ {
		b := &Block{
			Norm1: nn.NewRMSNorm(fmt.Sprintf("b%d.norm1", l), cfg.Dim),
			Attn:  nn.NewAttention(fmt.Sprintf("b%d.attn", l), cfg.Dim, cfg.Heads, cfg.KVHeads, rng.Split(uint64(10+l))),
			Norm2: nn.NewRMSNorm(fmt.Sprintf("b%d.norm2", l), cfg.Dim),
			MLP:   nn.NewGLUMLP(fmt.Sprintf("b%d.mlp", l), cfg.Dim, cfg.DFF, cfg.Act, rng.Split(uint64(100+l))),
		}
		m.Blocks = append(m.Blocks, b)
	}
	m.NormF = nn.NewRMSNorm("normf", cfg.Dim)
	m.Head = nn.NewLinear("head", cfg.Vocab, cfg.Dim, rng.Split(2))
	return m
}

// Params implements nn.Module.
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, m.Embed.Params()...)
	for _, b := range m.Blocks {
		ps = append(ps, b.Norm1.Params()...)
		ps = append(ps, b.Attn.Params()...)
		ps = append(ps, b.Norm2.Params()...)
		ps = append(ps, b.MLP.Params()...)
	}
	ps = append(ps, m.NormF.Params()...)
	ps = append(ps, m.Head.Params()...)
	return ps
}

// Clone returns a deep copy of m's weights under the same config.
func (m *Model) Clone() *Model {
	c := New(m.Cfg, 0)
	dst := c.Params()
	for i, p := range m.Params() {
		copy(dst[i].W.Data, p.W.Data)
		dst[i].W.Invalidate()
	}
	return c
}

// Window resolves an evaluation window length: 0, or a length beyond
// MaxSeq, means MaxSeq. Perplexity, MLPInputs and the eval package's
// coupled streams all chunk a token stream by this rule.
func (m *Model) Window(win int) int {
	if win == 0 || win > m.Cfg.MaxSeq {
		return m.Cfg.MaxSeq
	}
	return win
}

// MLPWeightCount returns the total scalar weights in all MLP blocks — the
// denominator for MLP-density metrics.
func (m *Model) MLPWeightCount() int {
	n := 0
	for _, b := range m.Blocks {
		n += b.MLP.WeightCount()
	}
	return n
}

// StaticWeightCount returns the weights outside the MLPs (embeddings,
// attention, norms, head) — the portion pinned in DRAM by the simulator.
func (m *Model) StaticWeightCount() int {
	return nn.CountParams(m) - m.MLPWeightCount()
}

// MLPHook replaces the dense MLP at inference time. x is the post-norm
// input to the MLP of the given layer; the hook returns the block output to
// be added to the residual stream.
type MLPHook func(layer int, x tensor.Vec) tensor.Vec

// MLPInputs decodes tokens with the dense model in consecutive windows of
// win (resolved by Model.Window) and returns, per layer, the first
// maxTokens post-norm MLP inputs in token order — the calibration set every
// offline fit (SparseGPT, GPTQ, CATS thresholds, predictors)
// post-processes. Every layer records the same tokens; decoding stops once
// they number maxTokens.
func MLPInputs(m *Model, tokens []int, win, maxTokens int) [][]tensor.Vec {
	win = m.Window(win)
	ins := make([][]tensor.Vec, len(m.Blocks))
	dec := m.NewDecoder(func(layer int, x tensor.Vec) tensor.Vec {
		ins[layer] = append(ins[layer], x.Clone())
		return m.Blocks[layer].MLP.Apply(x)
	})
	for t := 0; t < len(tokens)/win*win && t < maxTokens; t++ {
		if t%win == 0 {
			dec.Reset()
		}
		dec.Step(tokens[t])
	}
	return ins
}

// Decoder performs incremental token-by-token decoding with per-layer KV
// caches. A non-nil hook replaces every MLP, one (layer, token) call at a
// time in token-major order.
type Decoder struct {
	m      *Model
	caches []*nn.KVCache
	pos    int
	hook   MLPHook
	// Per-session scratch: decoding is sequential by nature, so one set of
	// buffers serves every step without reallocation — the residual stream,
	// the norm staging, the MLP output and the logits Step returns.
	x, buf, out, logits tensor.Vec
	mlp                 nn.MLPScratch
	attn                nn.AttnBatchScratch
	tape                *tape // TrainStep's; nil on every inference path
}

// NewDecoder returns a fresh decoding session.
func (m *Model) NewDecoder(hook MLPHook) *Decoder {
	caches := make([]*nn.KVCache, len(m.Blocks))
	for i := range caches {
		caches[i] = &nn.KVCache{}
	}
	return &Decoder{
		m:      m,
		caches: caches,
		hook:   hook,
		x:      tensor.NewVec(m.Cfg.Dim),
		buf:    tensor.NewVec(m.Cfg.Dim),
		out:    tensor.NewVec(m.Cfg.Dim),
		logits: tensor.NewVec(m.Cfg.Vocab),
	}
}

// Pos returns the number of tokens consumed so far.
func (d *Decoder) Pos() int { return d.pos }

// Step consumes one token id and returns the logits for the next token,
// valid until the next Step. It panics when the positional table is
// exhausted. Every buffer it writes is the decoder's own, so a decoder that
// has already decoded a whole window allocates nothing per step.
func (d *Decoder) Step(id int) tensor.Vec {
	if d.pos >= d.m.Cfg.MaxSeq {
		panic("model: decoder exceeded MaxSeq")
	}
	x := d.m.Embed.At(id, d.pos, d.x)
	d.pos++
	buf := d.buf
	for l, b := range d.m.Blocks {
		var rec *nn.AttnRecord
		if d.tape != nil {
			rec = d.tape.attn(l, x)
		}
		b.Norm1.Apply(x, buf)
		attnOut := b.Attn.Step(buf, d.caches[l], &d.attn, rec)
		x.Add(attnOut)
		b.Norm2.Apply(x, buf)
		var out tensor.Vec
		switch {
		case d.hook != nil:
			out = d.hook(l, buf)
		case d.tape != nil:
			out = d.tape.mlp(l, x, buf, b.MLP, d.out)
		default:
			out = b.MLP.ApplyInto(buf, d.out, &d.mlp)
		}
		x.Add(out)
	}
	d.m.NormF.Apply(x, buf)
	return d.m.Head.Apply(buf, d.logits)
}

// Rewind moves the decoder back to position pos, truncating the KV caches
// to the first pos tokens in place and keeping their slots and the scratch
// buffers: the next Step continues the context those tokens left, without
// reallocation. The hook and its state carry over. It panics unless
// 0 ≤ pos ≤ Pos().
func (d *Decoder) Rewind(pos int) {
	if uint(pos) > uint(d.pos) { // a negative pos wraps above every position
		panic("model: Rewind outside the decoded positions")
	}
	d.pos = pos
	for _, c := range d.caches {
		c.Ks = c.Ks[:pos]
		c.Vs = c.Vs[:pos]
	}
}

// Reset is Rewind(0): a fresh context window.
func (d *Decoder) Reset() { d.Rewind(0) }

// TrainHook replaces the dense MLP under TrainStep's tape. rec.X holds the
// post-norm MLP input of the given layer; the hook returns the block output
// and fills rec with what GLUMLP.Backward reads of its forward: the masks,
// and the masked input, U, G and H.
type TrainHook func(layer int, rec *nn.MLPRecord) tensor.Vec

// TrainStep runs one forward/backward pass over a sequence, accumulating
// gradients into the parameters, and returns the mean cross-entropy.
// targets[t] is the token that should follow ids[t]. The forward is a
// Decoder stepping ids with a tape, its MLPs the dense ones when hook is
// nil and the hook's otherwise; the backward walks the tape from the
// logits down, layer by layer, each layer's tokens in ascending order.
func (m *Model) TrainStep(ids, targets []int, hook TrainHook) float64 {
	d := m.NewDecoder(nil)
	tp := &tape{layers: make([]layerTape, len(m.Blocks)), hook: hook}
	d.tape = tp
	for _, id := range ids {
		logits := d.Step(id)
		tp.normF = append(tp.normF, d.x.Clone())
		tp.head = append(tp.head, d.buf.Clone())
		tp.logits = append(tp.logits, logits.Clone())
	}
	dlogits := make([]tensor.Vec, len(ids))
	for i := range dlogits {
		dlogits[i] = tensor.NewVec(m.Cfg.Vocab)
	}
	loss := nn.CrossEntropy(tp.logits, targets, dlogits)
	dxs := m.NormF.Backward(m.Head.Backward(dlogits, tp.head), tp.normF)
	for l := len(m.Blocks) - 1; l >= 0; l-- {
		b, lt := m.Blocks[l], &tp.layers[l]
		// Each residual sub-block passes its gradient through and adds the
		// branch's.
		dxs = addSeq(dxs, b.Norm2.Backward(b.MLP.Backward(dxs, lt.mlp), lt.norm2))
		dxs = addSeq(dxs, b.Norm1.Backward(b.Attn.Backward(dxs, lt.attn, d.caches[l]), lt.norm1))
	}
	m.Embed.Backward(dxs, ids)
	return loss
}

// tape is what TrainStep's backward passes read of the forward, one entry
// per token: each layer's records, which Decoder.Step appends, and the
// final norm's input, the head's input and the logits. The keys and values
// stay in the decoder's KV caches.
type tape struct {
	layers              []layerTape
	normF, head, logits []tensor.Vec
	hook                TrainHook
}

// layerTape is one layer's records: the residual stream each norm read,
// and the attention and MLP records.
type layerTape struct {
	norm1, norm2 []tensor.Vec
	attn         []nn.AttnRecord
	mlp          []nn.MLPRecord
}

// attn records Norm1's input x at layer l and returns the slot for the
// layer's attention record.
func (tp *tape) attn(l int, x tensor.Vec) *nn.AttnRecord {
	lt := &tp.layers[l]
	lt.norm1 = append(lt.norm1, x.Clone())
	lt.attn = append(lt.attn, nn.AttnRecord{})
	return &lt.attn[len(lt.attn)-1]
}

// mlp records Norm2's input x and the MLP's input in at layer l, runs the
// hook or the dense mlp (into out) on the token's record, and returns the
// block output.
func (tp *tape) mlp(l int, x, in tensor.Vec, mlp *nn.GLUMLP, out tensor.Vec) tensor.Vec {
	lt := &tp.layers[l]
	lt.norm2 = append(lt.norm2, x.Clone())
	lt.mlp = append(lt.mlp, nn.MLPRecord{X: in.Clone()})
	rec := &lt.mlp[len(lt.mlp)-1]
	if tp.hook != nil {
		return tp.hook(l, rec)
	}
	return mlp.ApplyInto(in, out, &rec.MLPScratch)
}

// addSeq returns element-wise a[t] + b[t] as fresh vectors.
func addSeq(a, b []tensor.Vec) []tensor.Vec {
	out := make([]tensor.Vec, len(a))
	for t := range a {
		v := a[t].Clone()
		v.Add(b[t])
		out[t] = v
	}
	return out
}
