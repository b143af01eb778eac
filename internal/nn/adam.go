package nn

import "math"

// Adam is the Adam optimizer with optional global gradient-norm clipping.
type Adam struct {
	LR, Beta1, Beta2, Eps float32
	Clip                  float32 // global grad-norm clip; 0 disables
	step                  int
	m, v                  map[*Param][]float32
}

// NewAdam returns an optimizer with the usual defaults (β1=0.9, β2=0.999).
func NewAdam(lr float32) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, Clip: 1.0,
		m: make(map[*Param][]float32), v: make(map[*Param][]float32),
	}
}

// Step applies one update to every parameter using accumulated gradients,
// then zeroes the gradients. lrScale multiplies the base learning rate,
// allowing cosine schedules without mutating the optimizer.
func (a *Adam) Step(params []*Param, lrScale float32) {
	a.step++
	if a.Clip > 0 {
		var ss float64
		for _, p := range params {
			for _, g := range p.G.Data {
				ss += float64(float64(g) * float64(g))
			}
		}
		norm := float32(math.Sqrt(ss))
		if norm > a.Clip {
			scale := a.Clip / norm
			for _, p := range params {
				for i := range p.G.Data {
					p.G.Data[i] *= scale
				}
			}
		}
	}
	bc1 := float32(1 - math.Pow(float64(a.Beta1), float64(a.step)))
	bc2 := float32(1 - math.Pow(float64(a.Beta2), float64(a.step)))
	lr := a.LR * lrScale
	for _, p := range params {
		m := a.m[p]
		if m == nil {
			m = make([]float32, p.Size())
			a.m[p] = m
			a.v[p] = make([]float32, p.Size())
		}
		v := a.v[p]
		for i, g := range p.G.Data {
			m[i] = float32(a.Beta1*m[i]) + float32((1-a.Beta1)*g)
			v[i] = float32(a.Beta2*v[i]) + float32((1-a.Beta2)*g*g)
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			p.W.Data[i] -= lr * mhat / (float32(math.Sqrt(float64(vhat))) + a.Eps)
		}
		p.W.Invalidate()
		p.ZeroGrad()
	}
}

// CosineLR returns the cosine-decay multiplier for step t of total, with a
// linear warmup over the first warmup steps.
func CosineLR(t, warmup, total int) float32 {
	if t < warmup {
		return float32(t+1) / float32(warmup)
	}
	if t >= total {
		return 0.05
	}
	prog := float64(t-warmup) / float64(total-warmup)
	return float32(0.05 + float64(0.95*0.5*(1+math.Cos(math.Pi*prog))))
}

// GradCheck compares the analytic gradient of param entry (i) against a
// central finite difference of loss(). It is test infrastructure exposed
// here so the model package can reuse it.
func GradCheck(p *Param, i int, loss func() float64, h float32) (analytic, numeric float64) {
	analytic = float64(p.G.Data[i])
	orig := p.W.Data[i]
	set := func(x float32) {
		p.W.Data[i] = x
		p.W.Invalidate()
	}
	set(orig + h)
	up := loss()
	set(orig - h)
	down := loss()
	set(orig)
	numeric = (up - down) / (2 * float64(h))
	return analytic, numeric
}
