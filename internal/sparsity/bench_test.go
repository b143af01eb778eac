package sparsity

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Per-token scheme costs at the paper-scale analog dimensions (dim 64,
// dff 192): these bound how much CPU the mask computation itself adds on
// top of the masked matvecs.

func benchScheme(b *testing.B, s Scheme) {
	mlp := nn.NewGLUMLP("m", 64, 192, nn.ActSiLU, tensor.NewRNG(1))
	rng := tensor.NewRNG(2)
	x := tensor.NewVec(64)
	for i := range x {
		x[i] = rng.NormFloat32()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Forward(0, x, mlp, nil)
	}
}

func BenchmarkSchemeDense(b *testing.B)  { benchScheme(b, Dense{}) }
func BenchmarkSchemeDIP50(b *testing.B)  { benchScheme(b, NewDIP(0.5)) }
func BenchmarkSchemeGate50(b *testing.B) { benchScheme(b, &GatePrune{Rho: 0.25}) }
func BenchmarkSchemeUp50(b *testing.B)   { benchScheme(b, &UpPrune{Rho: 0.25}) }
func BenchmarkSchemeGLU(b *testing.B)    { benchScheme(b, &GLUPrune{RhoGLU: 0.5}) }

// groupResidency is a fixed CacheView with one residency slice per group,
// handed out as is, as ModelCache.Resident hands out a group's own slice.
type groupResidency [NumGroups][]bool

func (r *groupResidency) Resident(_ int, g GroupID) []bool { return r[g] }

func BenchmarkSchemeDIPCA50(b *testing.B) {
	mlp := nn.NewGLUMLP("m", 64, 192, nn.ActSiLU, tensor.NewRNG(1))
	rng := tensor.NewRNG(2)
	x := tensor.NewVec(64)
	for i := range x {
		x[i] = rng.NormFloat32()
	}
	view := &groupResidency{GroupUpGate: make([]bool, 64), GroupDown: make([]bool, 192)}
	for i := 0; i < 32; i++ {
		view[GroupUpGate][i] = true
		view[GroupDown][i*3] = true
	}
	s := NewDIPCA(0.5, 0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Forward(0, x, mlp, view)
	}
}
