package tensor

// accum4 is sparseAccum's four-unit pass: for every i < len(acc),
// acc[i] += r0[i]·x0, then += r1[i]·x1, += r2[i]·x2, += r3[i]·x3, each product
// rounded to float32 before its add. The SSE2 body in sparse_amd64.s runs that
// sequence in four lanes at once (MULPS then ADDPS, no FMA), so every acc[i]
// is bit-identical to the Go loop in sparse_other.go. Each r must hold at
// least len(acc) floats.
//
//go:noescape
func accum4(acc, r0, r1, r2, r3 []float32, x0, x1, x2, x3 float32)
