//go:build !amd64

package tensor

// accum4 is sparseAccum's four-unit pass: for every i < len(acc),
// acc[i] += r0[i]·x0, then += r1[i]·x1, += r2[i]·x2, += r3[i]·x3, each product
// rounded to float32 before its add. amd64 runs the same sequence in SSE2
// (sparse_amd64.s). Each r must hold at least len(acc) floats.
func accum4(acc, r0, r1, r2, r3 []float32, x0, x1, x2, x3 float32) {
	r0, r1, r2, r3 = r0[:len(acc)], r1[:len(acc)], r2[:len(acc)], r3[:len(acc)]
	for i, s := range acc {
		s += float32(r0[i] * x0)
		s += float32(r1[i] * x1)
		s += float32(r2[i] * x2)
		s += float32(r3[i] * x3)
		acc[i] = s
	}
}
