package kernels

// The register-blocked distance primitive under every dense loop of this
// package.
//
// A squared distance is a chain of dim dependent additions (s += d*d), and
// a floating-point add has a latency of about four cycles while the core
// can start two per cycle: one pair at a time, the pipes sit seven-eighths
// idle. sqDist4 evaluates one query row against four stored rows with four
// independent accumulators, so four chains are in flight at once. Each
// chain still sums its own d*d terms in ascending coordinate order — the
// statement shape of sqDist — so every lane is bit-identical to the scalar
// call it replaces, and callers observe the lanes in ascending row order,
// which keeps every ρ sum, δ argmin, NN/top-k winner and tie unchanged.
//
// The kernels do not call sqDist4 directly: sqDistRange and sqDistRows fill
// a strip of up to `tile` distances (contiguous rows, or a gathered row
// list), four rows per step with scalar sqDist on the ≤3 remainder rows,
// and the caller then folds the strip into its accumulator in one simple
// loop. That keeps the blocking in one place and the observe loops free of
// distance arithmetic.

// float is the element type of a coordinate block: the exact float64
// layout of points.Matrix or its float32 mirror.
type float interface{ float32 | float64 }

// sqDist is the squared Euclidean distance between two rows of equal
// length: separate multiply then add per coordinate, ascending — the
// reference rounding every kernel in this package reproduces.
func sqDist[T float](a, b []T) T {
	b = b[:len(a)]
	var s T
	for t, x := range a {
		d := x - b[t]
		s += d * d
	}
	return s
}

// sqDist4 returns the squared distances from q to four rows, each computed
// exactly as sqDist(q, b) would.
func sqDist4[T float](q, b0, b1, b2, b3 []T) (s0, s1, s2, s3 T) {
	for t, x := range q {
		d0 := x - b0[t]
		d1 := x - b1[t]
		d2 := x - b2[t]
		d3 := x - b3[t]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return
}

// sqDistRange writes the squared distances from q to rows
// [lo, lo+len(out)) of the flat row-major block data into out.
func sqDistRange[T float](q, data []T, lo int, out []T) {
	dim := len(q)
	rows := data[lo*dim : (lo+len(out))*dim]
	for ; len(out) >= 4; out, rows = out[4:], rows[4*dim:] {
		out[0], out[1], out[2], out[3] = sqDist4(q, rows[:dim], rows[dim:][:dim], rows[2*dim:][:dim], rows[3*dim:][:dim])
	}
	for j := range out {
		out[j] = sqDist(q, rows[j*dim:][:dim])
	}
}

// sqDistRows writes the squared distances from q to the listed rows of
// data into out (len(out) == len(rows)).
func sqDistRows[T float](q, data []T, rows []int32, out []T) {
	dim := len(q)
	out = out[:len(rows)]
	for ; len(rows) >= 4; out, rows = out[4:], rows[4:] {
		r0, r1, r2, r3 := int(rows[0])*dim, int(rows[1])*dim, int(rows[2])*dim, int(rows[3])*dim
		out[0], out[1], out[2], out[3] = sqDist4(q, data[r0:][:dim], data[r1:][:dim], data[r2:][:dim], data[r3:][:dim])
	}
	for j, r := range rows {
		out[j] = sqDist(q, data[int(r)*dim:][:dim])
	}
}
