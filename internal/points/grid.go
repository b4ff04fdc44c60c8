package points

import "strconv"

// Grid buckets a dataset's points into a uniform grid of cubic cells with a
// given side, so a query of radius ≤ side only inspects the 3^dim cells
// around its own: every pair within side of each other shares or
// neighbours a cell. It is the sequential neighbour index of exact DP's
// cutoff ρ pass and of DBSCAN. Above MaxGridDim the 3^dim fan-out costs
// more than it prunes, and callers scan flat instead.
type Grid struct {
	side  float64
	dim   int
	cells map[string][]int32
}

// MaxGridDim is the highest dimension a Grid pays off at.
const MaxGridDim = 6

// NewGrid buckets every point of ds into cells of the given side. Each
// cell lists its point indices in ascending order.
func NewGrid(ds *Dataset, side float64) *Grid {
	g := &Grid{side: side, dim: ds.Dim(), cells: make(map[string][]int32)}
	for i, p := range ds.Points {
		key := g.key(p.Pos, nil)
		g.cells[key] = append(g.cells[key], int32(i))
	}
	return g
}

// key encodes the cell coordinates of pos, offset by off (nil = zero).
func (g *Grid) key(pos Vector, off []int) string {
	buf := make([]byte, 0, g.dim*8)
	for j := 0; j < g.dim; j++ {
		c := int(pos[j] / g.side)
		if pos[j] < 0 {
			c--
		}
		if off != nil {
			c += off[j]
		}
		buf = strconv.AppendInt(buf, int64(c), 10)
		buf = append(buf, ':')
	}
	return string(buf)
}

// ForEachNeighborCell calls fn with the point list of every non-empty cell
// among the 3^dim around pos, walking the offsets (−1, 0, +1) per axis in
// lexicographic order, so callers see candidates in a fixed order.
func (g *Grid) ForEachNeighborCell(pos Vector, fn func(ids []int32)) {
	off := make([]int, g.dim)
	var walk func(d int)
	walk = func(d int) {
		if d == g.dim {
			if ids, ok := g.cells[g.key(pos, off)]; ok {
				fn(ids)
			}
			return
		}
		for _, o := range [3]int{-1, 0, 1} {
			off[d] = o
			walk(d + 1)
		}
	}
	walk(0)
}
