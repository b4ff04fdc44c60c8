package decision

import (
	"fmt"
	"strings"
)

// Render draws the decision graph as ASCII art: ρ on the x-axis, δ on the
// y-axis, '·' for ordinary points, '*' for multiple points in one cell, and
// 'P' for cells containing a selected peak. It is what `ddp -graph` prints
// so a terminal user can eyeball the peak outliers the way Figure 7
// intends.
func (g *Graph) Render(width, height int, peaks []int32) string {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	var maxRho, maxDelta float64
	for i := range g.Rho {
		if g.Rho[i] > maxRho {
			maxRho = g.Rho[i]
		}
		if g.Delta[i] > maxDelta {
			maxDelta = g.Delta[i]
		}
	}
	if maxRho == 0 {
		maxRho = 1
	}
	if maxDelta == 0 {
		maxDelta = 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	cell := func(i int) (int, int) {
		x := int(g.Rho[i] / maxRho * float64(width-1))
		y := int(g.Delta[i] / maxDelta * float64(height-1))
		return x, height - 1 - y
	}
	for i := range g.Rho {
		x, y := cell(i)
		switch grid[y][x] {
		case ' ':
			grid[y][x] = '.'
		case '.':
			grid[y][x] = '*'
		}
	}
	for _, p := range peaks {
		x, y := cell(int(p))
		grid[y][x] = 'P'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "delta (max %.4g)\n", maxDelta)
	for _, row := range grid {
		b.WriteByte('|')
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", width))
	fmt.Fprintf(&b, "> rho (max %.4g)\n", maxRho)
	return b.String()
}
