package decision

import (
	"fmt"
	"io"
	"sort"
)

// RenderSVG writes the decision graph as a standalone SVG document — the
// shareable counterpart to the terminal Render. Ordinary points are small
// grey dots; selected peaks are highlighted with their index. Axes carry
// tick labels so the ρ>x, δ>y selection box can be read off the plot the
// way the paper's Figure 7 is read.
func (g *Graph) RenderSVG(w io.Writer, width, height int, peaks []int32) error {
	if width < 100 {
		width = 100
	}
	if height < 80 {
		height = 80
	}
	const margin = 42
	plotW := float64(width - 2*margin)
	plotH := float64(height - 2*margin)

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
	xy := func(i int) (float64, float64) {
		x := float64(margin) + g.Rho[i]/maxRho*plotW
		y := float64(margin) + (1-g.Delta[i]/maxDelta)*plotH
		return x, y
	}

	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	p(`<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	// Axes.
	p(`<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		margin, height-margin, width-margin, height-margin)
	p(`<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		margin, margin, margin, height-margin)
	p(`<text x="%d" y="%d" font-size="11" text-anchor="middle">rho</text>`+"\n",
		width/2, height-8)
	p(`<text x="12" y="%d" font-size="11" text-anchor="middle" transform="rotate(-90 12 %d)">delta</text>`+"\n",
		height/2, height/2)
	// Ticks: 0, half, max on both axes.
	for _, frac := range []float64{0, 0.5, 1} {
		x := float64(margin) + frac*plotW
		p(`<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="black"/>`+"\n",
			x, height-margin, x, height-margin+4)
		p(`<text x="%.1f" y="%d" font-size="9" text-anchor="middle">%.3g</text>`+"\n",
			x, height-margin+15, frac*maxRho)
		y := float64(margin) + (1-frac)*plotH
		p(`<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="black"/>`+"\n",
			margin-4, y, margin, y)
		p(`<text x="%d" y="%.1f" font-size="9" text-anchor="end">%.3g</text>`+"\n",
			margin-6, y+3, frac*maxDelta)
	}
	// Points.
	peakSet := make(map[int32]bool, len(peaks))
	for _, pk := range peaks {
		peakSet[pk] = true
	}
	for i := range g.Rho {
		if peakSet[int32(i)] {
			continue
		}
		x, y := xy(i)
		p(`<circle cx="%.1f" cy="%.1f" r="1.5" fill="#888"/>`+"\n", x, y)
	}
	// Peaks on top, labeled by cluster index.
	sorted := append([]int32(nil), peaks...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	for c, pk := range sorted {
		if int(pk) >= g.N() || pk < 0 {
			return fmt.Errorf("decision: peak id %d out of range", pk)
		}
		x, y := xy(int(pk))
		p(`<circle cx="%.1f" cy="%.1f" r="4" fill="#c0392b"/>`+"\n", x, y)
		p(`<text x="%.1f" y="%.1f" font-size="9" fill="#c0392b">%d</text>`+"\n", x+5, y-3, c)
	}
	p("</svg>\n")
	return err
}
