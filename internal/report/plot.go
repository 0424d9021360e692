package report

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one named data series for PlotSeries.
type Series struct {
	// Label names the series in the legend.
	Label string
	// Xs and Ys are the coordinates; lengths must match.
	Xs, Ys []float64
	// Marker is the plot character; picked automatically if zero.
	Marker rune
}

var defaultMarkers = []rune{'*', '+', 'o', 'x', '#', '@'}

// PlotSeries renders one or more series as an ASCII scatter/line chart of
// the given character dimensions. Axes are annotated with the data ranges.
func PlotSeries(w io.Writer, title string, series []Series, width, height int) error {
	if len(series) == 0 {
		return errors.New("report: at least one series is required")
	}
	if width < 16 || height < 4 {
		return fmt.Errorf("report: plot dimensions %dx%d too small (need >= 16x4)", width, height)
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for si, s := range series {
		if len(s.Xs) != len(s.Ys) {
			return fmt.Errorf("report: series %d has %d xs and %d ys", si, len(s.Xs), len(s.Ys))
		}
		if len(s.Xs) == 0 {
			return fmt.Errorf("report: series %d is empty", si)
		}
		for i := range s.Xs {
			x, y := s.Xs[i], s.Ys[i]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if minX > maxX || minY > maxY {
		return errors.New("report: no finite data points to plot")
	}
	if minX == maxX {
		minX, maxX = minX-1, maxX+1
	}
	if minY == maxY {
		minY, maxY = minY-1, maxY+1
	}

	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	for si, s := range series {
		marker := s.Marker
		if marker == 0 {
			marker = defaultMarkers[si%len(defaultMarkers)]
		}
		for i := range s.Xs {
			x, y := s.Xs[i], s.Ys[i]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			col := int((x - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((y-minY)/(maxY-minY)*float64(height-1))
			grid[row][col] = marker
		}
	}

	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	yLoLabel, yHiLabel := Fmt(minY), Fmt(maxY)
	margin := len(yHiLabel)
	if len(yLoLabel) > margin {
		margin = len(yLoLabel)
	}
	for r, line := range grid {
		label := strings.Repeat(" ", margin)
		switch r {
		case 0:
			label = pad(yHiLabel, margin)
		case height - 1:
			label = pad(yLoLabel, margin)
		}
		b.WriteString(label)
		b.WriteString(" |")
		b.WriteString(string(line))
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", margin))
	b.WriteString(" +")
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	b.WriteString(strings.Repeat(" ", margin+2))
	xLo, xHi := Fmt(minX), Fmt(maxX)
	gap := width - len(xLo) - len(xHi)
	if gap < 1 {
		gap = 1
	}
	b.WriteString(xLo)
	b.WriteString(strings.Repeat(" ", gap))
	b.WriteString(xHi)
	b.WriteByte('\n')
	if len(series) > 1 || series[0].Label != "" {
		b.WriteString("legend:")
		for si, s := range series {
			marker := s.Marker
			if marker == 0 {
				marker = defaultMarkers[si%len(defaultMarkers)]
			}
			fmt.Fprintf(&b, "  %c %s", marker, s.Label)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return strings.Repeat(" ", width-len(s)) + s
}

// PlotGrid renders a 2-D field as characters: cell(x, y) is evaluated at
// the centre of each character cell over the unit square, with y
// increasing upwards. It renders the paper's Fig.-2 style failure-region
// pictures.
func PlotGrid(w io.Writer, title string, width, height int, cell func(x, y float64) rune) error {
	if cell == nil {
		return errors.New("report: cell function must not be nil")
	}
	if width < 2 || height < 2 {
		return fmt.Errorf("report: grid dimensions %dx%d too small", width, height)
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	b.WriteString("+" + strings.Repeat("-", width) + "+\n")
	for r := 0; r < height; r++ {
		y := 1 - (float64(r)+0.5)/float64(height)
		b.WriteByte('|')
		for c := 0; c < width; c++ {
			x := (float64(c) + 0.5) / float64(width)
			b.WriteRune(cell(x, y))
		}
		b.WriteString("|\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "+\n")
	_, err := io.WriteString(w, b.String())
	return err
}
