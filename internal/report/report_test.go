package report

import (
	"math"
	"strings"
	"testing"
)

func TestNewTableValidation(t *testing.T) {
	t.Parallel()

	if _, err := NewTable("t"); err == nil {
		t.Error("table with no columns succeeded, want error")
	}
}

func TestTableRender(t *testing.T) {
	t.Parallel()

	tbl, err := NewTable("Demo", "name", "value")
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if err := tbl.AddRow("alpha", "1"); err != nil {
		t.Fatalf("AddRow: %v", err)
	}
	if err := tbl.AddRow("b", "22.5"); err != nil {
		t.Fatalf("AddRow: %v", err)
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := b.String()
	for _, want := range []string{"Demo", "name", "value", "alpha", "22.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Columns must align: "alpha" is the widest cell in column 0.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
	headerIdx := strings.Index(lines[1], "value")
	rowIdx := strings.Index(lines[3], "1")
	if headerIdx != rowIdx {
		t.Errorf("column misaligned: header value at %d, row value at %d\n%s", headerIdx, rowIdx, out)
	}
}

func TestTableAddRowMismatch(t *testing.T) {
	t.Parallel()

	tbl, err := NewTable("", "a", "b")
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if err := tbl.AddRow("only one"); err == nil {
		t.Error("mismatched row succeeded, want error")
	}
}

func TestFmt(t *testing.T) {
	t.Parallel()

	tests := []struct {
		v    float64
		want string
	}{
		{v: 0, want: "0"},
		{v: 1, want: "1"},
		{v: 0.5, want: "0.5"},
		{v: 0.123456, want: "0.12346"},
		{v: 1e-7, want: "1.000e-07"},
		{v: 1234567, want: "1.235e+06"},
		{v: math.NaN(), want: "n/a"},
		{v: math.Inf(1), want: "inf"},
		{v: math.Inf(-1), want: "-inf"},
	}
	for _, tt := range tests {
		if got := Fmt(tt.v); got != tt.want {
			t.Errorf("Fmt(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestPlotSeries(t *testing.T) {
	t.Parallel()

	var b strings.Builder
	err := PlotSeries(&b, "curve", []Series{
		{Label: "up", Xs: []float64{0, 1, 2}, Ys: []float64{0, 1, 2}},
		{Label: "down", Xs: []float64{0, 1, 2}, Ys: []float64{2, 1, 0}},
	}, 40, 10)
	if err != nil {
		t.Fatalf("PlotSeries: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "curve") || !strings.Contains(out, "legend:") {
		t.Errorf("plot missing title or legend:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Errorf("plot missing series markers:\n%s", out)
	}
	// The increasing series puts a marker in the last row's left corner
	// area and first row's right area.
	lines := strings.Split(out, "\n")
	if len(lines) < 12 {
		t.Fatalf("plot too short:\n%s", out)
	}
}

func TestPlotSeriesValidation(t *testing.T) {
	t.Parallel()

	var b strings.Builder
	if err := PlotSeries(&b, "", nil, 40, 10); err == nil {
		t.Error("no series succeeded, want error")
	}
	if err := PlotSeries(&b, "", []Series{{Xs: []float64{1}, Ys: []float64{1, 2}}}, 40, 10); err == nil {
		t.Error("mismatched lengths succeeded, want error")
	}
	if err := PlotSeries(&b, "", []Series{{Xs: []float64{1}, Ys: []float64{1}}}, 4, 2); err == nil {
		t.Error("tiny plot succeeded, want error")
	}
	if err := PlotSeries(&b, "", []Series{{Xs: nil, Ys: nil}}, 40, 10); err == nil {
		t.Error("empty series succeeded, want error")
	}
	nan := math.NaN()
	if err := PlotSeries(&b, "", []Series{{Xs: []float64{nan}, Ys: []float64{nan}}}, 40, 10); err == nil {
		t.Error("all-NaN series succeeded, want error")
	}
}

func TestPlotSeriesConstantValue(t *testing.T) {
	t.Parallel()

	// A constant series must not divide by zero.
	var b strings.Builder
	err := PlotSeries(&b, "flat", []Series{
		{Xs: []float64{0, 1, 2}, Ys: []float64{5, 5, 5}},
	}, 30, 6)
	if err != nil {
		t.Fatalf("PlotSeries: %v", err)
	}
	if !strings.Contains(b.String(), "*") {
		t.Error("flat series not plotted")
	}
}

func TestPlotGrid(t *testing.T) {
	t.Parallel()

	var b strings.Builder
	err := PlotGrid(&b, "regions", 20, 10, func(x, y float64) rune {
		if x < 0.5 && y < 0.5 {
			return '#'
		}
		return '.'
	})
	if err != nil {
		t.Fatalf("PlotGrid: %v", err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + top border + 10 rows + bottom border.
	if len(lines) != 13 {
		t.Fatalf("grid has %d lines, want 13:\n%s", len(lines), out)
	}
	// Bottom-left quadrant is '#': check a bottom row and a top row.
	if !strings.Contains(lines[11], "#") {
		t.Errorf("bottom rows missing region:\n%s", out)
	}
	if strings.Contains(lines[2], "#") {
		t.Errorf("top rows should be empty of region:\n%s", out)
	}
	if err := PlotGrid(&b, "", 20, 10, nil); err == nil {
		t.Error("nil cell function succeeded, want error")
	}
	if err := PlotGrid(&b, "", 1, 1, func(x, y float64) rune { return ' ' }); err == nil {
		t.Error("tiny grid succeeded, want error")
	}
}
