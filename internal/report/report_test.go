package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cwnsim/internal/metrics"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Speedups", "PEs", "CWN", "GM", "ratio")
	tb.AddRow(25, 10.5, 6.72, 1.5625)
	tb.AddRow(400, 120.0, 40.0, 3.0)
	s := tb.String()
	if !strings.Contains(s, "Speedups") {
		t.Error("missing title")
	}
	if !strings.Contains(s, "PEs") || !strings.Contains(s, "ratio") {
		t.Error("missing headers")
	}
	if !strings.Contains(s, "10.50") {
		t.Errorf("float not formatted: %s", s)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
	// Columns align: each line of the body has the same width.
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("too few lines: %q", s)
	}
	if len(lines[1]) != len(lines[3]) {
		t.Errorf("misaligned rows:\n%s", s)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(1, "x,y")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "a,b") || !strings.Contains(got, `"x,y"`) {
		t.Errorf("CSV = %q", got)
	}
	// WriteCSVFile writes the same bytes, replacing an existing file.
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, []byte("stale contents, longer than the table\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	if file, err := os.ReadFile(path); err != nil || string(file) != got {
		t.Errorf("WriteCSVFile wrote %q (err %v), want %q", file, err, got)
	}
	if err := tb.WriteCSVFile(filepath.Join(t.TempDir(), "missing", "t.csv")); err == nil {
		t.Error("WriteCSVFile into a missing directory reported no error")
	}
}

func TestChartRendering(t *testing.T) {
	var up, down metrics.Series
	up.Label = "rising"
	down.Label = "falling"
	for i := 0; i <= 100; i++ {
		up.Add(float64(i), float64(i))
		down.Add(float64(i), float64(100-i))
	}
	c := NewChart("test", "time", "util%")
	c.Add(&up, '+')
	c.Add(&down, 'o')
	s := c.String()
	if !strings.Contains(s, "test") || !strings.Contains(s, "rising") || !strings.Contains(s, "falling") {
		t.Errorf("chart missing labels:\n%s", s)
	}
	if !strings.Contains(s, "+") || !strings.Contains(s, "o") {
		t.Errorf("chart missing markers:\n%s", s)
	}
	// Rising series ends top-right: the first grid row should contain a
	// marker near its right edge.
	lines := strings.Split(s, "\n")
	firstRow := lines[1]
	if !strings.Contains(firstRow, "+") && !strings.Contains(firstRow, "o") {
		t.Errorf("no marker on top row:\n%s", s)
	}
}

func TestChartEmpty(t *testing.T) {
	c := NewChart("empty", "", "")
	if !strings.Contains(c.String(), "no data") {
		t.Error("empty chart should say so")
	}
}

func TestChartFixedYMax(t *testing.T) {
	var s metrics.Series
	s.Label = "x"
	s.Add(0, 50)
	s.Add(10, 50)
	c := NewChart("", "", "")
	c.YMax = 100
	c.Add(&s, '*')
	out := c.String()
	if !strings.Contains(out, "100.0") {
		t.Errorf("fixed YMax not honored:\n%s", out)
	}
}

func TestHeatmap(t *testing.T) {
	h := NewHeatmap("util", 2, 3)
	h.Values = []float64{0, 0.5, 1, 1, 0.5, 0}
	s := h.String()
	if !strings.Contains(s, "util") {
		t.Error("missing title")
	}
	if !strings.Contains(s, "@") {
		t.Errorf("busy glyph missing:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 { // title + 2 rows + scale
		t.Errorf("unexpected line count %d:\n%s", len(lines), s)
	}
}

func TestShadeClamps(t *testing.T) {
	if Shade(-1) != ' ' {
		t.Error("negative should clamp to idle")
	}
	if Shade(2) != '@' {
		t.Error(">1 should clamp to busy")
	}
	if Shade(0) != ' ' || Shade(1) != '@' {
		t.Error("endpoints wrong")
	}
}
