package report

import (
	"strings"
	"testing"
)

func TestTableRenderAlignment(t *testing.T) {
	tb := NewTable("Test Table", "name", "value")
	tb.AddRow("short", "1")
	tb.AddRow("a-much-longer-name", "22")
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Test Table" {
		t.Fatalf("title line = %q", lines[0])
	}
	// Header, separator, two rows.
	if len(lines) != 5 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "short") {
		t.Fatalf("row = %q", lines[3])
	}
	// Columns align: the value column starts at the same offset in the
	// header and in every row.
	col := strings.Index(lines[1], "value")
	if col < 0 {
		t.Fatalf("header = %q", lines[1])
	}
	if lines[3][col:col+1] != "1" || lines[4][col:col+2] != "22" {
		t.Fatalf("misaligned rows: %q / %q", lines[3], lines[4])
	}
}

func TestTableRowPaddingTruncation(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "overflow-dropped")
	out := tb.Render()
	if strings.Contains(out, "overflow-dropped") {
		t.Fatal("overflow cell kept")
	}
	if !strings.Contains(out, "only-one") {
		t.Fatal("padded row lost")
	}
}

func TestSeries(t *testing.T) {
	s := Series{Name: "detection-latency", XLabel: "devices", YLabel: "ms"}
	s.Add(1, 0.5)
	s.Add(2, 0.7)
	out := s.Render()
	if !strings.Contains(out, "detection-latency") || !strings.Contains(out, "0.5000") {
		t.Fatalf("out = %q", out)
	}
	if len(s.Points) != 2 {
		t.Fatal("points")
	}
}

func TestFormatters(t *testing.T) {
	if F(1.234) != "1.23" {
		t.Fatalf("F = %q", F(1.234))
	}
	if I(42) != "42" || U(7) != "7" {
		t.Fatal("I/U")
	}
	if Pct(0.125) != "12.5%" {
		t.Fatalf("Pct = %q", Pct(0.125))
	}
}
