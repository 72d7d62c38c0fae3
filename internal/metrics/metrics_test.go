package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRenderAligned(t *testing.T) {
	var buf bytes.Buffer
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("alpha", 1.5)
	tbl.AddRow("b", "x")
	tbl.AddRowStrings("c", "y")
	tbl.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	// Header and separator align to the widest cell.
	if !strings.HasPrefix(lines[1], "name ") || !strings.HasPrefix(lines[2], "-----") {
		t.Fatalf("misaligned header:\n%s", out)
	}
}

func TestCellOverridesFloatFormatting(t *testing.T) {
	var buf bytes.Buffer
	tbl := NewTable("", "speedup", "acc", "time")
	tbl.AddRow(Ratio(1.8732), Fixed(0.81234, 4), Seconds(0.25))
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"1.87x", "0.8123", "250.00ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// The historical trap: a bare float64 renders as a duration. Cells are
	// the override; the default stays for genuinely-seconds columns.
	if s := FormatSeconds(1.87); !strings.Contains(s, "s") {
		t.Fatalf("float default changed: %q", s)
	}
}

func TestTableNoTitle(t *testing.T) {
	var buf bytes.Buffer
	tbl := NewTable("", "a")
	tbl.AddRow("x")
	tbl.Render(&buf)
	if strings.Contains(buf.String(), "==") {
		t.Fatalf("unexpected title marker")
	}
}

func TestRenderSeries(t *testing.T) {
	var buf bytes.Buffer
	RenderSeries(&buf, "curves", 2, []Series{
		{Label: "a", Values: []float64{0.1, 0.2, 0.3, 0.4}},
		{Label: "b", Values: []float64{0.5}},
	})
	out := buf.String()
	if !strings.Contains(out, "curves") || !strings.Contains(out, "epoch") {
		t.Fatalf("missing headers:\n%s", out)
	}
	// Step 2 ⇒ epochs 0 and 2 printed; series b runs out → "-".
	if !strings.Contains(out, "0.3000") || !strings.Contains(out, "-") {
		t.Fatalf("series rows wrong:\n%s", out)
	}
	if strings.Contains(out, "0.2000") {
		t.Fatalf("step ignored:\n%s", out)
	}
}

func TestRenderSeriesStepFloor(t *testing.T) {
	var buf bytes.Buffer
	RenderSeries(&buf, "t", 0, []Series{{Label: "a", Values: []float64{1, 2}}})
	if !strings.Contains(buf.String(), "1.0000") || !strings.Contains(buf.String(), "2.0000") {
		t.Fatalf("step floor failed:\n%s", buf.String())
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		5e-7:    "0.5us",
		0.0005:  "500.0us",
		0.25:    "250.00ms",
		3.14159: "3.142s",
	}
	for in, want := range cases {
		if got := FormatSeconds(in); got != want {
			t.Fatalf("FormatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[float64]string{
		512:     "512B",
		2048:    "2.00KiB",
		3 << 20: "3.00MiB",
		5 << 30: "5.00GiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Fatalf("FormatBytes(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(10, 2) != 5 {
		t.Fatalf("Speedup wrong")
	}
	if Speedup(10, 0) != 0 {
		t.Fatalf("Speedup by zero should be 0")
	}
}
