package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{Title: "demo", Columns: []string{"name", "value", "note"}}
	t.AddRow("alpha", 1.5, "plain")
	t.AddRow("beta", 12345678.9, "big")
	t.AddRow("gamma", 0.0001, "tiny")
	t.AddRow("delta", 42, "int")
	t.AddRow("eps", uint64(7), "uint")
	t.AddNote("a note with %d args", 2)
	return t
}

func TestWriteText(t *testing.T) {
	var b strings.Builder
	if err := sample().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== demo ==", "alpha", "beta", "note: a note with 2 args", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// Header separator present.
	if !strings.Contains(out, "----") {
		t.Error("missing separator")
	}
}

func TestColumnsAligned(t *testing.T) {
	tab := &Table{Columns: []string{"a", "bbbb"}}
	tab.AddRow("xxxxxxx", "y")
	out := tab.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 3 {
		t.Fatalf("unexpected output:\n%s", out)
	}
	// The second column should start at the same offset in header
	// and data rows.
	hIdx := strings.Index(lines[0], "bbbb")
	dIdx := strings.Index(lines[2], "y")
	if hIdx != dIdx {
		t.Errorf("columns misaligned: header %d vs data %d\n%s", hIdx, dIdx, out)
	}
}

func TestFloatFormatting(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{2, "2"},
		{1234.5, "1234.5"},
		{2e6, "2.000e+06"},
		{5e-5, "5.000e-05"},
	}
	for _, c := range cases {
		if got := formatFloat(c.v); got != c.want {
			t.Errorf("formatFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
