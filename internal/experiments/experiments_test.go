package experiments

import (
	"strconv"
	"testing"
	"time"
)

func smallFig3() Fig3Config {
	return Fig3Config{
		Threads: []int{1, 4},
		Cycles:  300_000,
		Seed:    3,
	}
}

func TestFigure3AllBenches(t *testing.T) {
	for _, bench := range []string{"stack", "queue", "txapp", "bimodal"} {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			tab, err := Figure3(bench, smallFig3())
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) != 2 || len(tab.Columns) != 5 {
				t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Columns))
			}
			for _, row := range tab.Rows {
				for _, cell := range row[1:] {
					v, err := strconv.ParseFloat(cell, 64)
					if err != nil || v <= 0 {
						t.Fatalf("%s: non-positive throughput cell %q in %v", bench, cell, row)
					}
				}
			}
		})
	}
}

func TestFigure3UnknownBench(t *testing.T) {
	if _, err := Figure3("nope", smallFig3()); err == nil {
		t.Fatal("unknown bench accepted")
	}
}

func TestSTMThroughputSmoke(t *testing.T) {
	cfg := DefaultSTMConfig()
	cfg.Goroutines = []int{1, 2}
	cfg.Duration = 30 * time.Millisecond
	tab, err := STMThroughput("txapp", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v <= 0 {
				t.Fatalf("bad throughput cell %q", cell)
			}
		}
	}
}

func TestSTMAblations(t *testing.T) {
	cfg := DefaultSTMConfig()
	cfg.Duration = 15 * time.Millisecond
	tab, err := STMAblations("txapp", 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 { // baseline + 7 single-knob variants (incl. batched commit, mean profile)
		t.Fatalf("ablation rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil || v <= 0 {
			t.Fatalf("ablation %q commits/s cell %q invalid", row[0], row[1])
		}
	}
	if _, err := STMAblations("nope", 2, cfg); err == nil {
		t.Fatal("unknown bench accepted")
	}
}

func TestSTMUnknownBench(t *testing.T) {
	if _, err := STMThroughput("nope", STMConfig{Goroutines: []int{1}, Duration: time.Millisecond}); err == nil {
		t.Fatal("unknown STM bench accepted")
	}
}

func TestDefaultConfigsSane(t *testing.T) {
	f := DefaultFig3Config()
	if len(f.Threads) == 0 || f.Cycles == 0 {
		t.Fatal("bad default fig3 config")
	}
	s := DefaultSTMConfig()
	if len(s.Goroutines) == 0 || s.Duration == 0 {
		t.Fatal("bad default stm config")
	}
	for i := 1; i < len(s.Goroutines); i++ {
		if s.Goroutines[i] <= s.Goroutines[i-1] {
			t.Fatal("goroutine levels not increasing")
		}
	}
}

func TestAblations(t *testing.T) {
	cfg := smallFig3()
	tab, err := Ablations("txapp", 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("ablation rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil || v <= 0 {
			t.Fatalf("ablation %q throughput cell %q invalid", row[0], row[1])
		}
	}
}
