package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"txconflict/internal/metrics"
	"txconflict/internal/stm"
)

// startReporter launches the periodic progress reporter over a live
// runtime's metrics plane: every interval it diffs two plane
// snapshots and writes one structured line for the window — commit
// count, windowed p50/p99 commit latency, and the abort taxonomy.
// stmbench points it at stderr so long interactive runs show their
// latency shape while tables are still being measured, without
// polluting the stdout tables/CSV. The returned stop function halts
// the loop and flushes one final window; it must be called before
// reading the runtime's final counters.
func startReporter(w io.Writer, rt *stm.Runtime, every time.Duration, label string) (stop func()) {
	if every <= 0 {
		return func() {}
	}
	p := rt.Metrics()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(every)
		defer tick.Stop()
		prev := p.Snapshot()
		emit := func() {
			snap := p.Snapshot()
			fmt.Fprintln(w, reportLine(label, &snap, &prev))
			prev = snap
		}
		for {
			select {
			case <-done:
				emit()
				return
			case <-tick.C:
				emit()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// reportLine formats one reporter window from two plane snapshots.
func reportLine(label string, cur, prev *metrics.PlaneSnapshot) string {
	d := cur.Commit.Sub(prev.Commit)
	q := d.Summary()
	var b strings.Builder
	fmt.Fprintf(&b, "%s: +%d commits", label, q.N)
	if q.N > 0 {
		fmt.Fprintf(&b, " p50=%s p99=%s",
			time.Duration(q.P50), time.Duration(q.P99))
	}
	var aborts []string
	for r := 0; r < metrics.NumAbortReasons; r++ {
		if n := cur.Aborts[r] - prev.Aborts[r]; n > 0 {
			aborts = append(aborts, fmt.Sprintf("%s=%d", metrics.AbortReason(r), n))
		}
	}
	if len(aborts) > 0 {
		fmt.Fprintf(&b, " aborts{%s}", strings.Join(aborts, " "))
	}
	return b.String()
}
