package stm

import "time"

// The runtime's one time source. Every stamp in this package — attempt
// and block starts, the abort cost B a requestor prices, grace
// deadlines, the sampled phase timers, the combiner drain — is a
// reading of nanos, and every duration a difference of two. The
// reading is monotonic nanoseconds since clockBase, so it costs one
// vDSO call where time.Now costs two (wall and monotonic), and it
// starts near zero: 0 is a legal stamp, never a sentinel.
// TestOneClock keeps time.Now and time.Since out of the rest of the
// package.
var clockBase = time.Now()

func nanos() int64 { return int64(time.Since(clockBase)) }

// wallNanos converts a stamp to wall-clock Unix nanoseconds: the
// base's wall reading plus the monotonic offset (TxTrace.StartUnixNs;
// computed only when traced).
func wallNanos(stamp int64) int64 { return clockBase.UnixNano() + stamp }
