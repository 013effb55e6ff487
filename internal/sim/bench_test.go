package sim

import (
	"testing"
	"time"
)

// BenchmarkEngineScheduleRun measures one Schedule + Run cycle through
// the public API with a backlog of idle timers an hour out — the pattern
// of livesecd (one Run per OpenFlow message) and of the wall-clock
// benchmark's sim.ns_per_event. Every cycle peeks past the backlog, so a
// queue whose peek scans instead of reading a kept minimum shows here.
func BenchmarkEngineScheduleRun(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		b.Run(itoa(depth), func(b *testing.B) {
			e := NewEngine(1)
			fn := func() {}
			for i := 0; i < depth; i++ {
				e.Schedule(time.Hour, fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Schedule(time.Microsecond, fn)
				if err := e.Run(e.Now() + time.Microsecond); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineRunTimerWheel drains a self-refilling engine through
// Run, exercising the full peek/pop/dispatch loop.
func BenchmarkEngineRunTimerWheel(b *testing.B) {
	e := NewEngine(1)
	var fn func()
	fn = func() { e.Schedule(10*time.Microsecond, fn) }
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(e.Now() + 10*time.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
