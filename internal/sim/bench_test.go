package sim

import (
	"math/rand"
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

// campusDelays is the distribution of the delays a FIT campus run (seven
// set-ups and a 5 s window of bulk transfer) passes to At, by
// bits.Len64(delay) in units of 1/10,000: packet hops and service times
// at 2^11–2^15 ns and queueing at 2^17–2^20 ns. The other 0.06 % are
// protocol and idle timers at 2^30 ns and beyond.
var campusDelays = []struct{ bitLen, weight int }{
	{11, 1580}, {13, 124}, {14, 3810}, {15, 2890}, {17, 900}, {19, 345}, {20, 345},
}

// BenchmarkEngineCampusMix drains a self-refilling engine 4,096 events
// deep, shaped like a campus run's queue: 512 packet chains, each event
// scheduling its successor with a delay drawn from campusDelays, beside
// 3,584 timers about a second out, which make up most of the depth and
// 0.06 % of the events. One op is one event. BenchmarkEngineScheduleRun's
// bare engine is a radix queue's best case (one move per event); on this
// mix a radix-only queue moves each event about three times.
func BenchmarkEngineCampusMix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 1<<13)
	for i := range delays {
		w := rng.Intn(10000)
		for _, d := range campusDelays {
			if w -= d.weight; w < 0 {
				lo := int64(1) << (d.bitLen - 1)
				delays[i] = time.Duration(lo + rng.Int63n(lo))
				break
			}
		}
	}
	e := NewEngine(1)
	next := 0
	var packet, timer func()
	packet = func() {
		e.Schedule(delays[next&(len(delays)-1)], packet)
		next++
	}
	timer = func() { e.Schedule(time.Second+delays[next&(len(delays)-1)], timer) }
	for i := 0; i < 4096; i++ {
		if i < 512 {
			e.Schedule(delays[i], packet)
		} else {
			e.Schedule(time.Duration(rng.Int63n(int64(time.Second))), timer)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.RunAll(uint64(b.N)); err == nil || err == ErrStopped {
		b.Fatalf("RunAll = %v, want the budget to run out", err)
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
