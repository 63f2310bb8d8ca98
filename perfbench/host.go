package main

import (
	"runtime"
	"sync/atomic"
	"time"
)

// crossCPUHandoffNs measures this host's core-to-core handoff latency: two
// goroutines pass a token back and forth through one atomic word, and the
// mean round trip is returned in nanoseconds. On a two-vCPU AMD EPYC VM
// it reads about 65 ns when the vCPUs share a
// physical core and about 400 ns when they do not, and the host moves
// between the two for seconds to minutes at a time. Handoff-bound drains
// run at about half speed in the slow state, so every run records it. It
// returns 0 when the process has a single P to spin on.
func crossCPUHandoffNs() float64 {
	if runtime.GOMAXPROCS(0) < 2 {
		return 0
	}
	const trips = 20000
	var token atomic.Int64
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		for i := int64(0); i < trips; i++ {
			for token.Load() != 2*i+1 {
			}
			token.Store(2*i + 2)
		}
	}()
	for i := int64(0); i < trips; i++ {
		for token.Load() != 2*i {
		}
		token.Store(2*i + 1)
	}
	<-done
	return float64(time.Since(start).Nanoseconds()) / trips
}
