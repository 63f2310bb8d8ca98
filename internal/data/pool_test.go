package data

import (
	"sync"
	"testing"
)

// TestPutBufAllocs pins the steady state of the buffer pool: once a buffer
// and its pool box are in circulation, a GetBuf+PutBuf cycle allocates
// nothing. (The race detector makes sync.Pool drop items at random, so the
// count is only meaningful in ordinary builds.)
func TestPutBufAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	PutBuf(GetBuf(3000))
	allocs := testing.AllocsPerRun(1000, func() {
		PutBuf(GetBuf(3000))
	})
	if allocs != 0 {
		t.Fatalf("GetBuf+PutBuf cycle allocates %.2f times, want 0", allocs)
	}
}

// TestPutBufExclusive hammers the pool from several goroutines: every
// buffer GetBuf hands out must be exclusively the caller's until PutBuf,
// so a pattern written into it must read back intact.
func TestPutBufExclusive(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(tag byte) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				n := 64 + (i*37)%4000
				b := GetBuf(n)
				if len(b) != n || cap(b) < n {
					t.Errorf("GetBuf(%d): len=%d cap=%d", n, len(b), cap(b))
					return
				}
				for j := range b {
					b[j] = tag
				}
				for j := range b {
					if b[j] != tag {
						t.Errorf("buffer byte %d = %d, want %d: shared with another holder", j, b[j], tag)
						return
					}
				}
				PutBuf(b)
			}
		}(byte(g + 1))
	}
	wg.Wait()
}
