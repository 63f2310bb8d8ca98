package data

import (
	"math/bits"
	"sync"
)

// Payload buffers are recycled through power-of-two size classes, so a
// recycled buffer always has exactly the capacity class the next request of
// similar size needs — no buffer is ever discarded for being a few bytes
// short, which keeps steady-state record reads allocation-free.
const (
	minClassBits = 6  // 64 B
	maxClassBits = 30 // 1 GiB, matches the TFRecord reader's record limit
	numClasses   = maxClassBits - minClassBits + 1
)

var bufClasses [numClasses]sync.Pool

// holders recycles the *[]byte boxes the class pools store buffers in:
// GetBuf returns a buffer's box here and PutBuf reuses it, so a
// steady-state Get/Put cycle allocates nothing (a fresh &b per PutBuf
// would cost one heap allocation each).
var holders = sync.Pool{New: func() any { return new([]byte) }}

// classFor returns the size-class index whose capacity (2^(minClassBits+i))
// holds n bytes.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	return bits.Len(uint(n-1)) - minClassBits
}

// GetBuf returns a buffer of length n, reusing a pooled buffer of n's size
// class when available. The contents are unspecified; callers must
// overwrite all n bytes.
func GetBuf(n int) []byte {
	c := classFor(n)
	if c >= numClasses {
		return make([]byte, n)
	}
	if v := bufClasses[c].Get(); v != nil {
		h := v.(*[]byte)
		b := (*h)[:n]
		*h = nil
		holders.Put(h)
		return b
	}
	return make([]byte, n, 1<<(minClassBits+c))
}

// PutBuf returns a buffer to its size-class pool. The caller must not touch
// b after the call; see the Element payload-ownership rules in this package.
func PutBuf(b []byte) {
	n := cap(b)
	if n < 1<<minClassBits {
		return
	}
	// Only pool buffers whose capacity is exactly a class size; oddly-sized
	// buffers (grown by append) would otherwise corrupt the class invariant.
	c := bits.Len(uint(n)) - 1 - minClassBits
	if c < 0 || c >= numClasses || n != 1<<(minClassBits+c) {
		return
	}
	h := holders.Get().(*[]byte)
	*h = b[:0]
	bufClasses[c].Put(h)
}
