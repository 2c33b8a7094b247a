//go:build framepoison

package ether

// poisonByte is the pattern FramePool.Put writes over a recycled buffer
// in framepoison builds.
const poisonByte = 0xdb

// poison overwrites the whole backing array of a buffer going back to the
// pool. Built only with -tags framepoison: any code that still reads a
// frame after handing it back (a use after recycle) then sees the pattern
// instead of plausible stale bytes, and the byte-identity tests fail.
func poison(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = poisonByte
	}
}
