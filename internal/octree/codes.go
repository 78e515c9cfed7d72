package octree

import (
	"math"

	"kifmm/internal/geom"
	"kifmm/internal/morton"
)

// pointCode is one point's 90-bit Morton code (morton.PointCode) and its
// index in Build's input, 16 B: the 124-bit number code·2³⁴ + index, high
// word first. hi holds code bits 30..89, lo holds code bits 0..29 above
// the idxBits of the index. Ordering pointCodes orders points by code with
// ties broken by index, and no octant digit (a bit triple of the code)
// straddles the two words.
type pointCode struct{ hi, lo uint64 }

const (
	idxBits    = 34
	hiShift    = 64 - idxBits // code bits below hi
	idxMask    = 1<<idxBits - 1
	loCodeMask = 1<<hiShift - 1
	hiTop      = 3*morton.MaxDepth - hiShift // significant bits of hi
	radix      = 256
	keyBytes   = 16 // radix digits of a pointCode, 8 of each word
	// smallRun is the length at or below which sortCodes insertion-sorts.
	smallRun = 24
)

func newPointCode(p geom.Point, i int) pointCode {
	c := morton.PointCode(p.X, p.Y, p.Z)
	return pointCode{hi: c.Hi<<idxBits | c.Lo>>hiShift, lo: (c.Lo&loCodeMask)<<idxBits | uint64(i)}
}

// index returns the point's index in Build's input.
func (c pointCode) index() int { return int(c.lo & idxMask) }

func (c pointCode) less(d pointCode) bool { return c.hi < d.hi || (c.hi == d.hi && c.lo < d.lo) }

// digit returns radix digit k, most significant first: hi's eight bytes
// from its top significant bit, then lo's. hi's last digit overlaps the one
// before it, which is harmless: sortCodes reads digit k only within a run
// that agrees on every digit before it.
func (c pointCode) digit(k int) int {
	if k < keyBytes/2 {
		return int(c.hi>>max(hiTop-8*(k+1), 0)) & (radix - 1)
	}
	return int(c.lo>>(64-8*(k-keyBytes/2+1))) & (radix - 1)
}

// octant returns which child of its level-level ancestor holds the point:
// the code's bit triple just below that ancestor's prefix.
func (c pointCode) octant(level int) int {
	b := 3 * (morton.MaxDepth - 1 - level)
	if b >= hiShift {
		return int(c.hi>>(b-hiShift)) & 7
	}
	return int(c.lo>>(b+idxBits)) & 7
}

// sortCodes returns the points' codes in ascending order: by code, ties
// (points in one finest-level cell) by input index, the order a stable
// sort by code gives. It is an in-place most-significant-digit radix sort
// (American flag sort) on bytes of the 124-bit key, so it needs no second
// buffer, and a uniform cloud of 100k points is ordered after two digits.
func sortCodes(pts []geom.Point) []pointCode {
	if len(pts) > math.MaxInt32 { // point ranges are int32
		panic("octree: too many points")
	}
	codes := make([]pointCode, len(pts))
	for i, p := range pts {
		codes[i] = newPointCode(p, i)
	}
	radixSort(codes, 0)
	return codes
}

// radixSort orders a, whose codes agree on every digit before k.
func radixSort(a []pointCode, k int) {
	for ; len(a) > smallRun && k < keyBytes; k++ {
		var count [radix]int32
		for _, c := range a {
			count[c.digit(k)]++
		}
		if int(count[a[0].digit(k)]) == len(a) {
			continue // one digit value: nothing moves
		}
		// Permute each element into its digit's bucket by following cycles.
		var next, end [radix]int32
		sum := int32(0)
		for v, n := range count {
			next[v] = sum
			sum += n
			end[v] = sum
		}
		for v := range next {
			for next[v] < end[v] {
				c := a[next[v]]
				for d := c.digit(k); d != v; d = c.digit(k) {
					c, a[next[d]] = a[next[d]], c
					next[d]++
				}
				a[next[v]] = c
				next[v]++
			}
		}
		lo := int32(0)
		for _, hi := range end {
			if hi-lo > 1 {
				radixSort(a[lo:hi], k+1)
			}
			lo = hi
		}
		return
	}
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].less(a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
