package graph

import "math/bits"

// Bitset is a fixed-width set over {0, …, Len()-1} backed by a flat []uint64,
// built for the palette loops of the color-reduction algorithms: marking the
// colors a vertex's neighbors use and then finding the smallest free one.
// Every word is epoch-stamped the same way Traversal stamps its visit marks,
// so Reset is O(1) — a stale word reads as zero until first touched — and a
// Bitset its owner holds can be reused across millions of tiny palettes
// with no per-use clearing and no allocation.
//
// A Bitset is owned by one goroutine at a time. The zero value is an empty
// set over {}; NewBitset returns one of a given width.
type Bitset struct {
	words []uint64
	stamp []uint32
	epoch uint32
	n     int
}

// NewBitset returns a bitset over {0..n-1}, initially empty.
func NewBitset(n int) *Bitset {
	b := &Bitset{}
	b.Reset(n)
	return b
}

// Reset empties the set and resizes it to {0..n-1} in O(words grown): live
// words are invalidated by bumping the epoch, not cleared.
func (b *Bitset) Reset(n int) {
	if b.epoch == ^uint32(0) { // epoch wrap: clear stamps once every 2³² resets
		clear(b.stamp)
		b.epoch = 0
	}
	b.epoch++
	b.n = n
	if need := (n + 63) / 64; need > len(b.words) {
		b.words = append(b.words, make([]uint64, need-len(b.words))...)
		// Fresh stamps are 0, which never equals the (post-increment ≥ 1)
		// epoch, so grown words correctly read as empty.
		b.stamp = append(b.stamp, make([]uint32, need-len(b.stamp))...)
	}
}

// Len returns the width n of the set's universe {0..n-1}.
func (b *Bitset) Len() int { return b.n }

// word returns the w-th 64-bit word, reading stale (pre-Reset) words as zero.
func (b *Bitset) word(w int) uint64 {
	if b.stamp[w] != b.epoch {
		return 0
	}
	return b.words[w]
}

// touch revalidates the w-th word for the current epoch and returns it for
// writing.
func (b *Bitset) touch(w int) *uint64 {
	if b.stamp[w] != b.epoch {
		b.stamp[w] = b.epoch
		b.words[w] = 0
	}
	return &b.words[w]
}

// Set adds i to the set. i must be in [0, Len()).
func (b *Bitset) Set(i int) { *b.touch(i >> 6) |= 1 << (uint(i) & 63) }

// Clear removes i from the set. i must be in [0, Len()).
func (b *Bitset) Clear(i int) { *b.touch(i >> 6) &^= 1 << (uint(i) & 63) }

// Test reports whether i is in the set. i must be in [0, Len()).
func (b *Bitset) Test(i int) bool { return b.word(i>>6)&(1<<(uint(i)&63)) != 0 }

// FirstZero returns the smallest element of {0..Len()-1} NOT in the set, or
// Len() when the set is full — the "smallest free color" word-scan at the
// heart of first-fit coloring.
func (b *Bitset) FirstZero() int {
	for w := 0; w*64 < b.n; w++ {
		if x := b.word(w); x != ^uint64(0) {
			if i := w*64 + bits.TrailingZeros64(^x); i < b.n {
				return i
			}
		}
	}
	return b.n
}

// NextSet returns the smallest element ≥ from in the set, or -1 if none.
func (b *Bitset) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= b.n {
		return -1
	}
	w := from >> 6
	if x := b.word(w) >> (uint(from) & 63); x != 0 {
		return from + bits.TrailingZeros64(x)
	}
	for w++; w*64 < b.n; w++ {
		if x := b.word(w); x != 0 {
			return w*64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// Count returns the number of elements in the set (popcount).
func (b *Bitset) Count() int {
	c := 0
	for w := 0; w*64 < b.n; w++ {
		c += bits.OnesCount64(b.word(w))
	}
	return c
}

// AndNot removes every element of other from the set. The two sets may have
// different widths; elements beyond other's width are kept.
func (b *Bitset) AndNot(other *Bitset) {
	lim := (other.n + 63) / 64
	for w := 0; w*64 < b.n && w < lim; w++ {
		if y := other.word(w); y != 0 {
			*b.touch(w) &^= y
		}
	}
}

// SelectSet returns the k-th smallest element of the set (k = 0 is the
// minimum), or -1 when the set has ≤ k elements. This is what lets a bitset
// palette reproduce "pick the k-th remaining color in ascending order"
// exactly, as the randomized algorithms' slice palettes do.
func (b *Bitset) SelectSet(k int) int {
	if k < 0 {
		return -1
	}
	for w := 0; w*64 < b.n; w++ {
		x := b.word(w)
		c := bits.OnesCount64(x)
		if k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			x &= x - 1 // clear lowest set bit
		}
		return w*64 + bits.TrailingZeros64(x)
	}
	return -1
}
