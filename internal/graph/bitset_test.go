package graph

import (
	"math/rand/v2"
	"testing"
)

// refSet is the reference implementation the Bitset is cross-checked
// against: a plain map[int]bool over the same universe.
type refSet struct {
	m map[int]bool
	n int
}

func newRefSet(n int) *refSet     { return &refSet{m: map[int]bool{}, n: n} }
func (r *refSet) Set(i int)       { r.m[i] = true }
func (r *refSet) Clear(i int)     { delete(r.m, i) }
func (r *refSet) Test(i int) bool { return r.m[i] }
func (r *refSet) Count() int      { return len(r.m) }
func (r *refSet) FirstZero() int {
	for i := 0; i < r.n; i++ {
		if !r.m[i] {
			return i
		}
	}
	return r.n
}
func (r *refSet) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	for i := from; i < r.n; i++ {
		if r.m[i] {
			return i
		}
	}
	return -1
}
func (r *refSet) SelectSet(k int) int {
	for i := 0; i < r.n; i++ {
		if r.m[i] {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}
func (r *refSet) AndNot(o *refSet) {
	for i := range r.m {
		if i < o.n && o.m[i] {
			delete(r.m, i)
		}
	}
}

// TestBitsetCrossCheck drives a Bitset and the map reference through the
// same randomized op sequences — across Resets to varying widths, so epoch
// stamping and lazy word revalidation are exercised — and requires every
// query (Test, Count, FirstZero, NextSet, SelectSet) to agree.
func TestBitsetCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	b := NewBitset(0)
	for trial := 0; trial < 200; trial++ {
		// Widths straddle word boundaries: 1..130 covers 1, 2 and 3 words.
		n := 1 + rng.IntN(130)
		b.Reset(n)
		ref := newRefSet(n)
		if got := b.Len(); got != n {
			t.Fatalf("Len() = %d, want %d", got, n)
		}
		for op := 0; op < 300; op++ {
			i := rng.IntN(n)
			switch rng.IntN(3) {
			case 0:
				b.Set(i)
				ref.Set(i)
			case 1:
				b.Clear(i)
				ref.Clear(i)
			case 2:
				if got, want := b.Test(i), ref.Test(i); got != want {
					t.Fatalf("n=%d op=%d: Test(%d) = %v, want %v", n, op, i, got, want)
				}
			}
			if op%16 != 0 {
				continue
			}
			if got, want := b.Count(), ref.Count(); got != want {
				t.Fatalf("n=%d op=%d: Count() = %d, want %d", n, op, got, want)
			}
			if got, want := b.FirstZero(), ref.FirstZero(); got != want {
				t.Fatalf("n=%d op=%d: FirstZero() = %d, want %d", n, op, got, want)
			}
			from := rng.IntN(n + 1)
			if got, want := b.NextSet(from), ref.NextSet(from); got != want {
				t.Fatalf("n=%d op=%d: NextSet(%d) = %d, want %d", n, op, from, got, want)
			}
			k := rng.IntN(n + 1)
			if got, want := b.SelectSet(k), ref.SelectSet(k); got != want {
				t.Fatalf("n=%d op=%d: SelectSet(%d) = %d, want %d", n, op, k, got, want)
			}
		}
	}
}

// TestBitsetAndNot cross-checks AndNot for mismatched widths: elements of
// the receiver beyond the operand's width must survive.
func TestBitsetAndNot(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	for trial := 0; trial < 200; trial++ {
		na, nb := 1+rng.IntN(200), 1+rng.IntN(200)
		a, ra := NewBitset(na), newRefSet(na)
		b, rb := NewBitset(nb), newRefSet(nb)
		for i := 0; i < na; i++ {
			if rng.IntN(2) == 0 {
				a.Set(i)
				ra.Set(i)
			}
		}
		for i := 0; i < nb; i++ {
			if rng.IntN(2) == 0 {
				b.Set(i)
				rb.Set(i)
			}
		}
		a.AndNot(b)
		ra.AndNot(rb)
		for i := 0; i < na; i++ {
			if got, want := a.Test(i), ra.Test(i); got != want {
				t.Fatalf("na=%d nb=%d: after AndNot, Test(%d) = %v, want %v", na, nb, i, got, want)
			}
		}
	}
}

// TestBitsetFullAndEmpty pins the boundary conventions: FirstZero on a full
// set returns Len(), NextSet/SelectSet on an empty set return -1.
func TestBitsetFullAndEmpty(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 130} {
		b := NewBitset(n)
		if got := b.FirstZero(); got != 0 {
			t.Errorf("n=%d empty: FirstZero() = %d, want 0", n, got)
		}
		if got := b.NextSet(0); got != -1 {
			t.Errorf("n=%d empty: NextSet(0) = %d, want -1", n, got)
		}
		if got := b.SelectSet(0); got != -1 {
			t.Errorf("n=%d empty: SelectSet(0) = %d, want -1", n, got)
		}
		for i := 0; i < n; i++ {
			b.Set(i)
		}
		if got := b.FirstZero(); got != n {
			t.Errorf("n=%d full: FirstZero() = %d, want %d", n, got, n)
		}
		if got := b.Count(); got != n {
			t.Errorf("n=%d full: Count() = %d, want %d", n, got, n)
		}
		if got := b.SelectSet(n - 1); got != n-1 {
			t.Errorf("n=%d full: SelectSet(n-1) = %d, want %d", n, got, n-1)
		}
	}
}

// TestBitsetResetReuse checks that a full bitset reset to a larger width
// starts empty — the epoch stamp, not a clear, must guarantee it.
func TestBitsetResetReuse(t *testing.T) {
	b := NewBitset(64)
	for i := 0; i < 64; i++ {
		b.Set(i)
	}
	b.Reset(200)
	if got := b.Count(); got != 0 {
		t.Fatalf("reset bitset not empty: Count() = %d", got)
	}
	if got := b.FirstZero(); got != 0 {
		t.Fatalf("reset bitset: FirstZero() = %d, want 0", got)
	}
}
