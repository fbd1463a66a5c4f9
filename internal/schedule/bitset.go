package schedule

import "math/bits"

// Bitset is a fixed-capacity bitset used for hold sets h_v: bit m is set
// when the processor holds message m. With n processors each holding up to
// n messages the simulator keeps n bitsets of n bits, so the representation
// matters: one machine word covers 64 messages.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an empty bitset with capacity for bits 0..n-1.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// NewBitsets returns n empty bitsets of capacity size each, carved from
// one shared word slab: three allocations however large n is, instead of
// two per bitset. The bitsets are independent, but any one of them keeps
// the whole slab alive.
func NewBitsets(n, size int) []*Bitset {
	w := (size + 63) / 64
	slab := make([]uint64, n*w)
	hdrs := make([]Bitset, n)
	out := make([]*Bitset, n)
	for i := range out {
		hdrs[i] = Bitset{words: slab[i*w : (i+1)*w : (i+1)*w], n: size}
		out[i] = &hdrs[i]
	}
	return out
}

// CloneAll returns independent copies of bs on one slab, as NewBitsets
// lays them out. Every bitset must have the capacity of bs[0].
func CloneAll(bs []*Bitset) []*Bitset {
	size := 0
	if len(bs) > 0 {
		size = bs[0].n
	}
	out := NewBitsets(len(bs), size)
	for i, b := range bs {
		out[i].CopyFrom(b)
	}
	return out
}

// Len returns the capacity.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << uint(i&63) }

// Has reports whether bit i is set.
func (b *Bitset) Has(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Full reports whether every bit 0..n-1 is set.
func (b *Bitset) Full() bool { return b.Count() == b.n }

// Clone returns an independent copy.
func (b *Bitset) Clone() *Bitset {
	return &Bitset{words: append([]uint64(nil), b.words...), n: b.n}
}

// CopyFrom overwrites b with the bits of o, reusing b's storage. Both
// bitsets must have the same capacity.
func (b *Bitset) CopyFrom(o *Bitset) { copy(b.words, o.words) }

// FirstAndNot returns the lowest index set in b and clear in o, or -1 when
// there is none — the first message a processor holding b could supply to a
// processor holding o. Both bitsets must have the same capacity.
func (b *Bitset) FirstAndNot(o *Bitset) int {
	for i, w := range b.words {
		if x := w &^ o.words[i]; x != 0 {
			m := i*64 + bits.TrailingZeros64(x)
			if m < b.n {
				return m
			}
			return -1
		}
	}
	return -1
}

// Or sets every bit of o into b. Both bitsets must have the same capacity.
func (b *Bitset) Or(o *Bitset) {
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// CountAndNot returns the number of indices set in b and clear in o — the
// count of messages a holder of b could still supply to a holder of o.
// Both bitsets must have the same capacity.
func (b *Bitset) CountAndNot(o *Bitset) int {
	c := 0
	for i, w := range b.words {
		c += bits.OnesCount64(w &^ o.words[i])
	}
	return c
}

// AppendClearInBoth appends to dst, ascending, every index clear in both
// b and o, and returns the extended slice. Both bitsets must have the same
// capacity.
func (b *Bitset) AppendClearInBoth(dst []int, o *Bitset) []int {
	for i, w := range b.words {
		for x := ^(w | o.words[i]); x != 0; x &= x - 1 {
			m := i*64 + bits.TrailingZeros64(x)
			if m >= b.n {
				break
			}
			dst = append(dst, m)
		}
	}
	return dst
}

// Missing returns the indices of unset bits, ascending.
func (b *Bitset) Missing() []int { return b.AppendClearInBoth(nil, b) }
