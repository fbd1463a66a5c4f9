package repair

import (
	"math"

	"multigossip/internal/schedule"
)

// batch is one repair iteration's planned rounds in flat, pointer-free
// storage: round t's transmissions are txs[end[t-1]:end[t]] (from 0 for
// t = 0), and transmission i's destinations are to[txs[i-1].toEnd:
// txs[i].toEnd] (from 0 for i = 0). A Run plans every iteration into the
// same batch, so once its slices have grown a repair iteration costs no
// allocation for its rounds. It implements schedule.Source, which is how
// the validator and the fault executor read it.
type batch struct {
	n, nmsg int
	end     []int32
	txs     []batchTx
	to      []int
}

// batchTx is one multicast of a batch: message msg from processor from to
// the destinations ending at offset toEnd of batch.to.
type batchTx struct{ msg, from, toEnd int32 }

// maxBatchDests bounds the destinations one batch holds, so the int32
// offsets cannot overflow; the planner ends a batch early rather than
// pass it.
const maxBatchDests = math.MaxInt32

func (b *batch) reset() {
	b.end, b.txs, b.to = b.end[:0], b.txs[:0], b.to[:0]
}

// add appends a multicast of msg from processor from to the open round.
// to must be sorted and non-empty.
func (b *batch) add(msg, from int, to []int) {
	b.to = append(b.to, to...)
	b.txs = append(b.txs, batchTx{msg: int32(msg), from: int32(from), toEnd: int32(len(b.to))})
}

// endRound closes the open round.
func (b *batch) endRound() { b.end = append(b.end, int32(len(b.txs))) }

// Processors implements schedule.Source.
func (b *batch) Processors() int { return b.n }

// Messages implements schedule.Source.
func (b *batch) Messages() int { return b.nmsg }

// Time implements schedule.Source.
func (b *batch) Time() int { return len(b.end) }

// RoundAppend implements schedule.Source. The appended To slices alias the
// batch, capped so an append to one cannot overwrite the next; they stay
// valid until the batch is planned again.
func (b *batch) RoundAppend(t int, dst []schedule.Transmission) []schedule.Transmission {
	if t < 0 || t >= len(b.end) {
		return dst
	}
	lo := int32(0)
	if t > 0 {
		lo = b.end[t-1]
	}
	toLo := int32(0)
	if lo > 0 {
		toLo = b.txs[lo-1].toEnd
	}
	for _, tx := range b.txs[lo:b.end[t]] {
		dst = append(dst, schedule.Transmission{Msg: int(tx.msg), From: int(tx.from), To: b.to[toLo:tx.toEnd:tx.toEnd]})
		toLo = tx.toEnd
	}
	return dst
}
