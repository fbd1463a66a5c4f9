package fault

import "math"

// compiled is an Injector flattened for the executor's inner loop, built
// once per execution. A Compose is unpacked into its members. LinkLoss
// members keep the hash prefixes their coin shares within a round and
// within a transmission, so a delivery costs two mix64 calls and no
// interface call. Members whose Down is provably false (LinkLoss,
// DeadLink, DropSet) are never asked about Down, and members whose Drop
// is provably false (CrashWindow) are never asked about Drop. Any other
// injector is asked both through the Injector interface. Injectors are
// pure, so asking fewer of them changes no outcome.
type compiled struct {
	mix     []uint64   // mix64(v+1) for every processor and message index
	coins   []lossCoin // LinkLoss members with 0 < P < 1
	dropAll bool       // a LinkLoss member with P >= 1: every delivery is lost
	drops   []Injector // other members whose Drop may report true
	downs   []Injector // members whose Down may report true
}

// lossCoin is one compiled LinkLoss member. LinkLoss.Drop hashes (Seed,
// round, sender, receiver, message) in that order, so the hash state
// after the round and after the sender is shared by every delivery of a
// round and of a transmission.
type lossCoin struct {
	thr   uint64 // a hash is a drop when its top 53 bits are below thr
	seed  uint64
	round uint64 // hash state after the current round
	tx    uint64 // hash state after the current transmission's sender
}

// compile flattens inj for an execution whose processor and message
// indices lie below size. It returns nil for a nil injector.
func compile(inj Injector, size int) *compiled {
	if inj == nil {
		return nil
	}
	c := &compiled{}
	c.add(inj)
	if len(c.coins) > 0 {
		c.mix = make([]uint64, size)
		for v := range c.mix {
			c.mix[v] = mix64(uint64(v) + 1)
		}
	}
	return c
}

func (c *compiled) add(inj Injector) {
	switch f := inj.(type) {
	case Compose:
		for _, m := range f {
			c.add(m)
		}
	case LinkLoss:
		switch {
		case f.P >= 1:
			c.dropAll = true
		case f.P > 0:
			// LinkLoss.Drop compares k / 2^53 < P for a 53-bit integer
			// k. Scaling by 2^53 is exact, so that is k < P·2^53, which
			// for integer k is k < ceil(P·2^53).
			thr := uint64(math.Ceil(f.P * (1 << 53)))
			c.coins = append(c.coins, lossCoin{thr: thr, seed: uint64(f.Seed)})
		} // P <= 0 (or NaN) never drops
	case DropSet, DeadLink:
		c.drops = append(c.drops, f)
	case CrashWindow:
		c.downs = append(c.downs, f)
	default:
		c.drops = append(c.drops, inj)
		c.downs = append(c.downs, inj)
	}
}

// beginRound readies the coins for absolute round t.
func (c *compiled) beginRound(t int) {
	for i := range c.coins {
		k := &c.coins[i]
		k.round = mix64(k.seed ^ mix64(uint64(t)+1))
	}
}

// beginTx readies the coins for a transmission from processor from.
func (c *compiled) beginTx(from int) {
	for i := range c.coins {
		k := &c.coins[i]
		k.tx = mix64(k.round ^ c.mix[from])
	}
}

// drop reports whether the delivery of msg to processor to, in the round
// and transmission the coins were last readied for, is lost in flight.
func (c *compiled) drop(t, tx, from, to, msg int) bool {
	if c.dropAll {
		return true
	}
	for i := range c.coins {
		k := &c.coins[i]
		if mix64(mix64(k.tx^c.mix[to])^c.mix[msg])>>11 < k.thr {
			return true
		}
	}
	for _, d := range c.drops {
		if d.Drop(t, tx, from, to, msg) {
			return true
		}
	}
	return false
}

// down reports whether processor p is crashed during absolute round t.
func (c *compiled) down(t, p int) bool {
	for _, d := range c.downs {
		if d.Down(t, p) {
			return true
		}
	}
	return false
}
