// Package idring is a table of values keyed by IDs that only grow: the
// multicast groups a switch forwards and the flows an agent holds.
//
// A table indexed by the raw ID would grow with every ID a run ever
// issued. A Table is a window instead: id sits in slot id mod len (len a
// power of two), tagged with id, and an id that finds its slot held by
// another live id doubles the table. Two live IDs clash only when they
// differ by a multiple of len, so a table of len slots doubles only
// while the live IDs span at least len: its length stays under twice the
// widest span of live IDs it has held (newest minus oldest), and at
// least 16. A freed slot keeps its value for the next id that lands
// there, so a slice in it is reused rather than reallocated.
package idring

import "fmt"

// Table maps live IDs to values of type V. The zero Table is empty and
// ready to use.
type Table[V any] struct {
	slots []slot[V] // length zero or a power of two
}

// slot is one entry; tag is its id plus one, zero when the slot is free.
type slot[V any] struct {
	tag uint32
	val V
}

// minLen is the length of a table's first allocation.
const minLen = 16

// Get returns id's value, or nil when id is not in the table. The
// pointer is good until the next Claim.
//
//polyvet:noalloc runs per multicast hop and per delivered packet
func (t *Table[V]) Get(id int32) *V {
	if id < 0 || len(t.slots) == 0 {
		return nil
	}
	s := &t.slots[uint32(id)&uint32(len(t.slots)-1)]
	if s.tag != uint32(id)+1 {
		return nil
	}
	return &s.val
}

// Claim returns id's value, adding id to the table if it is not there.
// A newly added id's value is what the slot's last holder left in it.
// The pointer is good until the next Claim.
func (t *Table[V]) Claim(id int32) *V {
	if id < 0 {
		panic(fmt.Sprintf("idring: id %d is negative", id))
	}
	for {
		if len(t.slots) > 0 {
			s := &t.slots[uint32(id)&uint32(len(t.slots)-1)]
			if s.tag == 0 {
				s.tag = uint32(id) + 1
			}
			if s.tag == uint32(id)+1 {
				return &s.val
			}
		}
		t.grow()
	}
}

// Free takes id out of the table, if it is there. Its slot keeps the
// value: clear in it what must not outlive id before calling Free.
func (t *Table[V]) Free(id int32) {
	if id < 0 || len(t.slots) == 0 {
		return
	}
	if s := &t.slots[uint32(id)&uint32(len(t.slots)-1)]; s.tag == uint32(id)+1 {
		s.tag = 0
	}
}

// Len returns the number of slots the table holds.
func (t *Table[V]) Len() int { return len(t.slots) }

// grow doubles the table and re-slots its live IDs; the values kept in
// free slots are dropped.
func (t *Table[V]) grow() {
	old := t.slots
	t.slots = make([]slot[V], max(minLen, 2*len(old)))
	mask := uint32(len(t.slots) - 1)
	for _, s := range old {
		if s.tag != 0 {
			t.slots[(s.tag-1)&mask] = s
		}
	}
}
