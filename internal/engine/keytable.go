package engine

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"etlopt/internal/data"
)

// keyTable groups the rows of one input by key tuple (key classes:
// data.KeyEqual). It is the one index behind every key-sensitive
// operator: rows are addressed by position in the input, and a key's
// group is found by the row's 64-bit data.HashKey and confirmed against
// the row that opened the group. Groups are numbered in the order their
// first rows appear; which slot holds a group depends on the table's seed
// and is never read out.
type keyTable struct {
	keyed
	seed   uint64     // random per table, mixed into every home slot
	slots  []int32    // open-addressed, linearly probed, a power of two above 2× the rows: group+1, 0 = empty
	groups []keyGroup // group → the row that opened it and the latest row to join it
	group  []int32    // row → its group
	next   []int32    // row → the next row of its group, in input order; 0 (never a successor) ends the chain
}

type keyGroup struct{ first, last int32 }

// keyed is an operator input with its key: the positions of the key
// tuple within each row (nil = the whole record) and each row's
// data.HashKey over them, computed once — by the partition exchange, which
// routes on it, or by hashKeys.
type keyed struct {
	rows   data.Rows
	pos    []int
	hashes []uint64
}

func hashKeys(rows data.Rows, pos []int) keyed {
	hashes := make([]uint64, len(rows))
	for i, r := range rows {
		hashes[i] = data.HashKey(r, pos)
	}
	return keyed{rows: rows, pos: pos, hashes: hashes}
}

// newKeyTable indexes an input by key.
func newKeyTable(in keyed) (*keyTable, error) { return newSeededKeyTable(in, rand.Uint64()) }

func newSeededKeyTable(in keyed, seed uint64) (*keyTable, error) {
	rows := in.rows
	if len(rows) > math.MaxInt32 {
		return nil, fmt.Errorf("key table: %d rows exceed the 2^31-1 one input can index", len(rows))
	}
	t := &keyTable{keyed: in, seed: seed, slots: make([]int32, 1<<bits.Len(uint(2*len(rows)))),
		group: make([]int32, len(rows)), next: make([]int32, len(rows))}
	for i, r := range rows {
		s := t.probe(in.hashes[i], r, in.pos)
		if g := t.slots[s] - 1; g >= 0 {
			t.group[i] = g
			t.next[t.groups[g].last] = int32(i)
			t.groups[g].last = int32(i)
			continue
		}
		t.group[i] = int32(len(t.groups))
		t.groups = append(t.groups, keyGroup{first: int32(i), last: int32(i)})
		t.slots[s] = int32(len(t.groups))
	}
	return t, nil
}

// home is the first slot probed for a key whose hash is h: h mixed with
// the seed as data.HashKey mixes a word, so keys whose hashes agree in
// the low bits still spread.
func (t *keyTable) home(h uint64) int {
	hi, lo := bits.Mul64(h^t.seed, 0xd6e8feb86659fd93)
	return int(hi^lo) & (len(t.slots) - 1)
}

// probe returns the slot of the group holding the key of r under pos,
// whose hash is h, or else the empty slot where that group would go.
func (t *keyTable) probe(h uint64, r data.Record, pos []int) int {
	s := t.home(h)
	for g := t.slots[s] - 1; g >= 0; g = t.slots[s] - 1 {
		if first := t.groups[g].first; t.hashes[first] == h && data.KeyEqual(r, pos, t.rows[first], t.pos) {
			break
		}
		s = (s + 1) & (len(t.slots) - 1)
	}
	return s
}

// find returns the group holding the key of r under pos, whose hash is h,
// or -1.
func (t *keyTable) find(h uint64, r data.Record, pos []int) int32 {
	return t.slots[t.probe(h, r, pos)] - 1
}
