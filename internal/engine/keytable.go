package engine

import (
	"fmt"
	"math"

	"etlopt/internal/data"
)

// keyTable groups the rows of one input by key tuple (key classes:
// data.KeyEqual). It is the one index behind every key-sensitive
// operator: rows are addressed by position in the input, and a key's
// group is found by the row's 64-bit data.HashKey and confirmed against
// the row that opened the group. Groups are numbered in the order their
// first rows appear.
type keyTable struct {
	keyed
	head   map[uint64]int32 // key hash → the latest group opened under it
	clash  map[int32]int32  // group → an earlier group with the same hash; nil until two keys collide on all 64 bits
	groups []keyGroup       // group → the row that opened it and the latest row to join it
	group  []int32          // row → its group
	next   []int32          // row → the next row of its group, in input order; 0 (never a successor) ends the chain
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
func newKeyTable(in keyed) (*keyTable, error) {
	rows, pos, hashes := in.rows, in.pos, in.hashes
	if len(rows) > math.MaxInt32 {
		return nil, fmt.Errorf("key table: %d rows exceed the 2^31-1 one input can index", len(rows))
	}
	t := &keyTable{keyed: in, head: make(map[uint64]int32, len(rows)),
		group: make([]int32, len(rows)), next: make([]int32, len(rows))}
	for i, r := range rows {
		latest, seen := t.head[hashes[i]]
		g, ok := latest, seen
		for ok && !data.KeyEqual(r, pos, rows[t.groups[g].first], pos) {
			g, ok = t.clash[g]
		}
		if ok {
			t.group[i] = g
			t.next[t.groups[g].last] = int32(i)
			t.groups[g].last = int32(i)
			continue
		}
		g = int32(len(t.groups))
		t.group[i] = g
		t.groups = append(t.groups, keyGroup{first: int32(i), last: int32(i)})
		if seen {
			if t.clash == nil {
				t.clash = make(map[int32]int32)
			}
			t.clash[g] = latest
		}
		t.head[hashes[i]] = g
	}
	return t, nil
}

// find returns the group holding the key of r under pos, whose hash is h,
// or -1.
func (t *keyTable) find(h uint64, r data.Record, pos []int) int32 {
	g, ok := t.head[h]
	for ok && !data.KeyEqual(r, pos, t.rows[t.groups[g].first], t.pos) {
		g, ok = t.clash[g]
	}
	if !ok {
		return -1
	}
	return g
}
