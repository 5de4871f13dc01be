package data

import (
	"math"
	"math/bits"
)

// HashKey and KeyEqual are the engine's key path: every operator that must
// bring equal key tuples together (DISTINCT, key checks, surrogate-key
// lookups, grouping, joins, difference, intersection, the partition
// exchange) hashes a row once and compares tuples column by column, with
// no key string built. Two tuples are one key when they are equally long
// and Value.Compare puts each column pair at 0; the hash gives each
// number the class it has there: a number float64 holds exactly hashes by
// those float bits, -0 as +0 and every NaN as one, and an int float64
// cannot hold hashes as itself under a tag of its own.
//
// The hash has no seed: a key's partition under the exchange, and with it
// every intermediate partition layout, is the same in every run and build.

const (
	hashInit = 0x9e3779b97f4a7c15
	hashMul  = 0xd6e8feb86659fd93
	// One tag per key class, added to the running hash before the payload.
	tagNull   = 0x2545f4914f6cdd1d
	tagNum    = 0x9fb21c651e98df25
	tagWide   = 0x5851f42d4c957f2d // an int float64 cannot hold
	tagString = 0xc2b2ae3d27d4eb4f
	tagBool   = 0x165667b19e3779f9
	tagDate   = 0x27d4eb2f165667c5
)

// nanBits stands for every NaN payload.
var nanBits = math.Float64bits(math.NaN())

// mixWord folds one 64-bit word into the running hash: a 64×64→128-bit
// multiply whose halves are xored, so every input bit reaches every output
// bit in one step.
func mixWord(h, w uint64) uint64 {
	hi, lo := bits.Mul64(h^w, hashMul)
	return hi ^ lo
}

// hashNumber folds the int or float of kind k and payload n into h.
func hashNumber(h uint64, k Kind, n int64) uint64 {
	f := math.Float64frombits(uint64(n))
	if k == KindInt {
		// float64(n) rounds MaxInt64 up to 2⁶³, which int64 cannot hold.
		if f = float64(n); f == 0x1p63 || int64(f) != n {
			return mixWord(h+tagWide, uint64(n))
		}
	}
	switch {
	case f != f:
		return mixWord(h+tagNum, nanBits)
	case f == 0:
		f = 0
	}
	return mixWord(h+tagNum, math.Float64bits(f))
}

// load64 reads s[:8] little-endian; the compiler turns it into one load.
func load64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// hashValue folds v, of kind k, into h.
func hashValue(h uint64, k Kind, v *Value) uint64 {
	switch k {
	case KindNull:
		return mixWord(h, tagNull)
	case KindInt, KindFloat:
		return hashNumber(h, k, v.n)
	case KindString:
		// Whole words, then the 0–7 bytes left as one zero-padded word;
		// the length, folded in first, keeps the padding unambiguous.
		s := v.str()
		h = mixWord(h+tagString, uint64(len(s)))
		for ; len(s) >= 8; s = s[8:] {
			h = mixWord(h, load64(s))
		}
		var w uint64
		for i := 0; i < len(s); i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		return mixWord(h, w)
	case KindBool:
		return mixWord(h+tagBool, uint64(v.n))
	default:
		return mixWord(h+tagDate, uint64(v.n))
	}
}

// HashKey hashes the key tuple r[positions[0]], r[positions[1]], … to 64
// bits without allocating. A nil positions means the whole record; an
// empty non-nil one is the empty tuple. Tuples that KeyEqual share a hash.
func HashKey(r Record, positions []int) uint64 {
	h, n := uint64(hashInit), keyLen(r, positions)
	for k := 0; k < n; k++ {
		v := keyAt(r, positions, k)
		h = hashValue(h, v.kind(), v)
	}
	return mixWord(h, uint64(n))
}

// KeyEqual reports whether the key tuple of a under apos and that of b
// under bpos are the same key: equally long and column by column Equal.
// A nil position list means the whole record.
func KeyEqual(a Record, apos []int, b Record, bpos []int) bool {
	n := keyLen(a, apos)
	if n != keyLen(b, bpos) {
		return false
	}
	for k := 0; k < n; k++ {
		if !keyAt(a, apos, k).Equal(*keyAt(b, bpos, k)) {
			return false
		}
	}
	return true
}

func keyLen(r Record, positions []int) int {
	if positions == nil {
		return len(r)
	}
	return len(positions)
}

func keyAt(r Record, positions []int, k int) *Value {
	if positions != nil {
		k = positions[k]
	}
	return &r[k]
}
