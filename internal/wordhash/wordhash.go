// Package wordhash is the planner's 128-bit word-wise content hash: two
// independent lanes, each absorbing every 64-bit word with a
// 64×64→128-bit multiply folded back to 64 bits (hi ^ lo), under distinct
// odd multipliers and distinct absorb operations (xor, add), so a
// collision needs both lanes to collide at once. Sum finishes with two
// Feistel rounds of the same fold, a bijection of the 128-bit state that
// spreads every input word into every output byte.
//
// Hardware subtree digests, the planner's subproblem keys and its search
// fingerprints are all built with it. It hashes in-memory identities only: nothing persists
// its output, so it may change between versions.
package wordhash

import (
	"encoding/binary"
	"math/bits"
)

// Hash is a running hash; the zero value is not ready for use, New is.
type Hash struct{ a, b uint64 }

const (
	m1 = 0xa0761d6478bd642f
	m2 = 0xe7037ed1a0b428db
	m3 = 0x8ebc6af09c88c6e3
	m4 = 0x589965cc75374cc3
)

// New returns a hash in its initial state.
func New() Hash { return Hash{a: m3, b: m4} }

// fold is the multiply-fold mixing step.
func fold(x, m uint64) uint64 {
	hi, lo := bits.Mul64(x, m)
	return hi ^ lo
}

// Word absorbs one 64-bit word.
func (h *Hash) Word(v uint64) {
	h.a = fold(h.a^v, m1)
	h.b = fold(h.b+v, m2)
}

// String absorbs s as its length and then its bytes, eight at a time in
// little-endian words (the last one zero-padded); the length keeps the
// padding unambiguous.
func (h *Hash) String(s string) {
	h.Word(uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h.Word(binary.LittleEndian.Uint64([]byte(s[:8])))
	}
	if len(s) > 0 {
		var tail [8]byte
		copy(tail[:], s)
		h.Word(binary.LittleEndian.Uint64(tail[:]))
	}
}

// Digest absorbs a 128-bit digest as its two little-endian halves.
func (h *Hash) Digest(d *[16]byte) {
	h.Word(binary.LittleEndian.Uint64(d[:8]))
	h.Word(binary.LittleEndian.Uint64(d[8:]))
}

// Sum returns the 128-bit digest of the words absorbed so far.
func (h *Hash) Sum() [16]byte {
	a := h.a ^ fold(h.b, m3)
	b := h.b ^ fold(a, m4)
	var d [16]byte
	binary.LittleEndian.PutUint64(d[:8], a)
	binary.LittleEndian.PutUint64(d[8:], b)
	return d
}
