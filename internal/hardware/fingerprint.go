package hardware

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Fingerprint returns a content hash of the spec: two specs fingerprint
// equally iff every field the cost model reads is identical. It is what
// a subtree's digest (Tree.Identity) hashes for each run of equal
// boards, so a planner memo keyed by digests can only hit a subproblem
// solved on the same hardware. A degraded spec differs from its pristine
// ancestor in a rate and is renamed too (see Degrade), so the subtrees a
// fault touched digest apart from their pristine versions, while the
// untouched ones keep their digests and stay memo hits.
func (s Spec) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wInt(int64(len(s.Name)))
	h.Write([]byte(s.Name))
	wInt(int64(math.Float64bits(s.FLOPS)))
	wInt(s.HBMBytes)
	wInt(int64(math.Float64bits(s.MemBandwidth)))
	wInt(int64(math.Float64bits(s.NetBandwidth)))
	return h.Sum64()
}

// sameFingerprintInputs reports whether a and b agree bit for bit on
// every field Fingerprint reads, so they fingerprint equally without
// either being hashed. Floats compare by bits, as Fingerprint reads them
// (0 and -0 differ there, NaN equals itself).
func sameFingerprintInputs(a, b *Spec) bool {
	return a.Name == b.Name && a.HBMBytes == b.HBMBytes &&
		math.Float64bits(a.FLOPS) == math.Float64bits(b.FLOPS) &&
		math.Float64bits(a.MemBandwidth) == math.Float64bits(b.MemBandwidth) &&
		math.Float64bits(a.NetBandwidth) == math.Float64bits(b.NetBandwidth)
}
