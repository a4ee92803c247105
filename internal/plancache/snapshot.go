package plancache

import (
	"encoding/json"
	"fmt"
	"io"

	"accpar/internal/obs"
)

// Disk snapshots make the cache survive the process: a sweep, autotune or
// replanning CLI run saves its solved subproblems, and the next invocation
// warm-starts from them. The format is versioned and carries a
// caller-supplied schema tag, so a snapshot written under an older value
// encoding (or an incompatible cost model) is rejected instead of
// poisoning the planner with stale solutions.

// snapshotMagic identifies a plancache snapshot file.
const snapshotMagic = "accpar-plancache"

// snapshotVersion is the container format version. Bump on incompatible
// envelope changes; value-encoding changes are the schema tag's job.
const snapshotVersion = 1

// snapshotFile is the JSON envelope of a snapshot.
type snapshotFile struct {
	Magic   string          `json:"magic"`
	Version int             `json:"version"`
	Schema  string          `json:"schema"`
	Entries []snapshotEntry `json:"entries"`
}

// snapshotEntry is one persisted key/value pair. Keys are raw fingerprint
// bytes, values whatever the codec produced; both ride as JSON-safe bytes
// ([]byte marshals to base64).
type snapshotEntry struct {
	K []byte `json:"k"`
	V []byte `json:"v"`
}

// Save writes a versioned snapshot of every resident entry. encode
// serializes one value; schema tags the encoding so Load can refuse
// incompatible files. Entries are written shard by shard from least to
// most recently used, so a Load replays them in an order that restores
// each shard's recency ranking.
func (c *Cache[V]) Save(w io.Writer, schema string, encode func(V) ([]byte, error)) error {
	file := snapshotFile{Magic: snapshotMagic, Version: snapshotVersion, Schema: schema}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		// Walk LRU → MRU so replay order preserves recency.
		for e := s.lru; e != nil; e = e.prev {
			b, err := encode(e.val)
			if err != nil {
				s.mu.Unlock()
				return fmt.Errorf("plancache: encoding entry: %w", err)
			}
			file.Entries = append(file.Entries, snapshotEntry{K: []byte(e.key), V: b})
		}
		s.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&file); err != nil {
		return fmt.Errorf("plancache: writing snapshot: %w", err)
	}
	return nil
}

// Load replays a snapshot into the cache, decoding each value and
// inserting it subject to the normal LRU bound. It returns the number of
// entries restored. Snapshots with a different magic, container version or
// schema tag are rejected wholesale, and so is a snapshot with any entry
// decode rejects: every entry is decoded before the first is inserted, so
// a load is all-or-nothing.
func (c *Cache[V]) Load(r io.Reader, schema string, decode func([]byte) (V, error)) (int, error) {
	var file snapshotFile
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return 0, fmt.Errorf("plancache: reading snapshot: %w", err)
	}
	if file.Magic != snapshotMagic {
		return 0, fmt.Errorf("plancache: not a plancache snapshot (magic %q)", file.Magic)
	}
	if file.Version != snapshotVersion {
		return 0, fmt.Errorf("plancache: snapshot version %d, want %d", file.Version, snapshotVersion)
	}
	if file.Schema != schema {
		return 0, fmt.Errorf("plancache: snapshot schema %q, want %q", file.Schema, schema)
	}
	vals := make([]V, len(file.Entries))
	for i, e := range file.Entries {
		v, err := decode(e.V)
		if err != nil {
			return 0, fmt.Errorf("plancache: decoding entry %d: %w", i, err)
		}
		vals[i] = v
	}
	for i, e := range file.Entries {
		c.Put(string(e.K), vals[i])
	}
	obs.Log().Info("plancache.warm_start", "entries", len(vals), "schema", schema)
	return len(vals), nil
}
