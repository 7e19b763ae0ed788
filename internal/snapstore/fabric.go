package snapstore

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"seuss/internal/snapshot"
)

// This file is the store's fabric face: what one node's tier exposes to
// the cluster so snapshot layers can be located, deduplicated, and
// transferred by content address. File names already are FNV-64a
// digests of the encoded bytes, so the fabric adds no second hash —
// Manifest just parses the addresses back out, and a peer holding the
// same digest holds byte-identical content.

// Layer is one advertised manifest entry: the tier key, its base
// dependency, the FNV-64a digest of the encoded bytes, and their size.
type Layer struct {
	Key    string
	Base   string
	Digest uint64
	Size   int64
}

// layerDigest recovers the content digest from an entry's file name
// ("<hash16>.snap").
func layerDigest(file string) uint64 {
	d, _ := strconv.ParseUint(strings.TrimSuffix(file, ".snap"), 16, 64)
	return d
}

// Manifest returns every resident layer sorted by key — the unit a node
// gossips to the scheduler.
func (s *Store) Manifest() []Layer {
	s.mu.Lock()
	out := make([]Layer, 0, len(s.man.Entries))
	for k, e := range s.man.Entries {
		out = append(out, Layer{Key: k, Base: e.Base, Digest: layerDigest(e.File), Size: e.Size})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Layer returns the advertised layer for one tier key.
func (s *Store) Layer(key string) (Layer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.man.Entries[key]
	if !ok {
		return Layer{}, false
	}
	return Layer{Key: key, Base: e.Base, Digest: layerDigest(e.File), Size: e.Size}, true
}

// HasDigest reports whether any resident entry's content has the given
// digest — the dedup probe a fetch runs before shipping bytes.
func (s *Store) HasDigest(digest uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, held := s.files[digestFile(digest)]
	return held
}

// digestFile names the data file holding content with the given digest.
func digestFile(digest uint64) string { return fmt.Sprintf("%016x.snap", digest) }

// LinkDigest installs key as a new name for content already resident
// under the given digest — the zero-byte-transfer half of a fetch.
// Returns ErrNotFound if no entry holds that digest, or ErrNoCapacity
// if the extra reference cannot fit (each key is charged its full size
// against the capacity, matching Put's accounting for shared files).
func (s *Store) LinkDigest(key, base string, digest uint64) error {
	if key == "" {
		return fmt.Errorf("snapstore: empty key")
	}
	file := digestFile(digest)
	s.mu.Lock()
	defer s.mu.Unlock()
	src, ok := s.files[file]
	if !ok {
		return ErrNotFound
	}
	if prev, ok := s.man.Entries[key]; ok && prev.File == file {
		// Already linked: refresh the LRU clock only.
		s.touchLocked(key, prev)
		return nil
	}
	if s.cap >= 0 {
		prevSize := int64(0)
		if prev, ok := s.man.Entries[key]; ok {
			prevSize = prev.Size
		}
		s.evictLocked(src.size - prevSize)
		if s.bytes-prevSize+src.size > s.cap {
			s.stats.PutRejected++
			return errNoCapacity
		}
		// Eviction may have cascaded away every holder of the source
		// file; linking to deleted bytes would serve ErrNotFound later.
		if _, ok := s.files[file]; !ok {
			return ErrNotFound
		}
	}
	s.man.Seq++
	err := s.setLocked(key, entry{File: file, Base: base, Size: src.size, CRC: src.crc, Used: s.man.Seq})
	s.stats.Puts++
	return err
}

// PutFetched stores a layer received from a peer, verifying it before
// it can ever be served: the bytes must decode through the snapshot
// codec (whose trailer CRC rejects wire damage), the decoded lineage
// name must match the key the peer claimed, and the content digest must
// match the peer's advertisement. Any mismatch returns ErrCorrupt and
// stores nothing — the caller falls back to the holder.
func (s *Store) PutFetched(key, base string, data []byte, digest uint64) error {
	diff, err := snapshot.ImportBytes(data)
	if err != nil {
		s.mu.Lock()
		s.stats.CorruptDropped++
		s.mu.Unlock()
		return fmt.Errorf("%w: fetched layer: %v", errCorrupt, err)
	}
	if diff.Header.Name != key {
		s.mu.Lock()
		s.stats.CorruptDropped++
		s.mu.Unlock()
		return fmt.Errorf("%w: fetched layer decodes as %q, want %q", errCorrupt, diff.Header.Name, key)
	}
	sum := fnv.New64a()
	sum.Write(data)
	if got := sum.Sum64(); got != digest {
		s.mu.Lock()
		s.stats.CorruptDropped++
		s.mu.Unlock()
		return fmt.Errorf("%w: fetched layer digest %016x, want %016x", errCorrupt, got, digest)
	}
	return s.Put(key, base, data)
}
