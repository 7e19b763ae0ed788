package snapstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"seuss/internal/snapshot"
)

// This file is the store's working-set face: each resident layer may
// carry one sidecar file ("<digest16>.ws" beside "<digest16>.snap")
// holding the encoded set of pages a lukewarm restore of that exact
// content touched. The sidecar is keyed by the layer's content digest,
// not its lineage key, so it follows the bytes: demotion of an
// unchanged snapshot re-resolves to the same file, a fabric fetch that
// dedupes against resident content finds the record already in place,
// and eviction of the last lineage sharing the content removes the
// record with it.
//
// Sidecars are advisory. A missing, stale, or corrupt record degrades
// the next restore to on-demand faulting; it is never an error. Open
// GC therefore drops rather than adopts: a .ws whose layer is gone, or
// whose bytes fail the working-set CRC, is deleted.

// wsFile maps a layer's data file name to its sidecar name.
func wsFile(file string) string {
	return strings.TrimSuffix(file, ".snap") + ".ws"
}

// PutWorkingSet attaches an encoded working-set record to the layer
// stored under key. The write is atomic (temp + rename) and replaces
// any previous record for the same content. Records that do not decode
// are refused: the store never holds a sidecar it would GC on reopen.
func (s *Store) PutWorkingSet(key string, data []byte) error {
	pages, err := snapshot.DecodeWorkingSet(data)
	if err != nil {
		return fmt.Errorf("snapstore: working set: %w", err)
	}
	s.mu.Lock()
	e, ok := s.man.Entries[key]
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	return s.writeWorkingSet(wsFile(e.File), data, pages)
}

// GetWorkingSetPages returns the decoded working-set pages attached to
// the layer stored under key, or false when the layer holds no valid
// record. The decoded record is served from the store's in-memory
// cache when the sidecar arrived through this process (Put, fabric
// receive, Open recovery), so the restore hot path pays no file read
// and no decode; a cache miss falls back to reading and decoding the
// sidecar once. The returned slice is shared: callers must not mutate
// it.
func (s *Store) GetWorkingSetPages(key string) ([]uint64, bool) {
	s.mu.Lock()
	e, ok := s.man.Entries[key]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	file := wsFile(e.File)
	if pages, hit := s.wsCache[file]; hit {
		s.mu.Unlock()
		return pages, true
	}
	s.mu.Unlock()
	raw, err := os.ReadFile(filepath.Join(s.dir, file))
	if err != nil {
		return nil, false
	}
	pages, err := snapshot.DecodeWorkingSet(raw)
	if err != nil {
		return nil, false
	}
	s.mu.Lock()
	s.wsCache[file] = pages
	s.mu.Unlock()
	return pages, true
}

// GetWorkingSet returns the raw encoded working-set record attached to
// the layer stored under key, or ErrNotFound when the layer holds no
// record. The caller decodes (and treats decode failure as "no
// record") — the store does not re-verify on the read path.
func (s *Store) GetWorkingSet(key string) ([]byte, error) {
	s.mu.Lock()
	e, ok := s.man.Entries[key]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	data, err := os.ReadFile(filepath.Join(s.dir, wsFile(e.File)))
	if err != nil {
		return nil, ErrNotFound
	}
	return data, nil
}

// WorkingSetForDigest returns the record attached to the resident
// content with the given digest — the fabric's read side, used to ship
// the sidecar alongside a fetched layer.
func (s *Store) WorkingSetForDigest(digest uint64) ([]byte, bool) {
	file := digestFile(digest)
	if !s.HasDigest(digest) {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(s.dir, wsFile(file)))
	if err != nil {
		return nil, false
	}
	return data, true
}

// PutWorkingSetForDigest attaches a record received from a peer to the
// resident content with the given digest. Like PutFetched, the bytes
// are verified before they can ever be served; unlike PutFetched a
// failure is not worth surfacing — the sidecar is advisory — so the
// record is simply not stored.
func (s *Store) PutWorkingSetForDigest(digest uint64, data []byte) error {
	pages, err := snapshot.DecodeWorkingSet(data)
	if err != nil {
		return fmt.Errorf("snapstore: working set: %w", err)
	}
	if !s.HasDigest(digest) {
		return ErrNotFound
	}
	return s.writeWorkingSet(wsFile(digestFile(digest)), data, pages)
}

// writeWorkingSet lands data in file via the store's usual temp+rename
// protocol, so a crash mid-write leaves only a .tmp-* for Open to GC.
// pages is the already-decoded record, cached for GetWorkingSetPages
// once the rename commits.
func (s *Store) writeWorkingSet(file string, data []byte, pages []uint64) error {
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("snapstore: working set: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snapstore: working set: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapstore: working set: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, file)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapstore: working set: %w", err)
	}
	stepped()
	s.mu.Lock()
	s.wsCache[file] = pages
	s.mu.Unlock()
	return nil
}

// recoverWorkingSets is the sidecar half of the Open-time recovery
// pass: every .ws file must name resident layer content and decode
// cleanly, or it is deleted. Runs after entry recovery so adoption and
// corrupt-entry drops have settled. Caller holds mu (Open is
// single-threaded, but recover mutates stats).
func (s *Store) recoverWorkingSets(wsOnDisk []string) {
	for _, name := range wsOnDisk {
		if _, live := s.files[strings.TrimSuffix(name, ".ws")+".snap"]; !live {
			os.Remove(filepath.Join(s.dir, name))
			s.stats.WSDropped++
			continue
		}
		raw, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			continue
		}
		pages, err := snapshot.DecodeWorkingSet(raw)
		if err != nil {
			os.Remove(filepath.Join(s.dir, name))
			s.stats.WSDropped++
			continue
		}
		s.wsCache[name] = pages
	}
}
