// Package snapstore implements the on-disk snapshot tier: a
// content-addressed, CRC-verified store for encoded snapshot diffs
// (the wire format of internal/snapshot's codec).
//
// The tier turns snapshot eviction into demotion — instead of paying a
// full cold rebuild (~7.5 ms of interpreter replay) the next miss pays
// a disk read plus a graft (the "lukewarm" path) — and makes snapshot
// stacks survive a node restart (the manifest records every lineage, so
// boot can prewarm the hottest ones).
//
// Layout of a store directory:
//
//	<dir>/manifest.json     index: key → {file, base, size, crc, used}
//	<dir>/<hash16>.snap     one encoded diff, named by FNV-64a of bytes
//	<dir>/.tmp-*            in-flight writes (GC'd on Open)
//
// Crash safety: every write lands in a temp file first and is renamed
// into place, data file before manifest, so a kill -9 at any instant
// leaves either (a) a stray .tmp-* file (deleted on next Open), or (b)
// a complete .snap file the manifest does not know about (adopted on
// next Open by decoding its self-describing header). A torn or missing
// manifest is never fatal: the store rebuilds it from the .snap files,
// and entries whose bytes fail the codec CRC are deleted rather than
// served.
//
// A Store is safe for concurrent use. Gets for the same key are
// single-flight: concurrent shards promoting one lineage share a single
// disk read.
package snapstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"seuss/internal/snapshot"
)

// ErrNotFound is returned by Get for keys the tier does not hold.
var ErrNotFound = errors.New("snapstore: not found")

// ErrNoCapacity is returned by Put when the entry cannot fit inside the
// configured byte capacity (including cap 0 — a tier that accepts
// nothing). Callers fall back to plain destruction.
var ErrNoCapacity = errors.New("snapstore: over capacity")

// ErrCorrupt is returned by Get when the stored bytes fail their CRC;
// the damaged entry is dropped from the store.
var ErrCorrupt = errors.New("snapstore: corrupt entry")

const manifestName = "manifest.json"
const tmpPrefix = ".tmp-"

// entry is one manifest record. File names are content addresses
// (FNV-64a of the encoded bytes), so identical contents dedupe and a
// re-Put of an unchanged snapshot is a metadata touch, not a write.
type entry struct {
	File string `json:"file"`
	Base string `json:"base,omitempty"`
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc"`
	Used uint64 `json:"used"` // LRU clock (monotonic sequence, persisted)
}

type manifest struct {
	Version int              `json:"version"`
	Seq     uint64           `json:"seq"`
	Entries map[string]entry `json:"entries"`
}

// Stats counts store activity since Open.
type Stats struct {
	Hits, Misses   int64 // Get outcomes
	Puts           int64 // entries written (or refreshed) by Put
	PutRejected    int64 // Puts refused by the byte capacity
	Evictions      int64 // entries displaced by the LRU
	CorruptDropped int64 // entries deleted after failing CRC
	WSDropped      int64 // working-set sidecars GC'd on Open (orphaned or corrupt)
	Entries        int   // current entry count
	Bytes          int64 // current resident bytes (per entry; shared files counted once per key)
	DiskFiles      int   // unique content-addressed files on disk
	DiskBytes      int64 // bytes actually on disk (each shared file counted once)
}

// Store is the disk tier. All exported methods are safe for concurrent
// use from multiple goroutines (the shards of a pool share one Store).
type Store struct {
	dir string
	cap int64 // <0: unlimited; 0: accepts nothing; >0: LRU bound

	mu      sync.Mutex
	man     manifest
	bytes   int64
	flights map[string]*flight
	stats   Stats
	// wsCache holds decoded working-set records by sidecar file name.
	// The store decodes every sidecar it accepts (Put validation, Open
	// GC), so serving the decoded pages from memory makes the prefetch
	// lookup free on the restore hot path; the file stays the source of
	// truth across restarts. Callers must treat the slices as read-only.
	wsCache map[string][]uint64
	// fds caches open descriptors for data files so repeated lukewarm
	// restores pay a single pread instead of an open/stat/read/close
	// round trip. Data files are immutable once renamed into place
	// (content-addressed), so a cached descriptor never serves stale
	// bytes. Descriptors are opened and closed under mu; the read
	// itself uses ReadAt outside the lock, which is safe on *os.File.
	fds     map[string]*os.File
	fdOrder []string // FIFO eviction order, bounded by maxCachedFDs
}

// maxCachedFDs bounds how many data-file descriptors Get keeps open.
const maxCachedFDs = 64

type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// Open opens (or creates) the store rooted at dir with the given byte
// capacity (capBytes < 0 means unlimited, 0 means the tier accepts
// nothing). Recovery runs before Open returns: stray temp files from
// interrupted writes are deleted, the manifest is loaded if readable
// (and rebuilt from the data files if not), orphan .snap files are
// adopted by decoding their headers, and entries that fail their CRC
// are removed.
func Open(dir string, capBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	s := &Store{
		dir:     dir,
		cap:     capBytes,
		man:     manifest{Version: 1, Entries: make(map[string]entry)},
		flights: make(map[string]*flight),
		wsCache: make(map[string][]uint64),
		fds:     make(map[string]*os.File),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover implements the Open-time crash-recovery pass.
func (s *Store) recover() error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("snapstore: %w", err)
	}
	onDisk := make(map[string]int64) // .snap file → size
	var wsOnDisk []string            // working-set sidecars, GC'd after entries settle
	for _, de := range names {
		name := de.Name()
		switch {
		case strings.HasPrefix(name, tmpPrefix):
			// An interrupted write: the rename never happened, so no
			// entry can reference it. Delete.
			os.Remove(filepath.Join(s.dir, name))
		case strings.HasSuffix(name, ".snap"):
			if info, err := de.Info(); err == nil {
				onDisk[name] = info.Size()
			}
		case strings.HasSuffix(name, ".ws"):
			wsOnDisk = append(wsOnDisk, name)
		}
	}

	// Load the manifest if present and well-formed; a torn/corrupt one
	// is discarded (rename makes this near-impossible, but a manifest
	// from a different store version must not wedge Open).
	if raw, err := os.ReadFile(filepath.Join(s.dir, manifestName)); err == nil {
		var m manifest
		if json.Unmarshal(raw, &m) == nil && m.Version == 1 && m.Entries != nil {
			s.man = m
		}
	}

	// Drop entries whose data file is gone; track which files the
	// manifest accounts for.
	claimed := make(map[string]bool, len(s.man.Entries))
	for key, e := range s.man.Entries {
		if _, ok := onDisk[e.File]; !ok {
			delete(s.man.Entries, key)
			continue
		}
		claimed[e.File] = true
	}

	// Adopt orphan .snap files (complete writes whose manifest update
	// was lost). The wire format is self-describing: decode recovers
	// the lineage key and base, and the codec CRC rejects damage.
	for file, size := range onDisk {
		if claimed[file] {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(s.dir, file))
		if err != nil {
			continue
		}
		diff, err := snapshot.ImportBytes(raw)
		if err != nil {
			// Damaged or foreign bytes: GC rather than serve.
			os.Remove(filepath.Join(s.dir, file))
			s.stats.CorruptDropped++
			continue
		}
		if prev, ok := s.man.Entries[diff.Header.Name]; ok {
			// The key already resolves to another file (an older
			// content version whose replacement rename won but whose
			// manifest write lost the race with the crash). Keep the
			// adopted (newer) bytes, drop the stale file.
			s.removeFileIfUnreferenced(prev.File, diff.Header.Name)
		}
		s.man.Seq++
		s.man.Entries[diff.Header.Name] = entry{
			File: file,
			Base: diff.Header.BaseName,
			Size: size,
			CRC:  crc32.ChecksumIEEE(raw),
			Used: s.man.Seq,
		}
	}

	s.bytes = 0
	for _, e := range s.man.Entries {
		s.bytes += e.Size
	}
	s.stats.Entries = len(s.man.Entries)
	s.stats.Bytes = s.bytes
	s.evictLocked(0)
	s.recoverWorkingSets(wsOnDisk)
	return s.syncLocked()
}

// Put stores the encoded snapshot data under key (the snapshot's
// lineage name, e.g. "fn/acct/hello"), recording base as its
// base-snapshot dependency. The write is atomic (temp file + rename);
// identical content re-Puts are metadata-only. Entries beyond the byte
// capacity are refused with ErrNoCapacity, evicting least-recently-used
// entries first if that makes room.
func (s *Store) Put(key, base string, data []byte) error {
	if key == "" {
		return errors.New("snapstore: empty key")
	}
	size := int64(len(data))
	s.mu.Lock()
	if s.cap >= 0 && size > s.cap {
		s.stats.PutRejected++
		s.mu.Unlock()
		return ErrNoCapacity
	}

	sum := fnv.New64a()
	sum.Write(data)
	file := fmt.Sprintf("%016x.snap", sum.Sum64())

	if prev, ok := s.man.Entries[key]; ok && prev.File == file {
		// Unchanged content: refresh the LRU clock only.
		s.man.Seq++
		prev.Used = s.man.Seq
		s.man.Entries[key] = prev
		s.stats.Puts++
		err := s.syncLocked()
		s.mu.Unlock()
		return err
	}

	// Make room, never evicting the key being replaced mid-Put.
	if s.cap >= 0 {
		prevSize := int64(0)
		if prev, ok := s.man.Entries[key]; ok {
			prevSize = prev.Size
		}
		s.evictLocked(size - prevSize)
		if s.bytes-prevSize+size > s.cap {
			s.stats.PutRejected++
			s.mu.Unlock()
			return ErrNoCapacity
		}
	}
	s.mu.Unlock()

	// Data write outside the lock: temp file in the store directory
	// (same filesystem, so the rename is atomic).
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("snapstore: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snapstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapstore: %w", err)
	}

	// The rename happens under the lock, with the entry that claims the
	// file: between the two, a concurrent eviction of another key with
	// the same content would find the file unreferenced and remove it.
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmpName, filepath.Join(s.dir, file)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapstore: %w", err)
	}
	if prev, ok := s.man.Entries[key]; ok {
		s.bytes -= prev.Size
		// A concurrent Put of the same content may have registered
		// this very file under key already; it is not stale.
		if prev.File != file {
			s.removeFileIfUnreferenced(prev.File, key)
		}
	}
	s.man.Seq++
	s.man.Entries[key] = entry{
		File: file,
		Base: base,
		Size: size,
		CRC:  crc32.ChecksumIEEE(data),
		Used: s.man.Seq,
	}
	s.bytes += size
	s.stats.Puts++
	s.stats.Entries = len(s.man.Entries)
	s.stats.Bytes = s.bytes
	// Capacity may still be exceeded if a concurrent Put landed between
	// our reservation and now; restore the invariant.
	s.evictLocked(0)
	return s.syncLocked()
}

// Get returns the encoded bytes stored under key, verifying them
// against the recorded CRC (a damaged entry is dropped and reported as
// ErrCorrupt). Concurrent Gets for the same key are single-flight: one
// disk read, shared result.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		<-f.done
		return f.data, f.err
	}
	e, ok := s.man.Entries[key]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	fd := s.fds[e.File]
	s.mu.Unlock()

	data, err := s.readFileCached(fd, e)
	corrupt := false
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrNotFound, err)
	} else if crc32.ChecksumIEEE(data) != e.CRC {
		data, err, corrupt = nil, ErrCorrupt, true
	}

	s.mu.Lock()
	delete(s.flights, key)
	if err == nil {
		s.stats.Hits++
		if cur, ok := s.man.Entries[key]; ok && cur.File == e.File {
			s.man.Seq++
			cur.Used = s.man.Seq
			s.man.Entries[key] = cur
		}
	} else {
		s.stats.Misses++
		if corrupt {
			s.stats.CorruptDropped++
			s.dropLocked(key)
		}
	}
	s.mu.Unlock()

	f.data, f.err = data, err
	close(f.done)
	return data, err
}

// Has reports whether key is resident in the tier.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.man.Entries[key]
	return ok
}

// Delete removes key (and its file, if no other entry shares it).
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropLocked(key)
	s.syncLocked()
}

// Len returns the number of entries resident in the tier.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.man.Entries)
}

// SizeBytes returns the tier's resident byte total.
func (s *Store) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.man.Entries)
	st.Bytes = s.bytes
	files := make(map[string]int64, len(s.man.Entries))
	for _, e := range s.man.Entries {
		files[e.File] = e.Size
	}
	st.DiskFiles = len(files)
	for _, sz := range files {
		st.DiskBytes += sz
	}
	return st
}

// KeysMRU returns every key ordered most-recently-used first — the
// boot-time prewarm order (hottest lineages promote first).
func (s *Store) KeysMRU() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.man.Entries))
	for k := range s.man.Entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ei, ej := s.man.Entries[keys[i]], s.man.Entries[keys[j]]
		if ei.Used != ej.Used {
			return ei.Used > ej.Used
		}
		return keys[i] < keys[j]
	})
	return keys
}

// Stack returns key's dependency chain inside the tier: key first, then
// each recorded base that is itself a tier entry. The chain is how a
// whole snapshot stack demotes/promotes as a unit; it ends at the first
// base that is not stored (normally the always-resident runtime image).
func (s *Store) Stack(key string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	seen := make(map[string]bool)
	for key != "" && !seen[key] {
		e, ok := s.man.Entries[key]
		if !ok {
			break
		}
		seen[key] = true
		out = append(out, key)
		key = e.Base
	}
	return out
}

// HasStack reports whether key's full dependency chain — the entry and
// every base under it — is resident. This is the repair-source probe:
// a node can serve as a re-replication source for a lineage only when
// its tier holds the complete stack, not just the top diff.
func (s *Store) HasStack(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool)
	for key != "" && !seen[key] {
		e, ok := s.man.Entries[key]
		if !ok {
			return false
		}
		seen[key] = true
		key = e.Base
	}
	return key == ""
}

// Sync persists the manifest (atomic temp + rename). Put/Delete sync
// implicitly; callers use Sync after out-of-band mutations or before
// handing the directory to another process.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

// dropLocked removes an entry and its file (if unshared). Caller holds mu.
func (s *Store) dropLocked(key string) {
	e, ok := s.man.Entries[key]
	if !ok {
		return
	}
	delete(s.man.Entries, key)
	s.bytes -= e.Size
	s.removeFileIfUnreferenced(e.File, key)
	s.stats.Entries = len(s.man.Entries)
	s.stats.Bytes = s.bytes
}

// removeFileIfUnreferenced deletes file unless another entry (excluding
// exceptKey) still addresses it — content addressing means two lineages
// with identical bytes share one file. The working-set sidecar rides on
// the content, so it goes when the last reference does.
func (s *Store) removeFileIfUnreferenced(file, exceptKey string) {
	for k, e := range s.man.Entries {
		if k != exceptKey && e.File == file {
			return
		}
	}
	os.Remove(filepath.Join(s.dir, file))
	os.Remove(filepath.Join(s.dir, wsFile(file)))
	delete(s.wsCache, wsFile(file))
	if fd, ok := s.fds[file]; ok {
		delete(s.fds, file)
		for i, name := range s.fdOrder {
			if name == file {
				s.fdOrder = append(s.fdOrder[:i], s.fdOrder[i+1:]...)
				break
			}
		}
		fd.Close()
	}
}

// readFileCached reads entry e's data file, preferring a descriptor
// cached by an earlier Get. On a miss it opens the file, reads it, and
// leaves the descriptor cached for the next restore of the same
// content. Any failure on the cached descriptor drops it and retries
// with a fresh open, so a raced eviction degrades to the slow path
// rather than an error.
func (s *Store) readFileCached(fd *os.File, e entry) ([]byte, error) {
	if fd != nil {
		data := make([]byte, e.Size)
		if _, err := fd.ReadAt(data, 0); err == nil {
			return data, nil
		}
		s.dropFD(fd)
	}
	fd, err := os.Open(filepath.Join(s.dir, e.File))
	if err != nil {
		return nil, err
	}
	data := make([]byte, e.Size)
	if _, err := fd.ReadAt(data, 0); err != nil {
		fd.Close()
		return nil, err
	}
	s.cacheFD(e.File, fd)
	return data, nil
}

// cacheFD records fd for name, evicting the oldest descriptor when the
// cache is full. If a concurrent Get already cached one, the newcomer
// closes.
func (s *Store) cacheFD(name string, fd *os.File) {
	s.mu.Lock()
	if _, ok := s.fds[name]; ok {
		s.mu.Unlock()
		fd.Close()
		return
	}
	s.fds[name] = fd
	s.fdOrder = append(s.fdOrder, name)
	var evict *os.File
	if len(s.fdOrder) > maxCachedFDs {
		old := s.fdOrder[0]
		s.fdOrder = append([]string(nil), s.fdOrder[1:]...)
		evict = s.fds[old]
		delete(s.fds, old)
	}
	s.mu.Unlock()
	if evict != nil {
		evict.Close()
	}
}

// dropFD removes fd from the cache (wherever it is keyed) and closes
// it. *os.File guards against use-after-close internally, so a reader
// racing the close sees an error and falls back, never another file's
// bytes.
func (s *Store) dropFD(fd *os.File) {
	s.mu.Lock()
	for i, name := range s.fdOrder {
		if s.fds[name] == fd {
			delete(s.fds, name)
			s.fdOrder = append(s.fdOrder[:i], s.fdOrder[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	fd.Close()
}

// evictLocked displaces least-recently-used entries until the resident
// bytes plus need fit the capacity. Evicting an entry also evicts every
// entry that records it as a base (a stack is a unit: a diff without
// its base can never promote). Caller holds mu.
func (s *Store) evictLocked(need int64) {
	if s.cap < 0 {
		return
	}
	for s.bytes+need > s.cap && len(s.man.Entries) > 0 {
		var lruKey string
		var lru entry
		for k, e := range s.man.Entries {
			if lruKey == "" || e.Used < lru.Used || (e.Used == lru.Used && k < lruKey) {
				lruKey, lru = k, e
			}
		}
		s.evictStackLocked(lruKey)
	}
}

// evictStackLocked removes key and, transitively, every entry depending
// on it as a base.
func (s *Store) evictStackLocked(key string) {
	s.dropLocked(key)
	s.stats.Evictions++
	for k, e := range s.man.Entries {
		if e.Base == key {
			s.evictStackLocked(k)
		}
	}
}

// syncLocked writes the manifest atomically. Caller holds mu.
func (s *Store) syncLocked() error {
	raw, err := json.Marshal(&s.man)
	if err != nil {
		return fmt.Errorf("snapstore: manifest: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"man-*")
	if err != nil {
		return fmt.Errorf("snapstore: manifest: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snapstore: manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapstore: manifest: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, manifestName)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapstore: manifest: %w", err)
	}
	return nil
}
