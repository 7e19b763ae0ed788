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
//	<dir>/manifest.json     compacted index: key → {file, base, size, crc, used}
//	<dir>/manifest.log      changes since: one JSON record per line, each
//	                        setting a key to an entry or tombstoning it
//	<dir>/<hash16>.snap     one encoded diff, named by FNV-64a of bytes
//	<dir>/<hash16>.ws       its working-set sidecar, if any (workingset.go)
//	<dir>/.tmp-*            in-flight writes (GC'd on Open)
//
// A change to the entry set costs one appended record, not a rewrite of
// the index. Open replays the log over manifest.json, stopping at the
// first line that does not parse (a torn tail), then compacts: it
// rewrites manifest.json from memory (temp + rename) and only then
// truncates the log. Compaction also runs on Sync and whenever the log
// holds more than twice as many records as there are entries. A touch
// (an unchanged re-Put, a Get) moves the LRU clock in memory only; the
// next compaction persists it.
//
// Crash safety against kill -9: data files land in a temp file that is
// renamed into place before the record naming them is appended, and a
// file is removed only after the tombstone that drops its last entry.
// An eviction cascade drops dependents before their base. So a crash at
// any instant leaves a stray .tmp-* file (deleted on Open), a complete
// .snap file no record names (adopted on Open by decoding its
// self-describing header), a torn last record, or a record whose file
// is gone (dropped on Open) — never a diff without its base. Replaying
// a record is idempotent, so a crash between a compaction's rename and
// its truncate is harmless. Entries whose bytes fail the codec CRC are
// deleted rather than served. Nothing is fsynced, so none of this holds
// against power loss.
//
// A Store is safe for concurrent use. Gets for the same key are
// single-flight: concurrent shards promoting one lineage share a single
// disk read.
package snapstore

import (
	"bytes"
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

// errNoCapacity is returned by Put when the entry cannot fit inside the
// configured byte capacity (including cap 0 — a tier that accepts
// nothing). Callers fall back to plain destruction.
var errNoCapacity = errors.New("snapstore: over capacity")

// errCorrupt is returned by Get when the stored bytes fail their CRC;
// the damaged entry is dropped from the store.
var errCorrupt = errors.New("snapstore: corrupt entry")

const manifestName = "manifest.json"
const logName = "manifest.log"
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

// logRecord is one line of manifest.log: Key now resolves to Set, or
// to nothing when Set is absent (a tombstone).
type logRecord struct {
	Key string `json:"key"`
	Set *entry `json:"set,omitempty"`
}

// fileRef is one content-addressed data file: how many entries address
// it, and the size and CRC every one of them records.
type fileRef struct {
	refs int
	size int64
	crc  uint32
}

// crashPoint, when set, runs after every file-system step that changes
// what a reopen would see. Tests use it to copy the directory at each
// step a kill -9 could interrupt.
var crashPoint func()

func stepped() {
	if crashPoint != nil {
		crashPoint()
	}
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

	mu    sync.Mutex
	man   manifest
	bytes int64
	// files indexes the data files the entries address, so whether a
	// file is held (dedup, fabric links, removal) is one lookup.
	files     map[string]fileRef
	diskBytes int64
	log       *os.File // manifest.log, append-only; nil until Open has compacted
	logRecs   int      // records appended since the last compaction
	flights   map[string]*flight
	stats     Stats
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
// (and rebuilt from the data files if not) and the log replayed over
// it, orphan .snap files are adopted by decoding their headers, and
// entries that fail their CRC are removed. The result is compacted.
func Open(dir string, capBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	s := &Store{
		dir:     dir,
		cap:     capBytes,
		man:     manifest{Version: 1, Entries: make(map[string]entry)},
		files:   make(map[string]fileRef),
		flights: make(map[string]*flight),
		wsCache: make(map[string][]uint64),
		fds:     make(map[string]*os.File),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	// recover ended with manifest.json holding everything; the log's
	// records are now redundant, so it starts empty.
	log, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	stepped()
	s.log = log
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
	s.replayLog()

	// Drop entries whose data file is gone; index the files the rest
	// address.
	for key, e := range s.man.Entries {
		if _, ok := onDisk[e.File]; !ok {
			delete(s.man.Entries, key)
			continue
		}
		s.holdLocked(e)
	}

	// Adopt orphan .snap files (complete writes whose record was lost).
	// The wire format is self-describing: decode recovers the lineage
	// key and base, and the codec CRC rejects damage. If the key already
	// resolves to another file (an older content version whose
	// replacement rename won but whose record lost the race with the
	// crash), the adopted, newer bytes replace it.
	for file, size := range onDisk {
		if _, held := s.files[file]; held {
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
		s.man.Seq++
		s.setLocked(diff.Header.Name, entry{
			File: file,
			Base: diff.Header.BaseName,
			Size: size,
			CRC:  crc32.ChecksumIEEE(raw),
			Used: s.man.Seq,
		})
	}

	s.evictLocked(0)
	s.recoverWorkingSets(wsOnDisk)
	return s.syncLocked()
}

// replayLog applies manifest.log's records, in order, over the loaded
// manifest. It stops at the first line that does not parse: a torn
// tail, the last append a crash cut short. Replay is idempotent, so a
// log that a compaction already folded into manifest.json (a crash
// between its rename and its truncate) replays to the same entries.
func (s *Store) replayLog() {
	raw, err := os.ReadFile(filepath.Join(s.dir, logName))
	if err != nil {
		return
	}
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		var rec logRecord
		if json.Unmarshal(line, &rec) != nil || rec.Key == "" {
			return
		}
		if rec.Set == nil {
			delete(s.man.Entries, rec.Key)
			continue
		}
		s.man.Entries[rec.Key] = *rec.Set
		s.man.Seq = max(s.man.Seq, rec.Set.Used)
	}
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
		return errNoCapacity
	}

	sum := fnv.New64a()
	sum.Write(data)
	file := digestFile(sum.Sum64())

	if prev, ok := s.man.Entries[key]; ok && prev.File == file {
		// Unchanged content: refresh the LRU clock only.
		s.touchLocked(key, prev)
		s.stats.Puts++
		s.mu.Unlock()
		return nil
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
			return errNoCapacity
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
	stepped()
	s.man.Seq++
	err = s.setLocked(key, entry{
		File: file,
		Base: base,
		Size: size,
		CRC:  crc32.ChecksumIEEE(data),
		Used: s.man.Seq,
	})
	s.stats.Puts++
	// Capacity may still be exceeded if a concurrent Put landed between
	// our reservation and now; restore the invariant.
	s.evictLocked(0)
	return err
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
		data, err, corrupt = nil, errCorrupt, true
	}

	s.mu.Lock()
	delete(s.flights, key)
	if err == nil {
		s.stats.Hits++
		if cur, ok := s.man.Entries[key]; ok && cur.File == e.File {
			s.touchLocked(key, cur)
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
	st.DiskFiles = len(s.files)
	st.DiskBytes = s.diskBytes
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

// Sync compacts the index: manifest.json is rewritten from memory
// (atomic temp + rename), persisting every LRU touch, and the log is
// emptied. Entry changes are logged as they happen; callers use Sync
// before handing the directory to another process, as a drain does.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

// touchLocked moves key's LRU clock. Only memory changes: the next
// compaction persists it. Caller holds mu.
func (s *Store) touchLocked(key string, e entry) {
	s.man.Seq++
	e.Used = s.man.Seq
	s.man.Entries[key] = e
}

// setLocked makes key resolve to e, whose file must already be in
// place: the record is appended after the data it names, and the file
// key addressed before is released only after the record. Caller holds
// mu.
func (s *Store) setLocked(key string, e entry) error {
	prev, had := s.man.Entries[key]
	s.man.Entries[key] = e
	s.holdLocked(e)
	err := s.logLocked(key, &e)
	if had {
		s.releaseLocked(prev)
	}
	return err
}

// dropLocked removes an entry, appending its tombstone before its file
// (if unshared) goes. Caller holds mu.
func (s *Store) dropLocked(key string) {
	e, ok := s.man.Entries[key]
	if !ok {
		return
	}
	delete(s.man.Entries, key)
	s.logLocked(key, nil)
	s.releaseLocked(e)
}

// holdLocked counts one more entry addressing e's file. Caller holds mu.
func (s *Store) holdLocked(e entry) {
	f, ok := s.files[e.File]
	if !ok {
		f = fileRef{size: e.Size, crc: e.CRC}
		s.diskBytes += e.Size
	}
	f.refs++
	s.files[e.File] = f
	s.bytes += e.Size
}

// releaseLocked drops one entry's hold on e's file. Content addressing
// means two lineages with identical bytes share one file, so the file
// is deleted with its last holder — and the working-set sidecar, which
// rides on the content, with it. Caller holds mu.
func (s *Store) releaseLocked(e entry) {
	s.bytes -= e.Size
	file := e.File
	f := s.files[file]
	if f.refs--; f.refs > 0 {
		s.files[file] = f
		return
	}
	delete(s.files, file)
	s.diskBytes -= f.size
	os.Remove(filepath.Join(s.dir, file))
	stepped()
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
// on it as a base — dependents before their base, so a crash partway
// through the cascade never leaves a diff resident without its base.
func (s *Store) evictStackLocked(key string) {
	stack := []string{key}
	in := map[string]bool{key: true}
	for i := 0; i < len(stack); i++ {
		for k, e := range s.man.Entries {
			if e.Base == stack[i] && !in[k] {
				in[k] = true
				stack = append(stack, k)
			}
		}
	}
	// Each key was found after its base, so reverse order drops every
	// dependent first.
	for i := len(stack) - 1; i >= 0; i-- {
		s.dropLocked(stack[i])
		s.stats.Evictions++
	}
}

// logLocked appends one record to manifest.log: key now resolves to *e,
// or to nothing when e is nil. It compacts instead when the append
// fails, so a partial line never precedes later records, and when the
// log has grown past twice the entry count. During Open's recovery
// there is no log yet: Open compacts when recovery ends. Caller holds
// mu.
func (s *Store) logLocked(key string, e *entry) error {
	if s.log == nil {
		return nil
	}
	line, err := json.Marshal(logRecord{Key: key, Set: e})
	if err == nil {
		_, err = s.log.Write(append(line, '\n'))
		stepped()
	}
	s.logRecs++
	if err != nil || s.logRecs > 2*len(s.man.Entries) {
		return s.syncLocked()
	}
	return nil
}

// syncLocked compacts: it writes manifest.json atomically, then
// truncates manifest.log — in that order, so a crash between the two
// leaves records the manifest already holds, which replay reapplies
// harmlessly. Caller holds mu.
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
	stepped()
	if s.log == nil {
		return nil
	}
	if err := s.log.Truncate(0); err != nil {
		return fmt.Errorf("snapstore: manifest log: %w", err)
	}
	stepped()
	s.logRecs = 0
	return nil
}
