package snapstore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"seuss/internal/mem"
	"seuss/internal/pagetable"
	"seuss/internal/snapshot"
)

// dirState is a store directory's files by name.
type dirState map[string][]byte

func readDirState(t *testing.T, dir string) dirState {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := dirState{}
	for _, de := range des {
		raw, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = raw
	}
	return out
}

func (d dirState) writeTo(t *testing.T, dir string) {
	t.Helper()
	for name, raw := range d {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// resolution is what a key resolves to: its data file and recorded base.
type resolution struct{ file, base string }

// entrySet is a store's entries as resolutions; an absent key is absent.
type entrySet map[string]resolution

func entriesOf(s *Store) entrySet {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := entrySet{}
	for k, e := range s.man.Entries {
		out[k] = resolution{e.File, e.Base}
	}
	return out
}

// closeStore releases the descriptors an Open holds, so the many stores
// a crash enumeration opens do not pile them up.
func closeStore(s *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.Close()
	for _, fd := range s.fds {
		fd.Close()
	}
}

func contentFile(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return digestFile(h.Sum64())
}

// crashBlobs encodes the snapshots the crash script stores — a root
// "base", diffs on it, a diff on a diff, and a large root — as real
// codec bytes, so a data file that lost its record is adopted by
// decoding its header, as after a real crash.
func crashBlobs(t *testing.T) map[string][]byte {
	t.Helper()
	st := mem.NewStore(0)
	export := func(s *snapshot.Snapshot) []byte {
		var buf bytes.Buffer
		if err := s.Export(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	root := func(name string, pages int) *snapshot.Snapshot {
		space, err := pagetable.New(st)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pages; i++ {
			if err := space.Store(uint64(i)*mem.PageSize, []byte(name)); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := snapshot.Capture(name, nil, space, snapshot.Registers{})
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	layer := func(name string, parent *snapshot.Snapshot, fill byte) *snapshot.Snapshot {
		space, _, err := parent.Deploy()
		if err != nil {
			t.Fatal(err)
		}
		if err := space.Store(uint64(fill)*mem.PageSize, []byte{fill}); err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.Capture(name, parent, space, snapshot.Registers{PC: uint64(fill)})
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	base := root("base", 2)
	mid := layer("mid", base, 3)
	return map[string][]byte{
		"base":  export(base),
		"a1":    export(layer("fn/a", base, 1)),
		"a2":    export(layer("fn/a", base, 2)),
		"b":     export(layer("fn/b", base, 4)),
		"mid":   export(mid),
		"top":   export(layer("top", mid, 5)),
		"large": export(root("fn/c", 4)),
	}
}

// crashOp is one step of the crash script and the entry set it leaves.
type crashOp struct {
	name string
	do   func(s *Store) error
	want func(prev entrySet) entrySet
}

// TestCrashPrefixEnumeration runs a script over every mutation of the
// tier's write path — Puts of a base, of a diff on it and of new
// content, a working set, a fabric link and fetch, a Delete, a Sync
// compaction, and a capacity eviction that cascades through a stack
// (and compacts on the log's size rule) — and copies the directory
// after every file-system step and after every operation: each is a
// place a kill -9 can stop the process. From each operation boundary it
// also derives every byte-truncation of manifest.log's last record,
// down to none of it (the data file renamed, its record never
// appended). Every copy must Open to:
//   - at an operation boundary or a truncation of it, the entry set
//     after that operation or the one before; mid-operation, each key
//     resolving as after the operation or before it (a cascade drops
//     one key at a time)
//   - from Get, exactly the bytes Put under that content, or
//     ErrNotFound for a key it lacks; a working set only as attached
//   - no .tmp-* file
//   - no diff without its base, for every base the script stored
//   - the same entries and bytes from a second Open
func TestCrashPrefixEnumeration(t *testing.T) {
	blobs := crashBlobs(t)
	content := map[string][]byte{} // data file → bytes
	for _, b := range blobs {
		content[contentFile(b)] = b
	}
	ws := encodeWS(t, []uint64{4096, 8192})
	file := func(name string) string { return contentFile(blobs[name]) }
	with := func(kv ...any) func(entrySet) entrySet {
		return func(prev entrySet) entrySet {
			next := maps.Clone(prev)
			for i := 0; i < len(kv); i += 2 {
				if r, ok := kv[i+1].(resolution); ok {
					next[kv[i].(string)] = r
				} else {
					delete(next, kv[i].(string))
				}
			}
			return next
		}
	}
	put := func(key, base, blob string) crashOp {
		return crashOp{
			name: "Put " + key + "=" + blob,
			do:   func(s *Store) error { return s.Put(key, base, blobs[blob]) },
			want: with(key, resolution{file(blob), base}),
		}
	}
	digest := func(blob string) uint64 {
		h := fnv.New64a()
		h.Write(blobs[blob])
		return h.Sum64()
	}
	// The capacity is the script's peak, so only the last Put evicts —
	// the least recently used entry, base, with everything stacked on it.
	capBytes := int64(0)
	for _, b := range []string{"base", "a2", "mid", "top", "top", "b"} {
		capBytes += int64(len(blobs[b]))
	}
	if int64(len(blobs["large"])) <= int64(len(blobs["b"])) || int64(len(blobs["large"])) > capBytes {
		t.Fatal("script sizes do not force exactly one eviction")
	}
	script := []crashOp{
		put("base", "", "base"),
		put("fn/a", "base", "a1"),
		{"PutWorkingSet fn/a", func(s *Store) error { return s.PutWorkingSet("fn/a", ws) }, with()},
		put("fn/a", "base", "a1"), // unchanged: a touch
		put("fn/a", "base", "a2"), // new content
		put("mid", "base", "mid"),
		put("top", "mid", "top"),
		{"LinkDigest fn/t2", func(s *Store) error { return s.LinkDigest("fn/t2", "mid", digest("top")) },
			with("fn/t2", resolution{file("top"), "mid"})},
		{"PutFetched fn/b", func(s *Store) error { return s.PutFetched("fn/b", "base", blobs["b"], digest("b")) },
			with("fn/b", resolution{file("b"), "base"})},
		{"Delete fn/b", func(s *Store) error { s.Delete("fn/b"); return nil }, with("fn/b", nil)},
		{"Sync", func(s *Store) error { return s.Sync() }, with()},
		{"Put fn/c evicting the base stack", func(s *Store) error { return s.Put("fn/c", "", blobs["large"]) },
			func(entrySet) entrySet { return entrySet{"fn/c": {file("large"), ""}} }},
	}
	stored := map[string]bool{}
	for _, key := range []string{"base", "fn/a", "mid", "top", "fn/t2", "fn/b", "fn/c"} {
		stored[key] = true
	}

	dir := t.TempDir()
	s, err := Open(dir, capBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(s)
	var steps []dirState
	crashPoint = func() { steps = append(steps, readDirState(t, dir)) }
	defer func() { crashPoint = nil }()

	type crashState struct {
		label    string
		dir      dirState
		whole    bool // the set must be one state, not a per-key mix
		prev, at entrySet
	}
	var states []crashState
	model := entrySet{}
	for k, op := range script {
		steps = steps[:0]
		if err := op.do(s); err != nil {
			t.Fatalf("op %d %s: %v", k, op.name, err)
		}
		next := op.want(model)
		if got := entriesOf(s); !maps.Equal(got, next) {
			t.Fatalf("op %d %s: store holds %v, script says %v", k, op.name, got, next)
		}
		for i, st := range steps {
			states = append(states, crashState{fmt.Sprintf("op %d %s, step %d", k, op.name, i), st, false, model, next})
		}
		boundary := readDirState(t, dir)
		states = append(states, crashState{fmt.Sprintf("op %d %s, done", k, op.name), boundary, true, model, next})
		if log := boundary[logName]; len(log) > 0 {
			body := log[:len(log)-1] // every record ends in '\n'
			last := bytes.LastIndexByte(body, '\n') + 1
			for cut := last; cut <= len(body); cut++ {
				torn := maps.Clone(boundary)
				torn[logName] = log[:cut]
				states = append(states, crashState{fmt.Sprintf("op %d %s, last record cut to %d of %d bytes",
					k, op.name, cut-last, len(body)-last), torn, true, model, next})
			}
		}
		model = next
	}
	crashPoint = nil
	if s.Len() != 1 || s.Stats().Evictions != 5 {
		t.Fatalf("the eviction took %d entries, leaving %v", s.Stats().Evictions, s.KeysMRU())
	}

	for _, cs := range states {
		dir := t.TempDir()
		cs.dir.writeTo(t, dir)
		got, bytesOf := reopen(t, cs.label, dir, capBytes, stored, content, file("a1"), ws)
		if cs.whole {
			if !maps.Equal(got, cs.at) && !maps.Equal(got, cs.prev) {
				t.Fatalf("%s: reopened to %v; want %v or %v", cs.label, got, cs.at, cs.prev)
			}
		} else {
			for key := range mergeKeys(got, cs.at, cs.prev) {
				r, ok := got[key]
				ra, oka := cs.at[key]
				rp, okp := cs.prev[key]
				if (ok != oka || r != ra) && (ok != okp || r != rp) {
					t.Fatalf("%s: key %q reopened to %v (present %v); want %v or %v", cs.label, key, r, ok, cs.at, cs.prev)
				}
			}
		}
		for key, r := range got {
			if stored[r.base] {
				if _, ok := got[r.base]; !ok {
					t.Fatalf("%s: %q is resident without its base %q", cs.label, key, r.base)
				}
			}
		}
		matches, _ := filepath.Glob(filepath.Join(dir, tmpPrefix+"*"))
		if len(matches) > 0 {
			t.Fatalf("%s: Open left %v", cs.label, matches)
		}
		again, bytesAgain := reopen(t, cs.label+", reopened", dir, capBytes, stored, content, file("a1"), ws)
		if !maps.Equal(again, got) || !maps.EqualFunc(bytesAgain, bytesOf, bytes.Equal) {
			t.Fatalf("%s: a second Open changed %v into %v", cs.label, got, again)
		}
	}
	t.Logf("%d crash states checked", len(states))
}

func mergeKeys(sets ...entrySet) map[string]bool {
	out := map[string]bool{}
	for _, set := range sets {
		for k := range set {
			out[k] = true
		}
	}
	return out
}

// reopen opens dir and checks that every key Gets exactly the bytes of
// the content it resolves to, that a stored key it lacks is
// ErrNotFound, and that only content wsOn carries the working set ws;
// then it closes the store. It returns the entries and the bytes read.
func reopen(t *testing.T, label, dir string, capBytes int64, stored map[string]bool,
	content map[string][]byte, wsOn string, ws []byte) (entrySet, map[string][]byte) {
	t.Helper()
	s, err := Open(dir, capBytes)
	if err != nil {
		t.Fatalf("%s: Open: %v", label, err)
	}
	defer closeStore(s)
	got := entriesOf(s)
	read := map[string][]byte{}
	for key := range stored {
		r, ok := got[key]
		data, err := s.Get(key)
		if !ok {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s: Get of absent %q: %d bytes, %v", label, key, len(data), err)
			}
			continue
		}
		if err != nil || !bytes.Equal(data, content[r.file]) {
			t.Fatalf("%s: Get(%q) = %d bytes, %v; want the %d bytes put as %s", label, key, len(data), err, len(content[r.file]), r.file)
		}
		read[key] = data
		if rec, err := s.GetWorkingSet(key); err == nil && (r.file != wsOn || !bytes.Equal(rec, ws)) {
			t.Fatalf("%s: %q carries a working set it was never given", label, key)
		}
	}
	return got, read
}
