package snapstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"seuss/internal/mem"
	"seuss/internal/snapshot"
	"seuss/internal/uc"
)

func TestManifestAdvertisesDigests(t *testing.T) {
	s, err := Open(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	shared := []byte("identical-content-shared-by-two-keys")
	if err := s.Put("fn/a", "runtime/nodejs", shared); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fn/b", "runtime/nodejs", shared); err != nil {
		t.Fatal(err)
	}
	man := s.Manifest()
	if len(man) != 2 {
		t.Fatalf("manifest has %d layers, want 2", len(man))
	}
	if man[0].Key != "fn/a" || man[1].Key != "fn/b" {
		t.Fatalf("manifest order = %q, %q", man[0].Key, man[1].Key)
	}
	if man[0].Digest == 0 || man[0].Digest != man[1].Digest {
		t.Fatalf("identical content advertises digests %016x, %016x", man[0].Digest, man[1].Digest)
	}
	if !s.HasDigest(man[0].Digest) || s.HasDigest(man[0].Digest+1) {
		t.Fatal("HasDigest does not match the manifest")
	}
	st := s.Stats()
	if st.DiskFiles != 1 || st.DiskBytes != int64(len(shared)) {
		t.Fatalf("disk stats = %d files / %d bytes, want 1 / %d", st.DiskFiles, st.DiskBytes, len(shared))
	}
	if st.Bytes != 2*int64(len(shared)) {
		t.Fatalf("per-entry bytes = %d, want %d", st.Bytes, 2*len(shared))
	}
}

func TestLinkDigestSharesContent(t *testing.T) {
	s, err := Open(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("base-layer-bytes")
	if err := s.Put("runtime/nodejs", "", data); err != nil {
		t.Fatal(err)
	}
	l, ok := s.Layer("runtime/nodejs")
	if !ok {
		t.Fatal("Layer lookup failed")
	}
	if err := s.LinkDigest("alias/base", "", l.Digest); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("alias/base")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("linked Get = %v / %d bytes", err, len(got))
	}
	if st := s.Stats(); st.DiskFiles != 1 {
		t.Fatalf("link created %d files, want 1", st.DiskFiles)
	}
	if err := s.LinkDigest("alias/none", "", l.Digest+1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("link to absent digest: got %v, want ErrNotFound", err)
	}
	// Deleting one name keeps the shared file alive for the other.
	s.Delete("runtime/nodejs")
	if got, err := s.Get("alias/base"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after co-owner delete = %v / %d bytes", err, len(got))
	}
	s.Delete("alias/base")
	if st := s.Stats(); st.DiskFiles != 0 {
		t.Fatalf("orphaned files after last delete: %d", st.DiskFiles)
	}
}

// TestFetchedLayerReExportsByteExact: the byte-identity satellite — a
// layer fetched from a peer store verifies, re-serves the identical
// bytes, and still materializes through the codec into a snapshot that
// re-exports byte-exact.
func TestFetchedLayerReExportsByteExact(t *testing.T) {
	enc := encodeTestSnapshot(t, "fn/hello")
	holder, err := Open(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Put("fn/hello", "", enc); err != nil {
		t.Fatal(err)
	}
	wire, err := holder.Get("fn/hello")
	if err != nil {
		t.Fatal(err)
	}
	l, _ := holder.Layer("fn/hello")

	peer, err := Open(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.PutFetched("fn/hello", "", append([]byte(nil), wire...), l.Digest); err != nil {
		t.Fatal(err)
	}
	got, err := peer.Get("fn/hello")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, enc) {
		t.Fatal("peer-fetched layer is not byte-identical to the original")
	}
	pl, _ := peer.Layer("fn/hello")
	if pl.Digest != l.Digest {
		t.Fatalf("peer digest %016x, holder digest %016x", pl.Digest, l.Digest)
	}

	// Materialize on the peer (attaching the guest payload, as the
	// hydrate path does) and re-export: still byte-exact.
	diff, err := snapshot.ImportBytes(got)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Materialize(diff, mem.NewStore(0))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := uc.DecodePayload(diff.PayloadBytes)
	if err != nil {
		t.Fatal(err)
	}
	snap.SetPayload(payload)
	var buf bytes.Buffer
	if err := snap.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), enc) {
		t.Fatal("materialized snapshot does not re-export byte-exact")
	}
}

// TestPutFetchedCorruptRejected: every verification failure mode —
// damaged bytes, a digest mismatch, a lying key — returns ErrCorrupt
// and stores nothing.
func TestPutFetchedCorruptRejected(t *testing.T) {
	enc := encodeTestSnapshot(t, "fn/hello")
	holder, err := Open(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Put("fn/hello", "", enc); err != nil {
		t.Fatal(err)
	}
	l, _ := holder.Layer("fn/hello")

	peer, err := Open(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), enc...)
	damaged[len(damaged)/2] ^= 0xff
	if err := peer.PutFetched("fn/hello", "", damaged, l.Digest); !errors.Is(err, errCorrupt) {
		t.Fatalf("damaged bytes: got %v, want ErrCorrupt", err)
	}
	if err := peer.PutFetched("fn/hello", "", append([]byte(nil), enc...), l.Digest+1); !errors.Is(err, errCorrupt) {
		t.Fatalf("digest mismatch: got %v, want ErrCorrupt", err)
	}
	if err := peer.PutFetched("fn/other", "", append([]byte(nil), enc...), l.Digest); !errors.Is(err, errCorrupt) {
		t.Fatalf("key mismatch: got %v, want ErrCorrupt", err)
	}
	if peer.Len() != 0 {
		t.Fatalf("rejected fetches left %d entries", peer.Len())
	}
	if st := peer.Stats(); st.CorruptDropped != 3 {
		t.Fatalf("CorruptDropped = %d, want 3", st.CorruptDropped)
	}
}

// TestFabricConcurrentSharedBase: the dependency-cascade satellite —
// concurrent Gets, demote re-Puts, digest links, and capacity-driven
// evictions over one shared base layer must keep byte accounting and
// the stack invariant (a resident diff implies its resident base)
// intact. Run under -race in CI.
func TestFabricConcurrentSharedBase(t *testing.T) {
	base := bytes.Repeat([]byte{'B'}, 64)
	s, err := Open(t.TempDir(), 64+4*16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("runtime/nodejs", "", base); err != nil {
		t.Fatal(err)
	}
	bl, _ := s.Layer("runtime/nodejs")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch i % 4 {
				case 0:
					// Promote path: read the shared base.
					s.Get("runtime/nodejs")
				case 1:
					// Demote path: re-Put unchanged base (metadata-only).
					s.Put("runtime/nodejs", "", base)
				case 2:
					// Fetch path: a diff layer depending on the base;
					// distinct contents force LRU churn at this capacity.
					s.Put(fmt.Sprintf("fn/%d-%d", w, i), "runtime/nodejs",
						[]byte(fmt.Sprintf("diff-%d-%d-payload", w, i)))
				case 3:
					// Dedup path: a second name for the base content.
					s.LinkDigest(fmt.Sprintf("alias/%d-%d", w, i), "", bl.Digest)
				}
			}
		}(w)
	}
	wg.Wait()

	// Byte accounting survived the churn.
	man := s.Manifest()
	var sum int64
	for _, l := range man {
		sum += l.Size
	}
	if got := s.SizeBytes(); got != sum {
		t.Fatalf("SizeBytes = %d, manifest sums to %d", got, sum)
	}
	if got := s.SizeBytes(); got > 64+4*16 {
		t.Fatalf("resident %d bytes exceeds capacity", got)
	}
	// Stack invariant: every resident diff whose base is a tier key has
	// that base resident (eviction cascades, never orphans).
	for _, l := range man {
		if l.Base != "" && !s.Has(l.Base) {
			t.Fatalf("entry %q survived eviction of its base %q", l.Key, l.Base)
		}
	}
	// The store still round-trips after the churn.
	if s.Has("runtime/nodejs") {
		if got, err := s.Get("runtime/nodejs"); err != nil || !bytes.Equal(got, base) {
			t.Fatalf("base after churn: %v / %d bytes", err, len(got))
		}
	}
}
