//go:build seusspoison

package mem

// PoisonEnabled reports whether the store poisons freed payload buffers
// and never reuses freed frame numbers (build tag seusspoison).
const PoisonEnabled = true

// PoisonByte fills every freed payload buffer. A reader holding a
// use-after-free view of a frame's bytes sees 0xDB, not zeros — so
// aliasing bugs show up as loud content corruption in tests instead of
// silent zero reads.
const PoisonByte = 0xDB

// recycleNumbers gates frame-number reuse. Under seusspoison a freed
// number is never handed out again, so a stale copy of it keeps a zero
// reference count forever and the next IncRef/DecRef/Write panics.
const recycleNumbers = false

// poisonBuf fills a freed payload with the poison pattern.
func poisonBuf(b []byte) {
	for i := range b {
		b[i] = PoisonByte
	}
}
