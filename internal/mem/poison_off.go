//go:build !seusspoison

package mem

// PoisonEnabled reports whether the store poisons freed payload buffers
// and never reuses freed frame numbers (build tag seusspoison).
const PoisonEnabled = false

// recycleNumbers gates frame-number reuse. In the default build freed
// numbers are reused, last in first out, for the allocation-free hot
// path.
const recycleNumbers = true

// poisonBuf is a no-op in the default build.
func poisonBuf([]byte) {}
