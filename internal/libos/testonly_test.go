package libos

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

// Reset zeroes the accumulators.
func (e *CountingEnv) Reset() { e.CPU = 0 }

// Close tears down the connection.
func (c *Conn) Close() { c.alive = false }

// Files returns the number of ramdisk files.
func (u *Unikernel) Files() int { return len(u.st.Files) }

// FileSize returns a ramdisk file's size, or -1 if absent.
func (u *Unikernel) FileSize(path string) int64 {
	if sz, ok := u.st.Files[path]; ok {
		return sz
	}
	return -1
}

// ReadFile reads a ramdisk file's contents back out of guest memory,
// crossing the hypercall interface the way Rumprun's ramdisk driver
// does. It returns nil for absent paths.
func (u *Unikernel) ReadFile(path string) []byte {
	sz, ok := u.st.Files[path]
	if !ok {
		return nil
	}
	// One block read round trip per 4 KiB sector.
	sectors := int(sz/4096) + 1
	for i := 0; i < sectors; i++ {
		u.host.BlkRead(int64(i), nil)
	}
	out := make([]byte, sz)
	if va, ok2 := u.st.FileAddrs[path]; ok2 {
		u.ReadGuest(va, out)
	}
	return out
}

// ReadGuest reads guest memory.
func (u *Unikernel) ReadGuest(va uint64, buf []byte) error {
	return u.as.Load(va, buf)
}
