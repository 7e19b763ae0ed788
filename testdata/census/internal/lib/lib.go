package lib

import "sort"

// Options is written by the root package; TestOnly only by a test.
type Options struct {
	Set      int
	TestOnly int
}

// Used is the root package's entry point.
func Used(o Options) int {
	names := byLen{"ccc", "a", "bb"}
	sort.Sort(names)
	return o.Set + o.TestOnly + InPackageOnly() + area(square{2}) + len(names[0])
}

// InPackageOnly is exported, but only this package calls it.
func InPackageOnly() int { return 1 }

// NoCaller is exported and nothing calls it.
func NoCaller() {}

// UsedByUser is called only from the user module.
func UsedByUser() int { return 2 }

func onlyTests() int { return 3 }

// shape is an interface in use: its method is called only through it.
type shape interface{ Area() int }

func area(s shape) int { return s.Area() }

type square struct{ side int }

func (s square) Area() int { return s.side * s.side }

// byLen is used only through sort.Interface.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Host is the one interface the guest package may call.
type Host interface{ WallTime() int }

// Clock is an interface the guest package must not call.
type Clock interface{ Tick() int }
