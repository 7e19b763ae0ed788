// Package guest is the host rule's fixture: a guest package that
// reaches its host through the one interface it may call, and three
// other ways.
package guest

import "censusfix/internal/lib"

// Env is the CPU sink; Now makes it a second way to the host.
type Env interface {
	ChargeCPU(n int)
	Now() int
}

// Hooks is the interpreter's hook struct; the root package builds one.
type Hooks struct{ Out func(s string) }

// Run charges its sink, then asks the host through lib.Host (allowed),
// Env.Now and lib.Clock, an interface declared outside the guest.
func Run(e Env, h lib.Host, c lib.Clock, k Hooks) int {
	e.ChargeCPU(1)
	k.Out("x")
	return h.WallTime() + e.Now() + c.Tick()
}
