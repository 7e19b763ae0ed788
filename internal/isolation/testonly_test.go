package isolation

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

import (
	"errors"
	"time"

	"seuss/internal/costs"
	"seuss/internal/sim"
)

// processWarmInvoke is the in-process cost of a cached NOP invocation
// on Linux; the platform models only the container path.
const processWarmInvoke = 2 * time.Millisecond

// Invoke runs one cached (warm/hot) invocation in the instance: the
// platform connects to the in-instance server, passes arguments, and
// the function runs for fnCPU.
func (b *Backend) Invoke(p *sim.Proc, inst *Instance, fnCPU time.Duration) error {
	if inst.dead {
		return errors.New("isolation: invoke on destroyed instance")
	}
	if b.kind == KindContainer && b.bridge != nil {
		if !b.bridge.Connect() {
			p.Sleep(costs.ConnTimeout)
			return ErrConnTimeout
		}
	}
	switch b.kind {
	case KindProcess:
		p.Sleep(processWarmInvoke)
	default:
		p.Sleep(costs.ContainerWarmInvoke)
	}
	if fnCPU > 0 {
		p.Sleep(fnCPU)
	}
	return nil
}

// InFlight returns the number of creations currently in progress.
func (b *Backend) InFlight() int { return b.inflight }

// Footprint returns the instance's idle memory footprint in bytes.
func (i *Instance) Footprint() int64 { return i.foot }

// Available returns free bytes.
func (m *memPool) Available() int64 { return m.budget - m.used }

// Used returns reserved bytes.
func (m *memPool) Used() int64 { return m.used }

// Population returns the number of live instances.
func (b *Backend) Population() int { return b.pop }
