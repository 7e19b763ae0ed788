package interp

import (
	"fmt"
	"time"

	"seuss/internal/costs"
)

// Profile describes one supported interpreter flavor. SEUSS keeps one
// base runtime snapshot per supported interpreter (§4); the prototype
// shipped Rumprun ports of Node.js and Python. In the reproduction
// every flavor executes MiniJS — what distinguishes interpreters for
// the experiments is their runtime *profile*: image size, boot cost,
// and driver script.
type Profile struct {
	// Name identifies the runtime ("nodejs", "python").
	Name string
	// ImageBytes is the resident interpreter image (binary + initial
	// heap) loaded at system initialization.
	ImageBytes int64
	// InitCost is the interpreter boot time at system initialization.
	InitCost time.Duration
	// DriverSource is the runtime's invocation driver script.
	DriverSource string
	// WarmSource is the runtime's anticipatory-optimization dummy
	// script.
	WarmSource string
}

// NodeJS is the profile of the paper's primary runtime; its image
// size reproduces Table 1's 109.6 MB runtime snapshot.
var NodeJS = Profile{
	Name:         "nodejs",
	ImageBytes:   costs.RuntimeImageBytes - int64(6<<20),
	InitCost:     costs.InterpreterInit,
	DriverSource: driverSource,
	WarmSource:   warmSource,
}

// python is the second runtime the prototype ports: a smaller resident
// image and faster interpreter boot, the same driver protocol.
var python = Profile{
	Name:         "python",
	ImageBytes:   int64(38 << 20),
	InitCost:     180 * time.Millisecond,
	DriverSource: driverSource,
	WarmSource:   warmSource,
}

var profiles = map[string]Profile{}

// registerProfile adds (or replaces) a runtime profile.
func registerProfile(p Profile) {
	profiles[p.Name] = p
}

// ProfileByName looks a registered profile up.
func ProfileByName(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("interp: unknown runtime %q", name)
	}
	return p, nil
}

func init() {
	registerProfile(NodeJS)
	registerProfile(python)
}
