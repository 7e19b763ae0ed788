package sim

import "math/rand"

// RNG is the deterministic random source used by every experiment. The
// paper pre-computes and persists the benchmark's random send order so
// trials are repeatable; we get the same property by seeding one RNG
// per experiment and never consulting any other entropy source.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Intn returns a uniform int in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Jitter returns d scaled by a uniform factor in [1-f, 1+f]; it models
// run-to-run variance around a calibrated mean cost.
func (g *RNG) Jitter(d duration, f float64) duration {
	if f <= 0 {
		return d
	}
	scale := 1 + f*(2*g.r.Float64()-1)
	return duration(float64(d) * scale)
}

// Exp returns an exponentially distributed duration with the given
// mean; it models inter-arrival times for open-loop streams.
func (g *RNG) Exp(mean duration) duration {
	return duration(g.r.ExpFloat64() * float64(mean))
}
