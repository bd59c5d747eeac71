package sim

import "math/rand"

// RNG wraps math/rand with a tiny convenience surface used across the
// simulator. Every simulated component derives its own RNG from a root seed
// so that runs are reproducible and components are statistically decoupled.
//
// The source is seeded on the first draw, not at construction: a seeded
// math/rand source is about 5 KB and some 1,800 generator steps, and many
// components (a client's retry jitter, say) never draw in a healthy run.
// Seeding later changes no stream.
type RNG struct {
	r    *rand.Rand
	seed int64
	// scratch is the one source DeriveSeed re-seeds for every child seed.
	scratch *rand.Rand
}

// NewRNG returns a generator for seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// src returns the generator, seeding it on first use.
func (g *RNG) src() *rand.Rand {
	if g.r == nil {
		g.seedSource()
	}
	return g.r
}

func (g *RNG) seedSource() { g.r = rand.New(rand.NewSource(g.seed)) }

// childSeed mixes the next parent draw with label into a child's seed.
func (g *RNG) childSeed(label int64) int64 {
	mix := uint64(g.src().Int63()) ^ (uint64(label) * 0x9e3779b97f4a7c15)
	return int64(mix >> 1)
}

// Derive returns a child generator whose seed mixes the parent stream with
// the supplied label, so distinct labels give independent streams.
func (g *RNG) Derive(label int64) *RNG {
	return NewRNG(g.childSeed(label))
}

// DeriveSeed returns Derive(label).Int63n(1<<62) — one seed for a child
// component — without building the child's source: it re-seeds a single
// scratch source this RNG owns, exactly as rand.NewSource seeds a new one.
func (g *RNG) DeriveSeed(label int64) int64 {
	seed := g.childSeed(label)
	if g.scratch == nil {
		g.scratch = rand.New(rand.NewSource(seed))
	} else {
		g.scratch.Seed(seed)
	}
	return g.scratch.Int63n(1 << 62)
}

// Float64 returns a uniform float in [0, 1).
func (g *RNG) Float64() float64 { return g.src().Float64() }

// Intn returns a uniform int in [0, n).
func (g *RNG) Intn(n int) int { return g.src().Intn(n) }

// Int63n returns a uniform int64 in [0, n).
func (g *RNG) Int63n(n int64) int64 { return g.src().Int63n(n) }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.src().Perm(n) }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.src().NormFloat64() }

// Uniform returns a uniform float in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.src().Float64()
}

// Shuffle permutes a slice in place.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.src().Shuffle(n, swap) }
