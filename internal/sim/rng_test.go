package sim

import (
	"math/rand"
	"testing"
)

var rngSeeds = []int64{0, 1, 42, -7, 0x10557, 1<<62 + 3}

// TestLazyRNGMatchesEagerSource pins lazy seeding: an RNG whose source is
// built on the first draw yields exactly the stream of a source seeded up
// front, through every method.
func TestLazyRNGMatchesEagerSource(t *testing.T) {
	for _, seed := range rngSeeds {
		g := NewRNG(seed)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 400; i++ {
			var got, want float64
			switch i % 8 {
			case 0:
				got, want = g.Float64(), r.Float64()
			case 1:
				got, want = float64(g.Intn(1000)), float64(r.Intn(1000))
			case 2:
				got, want = float64(g.Int63n(1<<40+7)), float64(r.Int63n(1<<40+7))
			case 3:
				got, want = g.NormFloat64(), r.NormFloat64()
			case 4:
				got, want = g.Uniform(-3, 5), -3+8*r.Float64()
			case 5:
				gp, rp := g.Perm(9), r.Perm(9)
				for j := range gp {
					if gp[j] != rp[j] {
						t.Fatalf("seed %d draw %d: Perm %v, want %v", seed, i, gp, rp)
					}
				}
			case 6:
				ga, ra := []int{0, 1, 2, 3, 4, 5}, []int{0, 1, 2, 3, 4, 5}
				g.Shuffle(len(ga), func(a, b int) { ga[a], ga[b] = ga[b], ga[a] })
				r.Shuffle(len(ra), func(a, b int) { ra[a], ra[b] = ra[b], ra[a] })
				for j := range ga {
					if ga[j] != ra[j] {
						t.Fatalf("seed %d draw %d: Shuffle %v, want %v", seed, i, ga, ra)
					}
				}
			case 7:
				label := int64(i)
				child := g.Derive(label)
				mix := uint64(r.Int63()) ^ (uint64(label) * 0x9e3779b97f4a7c15)
				eager := rand.New(rand.NewSource(int64(mix >> 1)))
				got, want = child.Float64(), eager.Float64()
			}
			if got != want {
				t.Fatalf("seed %d draw %d: got %v, want %v", seed, i, got, want)
			}
		}
	}
}

// TestDeriveSeedMatchesDerive pins the seed helper to the child-RNG route it
// replaces, for many roots and labels drawn in sequence, so the scratch
// source is re-seeded many times and the parent stream stays aligned.
func TestDeriveSeedMatchesDerive(t *testing.T) {
	for _, seed := range rngSeeds {
		a, b := NewRNG(seed), NewRNG(seed)
		for label := int64(-50); label < 10050; label += 97 {
			got, want := a.DeriveSeed(label), b.Derive(label).Int63n(1<<62)
			if got != want {
				t.Fatalf("seed %d label %d: DeriveSeed %d, want %d", seed, label, got, want)
			}
			if a.Float64() != b.Float64() {
				t.Fatalf("seed %d label %d: parent streams diverged", seed, label)
			}
		}
	}
}
