package sim

import "math/rand"

// Compact deterministic randomness. The standard library's default
// source (math/rand's lagged-Fibonacci generator) carries a 607-word
// state array — about 4.9 KB per stream. A fleet controller holds
// several long-lived streams per network (engine, scenario, backend,
// channel model), so at 100k networks the default source alone costs
// gigabytes. SplitMix64 (Vigna) is a one-word generator with excellent
// statistical quality — it is the same mixer the per-network seed
// derivation already uses — and implementing rand.Source64 lets it back
// an ordinary *rand.Rand. It also backs the planner's per-round NBO
// streams: re-seeding it is one store, where re-seeding the default
// source refills all 607 words.

// SplitMix64 is the one-word rand.Source64 behind NewRNG. State is the
// stream's whole position: a source rebuilt with the same State draws
// what the original would have drawn next, which is how a restart point
// carries a stream.
type SplitMix64 struct{ State uint64 }

func (s *SplitMix64) Uint64() uint64 {
	s.State += 0x9e3779b97f4a7c15
	return Mix64(s.State)
}

// Mix64 is the SplitMix64 finalizer, shared by this source and by every
// derived seed and fault-decision hash.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *SplitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *SplitMix64) Seed(seed int64) { s.State = uint64(seed) }

// NewRNG returns a deterministic *rand.Rand over a one-word SplitMix64
// source: a drop-in replacement for rand.New(rand.NewSource(seed)) for
// long-lived streams, at a fraction of the footprint. Streams differ
// from the stdlib source's for the same seed — both are equally
// deterministic, so only code pinning exact stdlib sequences cares.
func NewRNG(seed int64) *rand.Rand { return rand.New(&SplitMix64{State: uint64(seed)}) }
