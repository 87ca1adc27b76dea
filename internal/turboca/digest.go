package turboca

import (
	"math"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/spectrum"
)

// Telemetry content digests. Digest hashes everything the planner reads
// from an Input, in a fixed field order, so two inputs with equal digests
// are (up to 64-bit collision) the same planning problem. The fleet layer
// uses this two ways: to derive per-invocation RNG seeds — making every
// plan a pure function of what is being planned — and to elide fast passes
// whose input provably matches a run that already changed nothing
// (service.go's DirtySkip).

// digestBasis is the hash before the first word: FNV-1a's offset basis,
// though any constant would do.
const digestBasis = 14695981039346656037

type digester struct{ h uint64 }

// u64 folds one word in one step: xor it in, then run the SplitMix64
// finalizer, whose every output bit depends on every input bit.
func (d *digester) u64(v uint64) { d.h = sim.Mix64(d.h ^ v) }

func (d *digester) i64(v int64)   { d.u64(uint64(v)) }
func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digester) bool(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

// row folds a sub-channel row as the number-keyed table it stands for:
// how many entries are non-zero, then each one's IEEE channel number and
// value, ascending. Positions never enter the hash — like spectrum.IDs
// they are a property of the build — and a zero entry is an absent one,
// so a nil row, a short row and a row of zeros are the same nothing.
func (d *digester) row(subs []spectrum.Channel, row []float64) {
	row = row[:min(len(row), len(subs))]
	n := 0
	for _, u := range row {
		if u != 0 {
			n++
		}
	}
	d.i64(int64(n))
	for i, u := range row {
		if u != 0 {
			d.i64(int64(subs[i].Number))
			d.f64(u)
		}
	}
}

// Digest returns a content hash of the planning input, one word-mix step
// per field. Call it on sanitized inputs: Sanitize canonicalizes the
// repairs (clamps, defaults) that would otherwise make equal problems hash
// differently. Nothing here depends on how the input is laid out in
// memory — rows and the blocked mask hash as (channel number, value)
// lists — so the words folded are those the number-keyed maps and ID-keyed
// neighbor lists these fields once were (refDigest, digest_test.go).
func (in Input) Digest() uint64 {
	d := &digester{h: digestBasis}
	subs := spectrum.Channels(in.Band, spectrum.W20, true)
	d.i64(int64(in.Band))
	d.bool(in.AllowDFS)
	d.i64(int64(in.MaxWidth))
	d.i64(int64(len(in.APs)))
	for i := range in.APs {
		v := &in.APs[i]
		d.i64(int64(v.ID))
		d.i64(int64(v.Current.Band))
		d.i64(int64(v.Current.Number))
		d.i64(int64(v.Current.Width))
		d.bool(v.Current.DFS)
		d.i64(int64(v.MaxWidth))
		d.bool(v.HasClients)
		d.f64(v.CSAFraction)
		d.f64(v.Load)
		d.f64(v.Utilization)
		d.bool(v.Stale)
		d.bool(v.Pinned)
		for _, s := range v.WidthLoad {
			d.f64(s)
		}
		// A neighbor folds as its view's ID, not as where the view sits; an
		// entry that is no position (Sanitize drops it) folds as itself.
		d.i64(int64(len(v.Neighbors)))
		for _, j := range v.Neighbors {
			if uint(j) < uint(len(in.APs)) {
				j = in.APs[j].ID
			}
			d.i64(int64(j))
		}
		d.row(subs, v.ExternalUtil)
	}
	// Band-wide hostile-RF overlays. Both change what the planner may or
	// would assign, so they must dirty the digest: a quarantine starting
	// or expiring, or trace noise shifting, re-runs an otherwise-skippable
	// fast pass.
	blocked := in.Blocked & (1<<len(subs) - 1)
	d.i64(int64(bits.OnesCount64(blocked)))
	for ; blocked != 0; blocked &= blocked - 1 {
		d.i64(int64(subs[bits.TrailingZeros64(blocked)].Number))
	}
	d.row(subs, in.ChannelNoise)
	return d.h
}

// invocationSeed derives the RNG seed for one band invocation from the
// service seed, the band, the hop schedule, and the input digest — a pure
// function of what is planned, never of how many invocations came before.
// That purity is what makes DirtySkip provable: re-running an invocation
// with the same input is bit-for-bit the same computation, and skipping
// it cannot perturb any other invocation's stream.
func invocationSeed(seed int64, band spectrum.Band, hops []int, digest uint64) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15
	mix := func(v uint64) { z = sim.Mix64(z ^ v) }
	mix(uint64(band) + 1)
	mix(uint64(len(hops)))
	for _, h := range hops {
		mix(uint64(h) + 0x100)
	}
	mix(digest)
	return int64(z)
}
