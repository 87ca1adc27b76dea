package rfenv

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/sim"
	"repro/internal/spectrum"
)

// WACA-style spectrum traces (arXiv 2008.11978): per-channel occupancy
// measured by a sub-6 GHz analyzer comes out as an alternating on-off
// renewal process — idle gaps and energy bursts whose durations are
// heavy-tailed. We reproduce that shape with bounded-Pareto on/off
// durations and a per-burst occupancy level, one independent SplitMix64
// stream per (seed, channel) so any channel's trace is deterministic
// regardless of which other channels exist or in which order they are
// sampled.

// TraceOptions shapes the on-off process.
type TraceOptions struct {
	// MeanOn and MeanOff are the mean burst and gap durations.
	MeanOn  sim.Time
	MeanOff sim.Time
	// Alpha is the Pareto tail exponent for both duration draws; must be
	// > 1 for the mean to exist. Smaller is heavier-tailed.
	Alpha float64
	// OccLo and OccHi bound the per-burst occupancy level, drawn
	// uniformly once per burst.
	OccLo, OccHi float64
}

// DefaultTraceOptions matches the qualitative WACA shape: mostly-idle
// channels with minutes-long energy bursts and a heavy tail.
func DefaultTraceOptions() TraceOptions {
	return TraceOptions{
		MeanOn:  2 * sim.Minute,
		MeanOff: 18 * sim.Minute,
		Alpha:   1.6,
		OccLo:   0.15,
		OccHi:   0.85,
	}
}

func (o TraceOptions) withDefaults() TraceOptions {
	d := DefaultTraceOptions()
	if o.MeanOn <= 0 {
		o.MeanOn = d.MeanOn
	}
	if o.MeanOff <= 0 {
		o.MeanOff = d.MeanOff
	}
	if !(o.Alpha > 1) {
		o.Alpha = d.Alpha
	}
	if o.OccHi <= 0 {
		o.OccLo, o.OccHi = d.OccLo, d.OccHi
	}
	if o.OccLo < 0 {
		o.OccLo = 0
	}
	if o.OccHi > 1 {
		o.OccHi = 1
	}
	if o.OccLo > o.OccHi {
		o.OccLo = o.OccHi
	}
	return o
}

// trace is one channel's lazily-extended step sequence: step i covers
// [end[i-1], end[i]) at occupancy occ[i], abutting from t=0.
type trace struct {
	rng *rand.Rand
	end []sim.Time
	occ []float64
	on  bool // whether the next generated step is a burst
}

func (tr *trace) horizon() sim.Time {
	if len(tr.end) == 0 {
		return 0
	}
	return tr.end[len(tr.end)-1]
}

// TraceSet holds one trace per 20 MHz channel. Sampling lazily extends
// the queried channel's steps, so a TraceSet is cheap until used and
// never pays for channels nobody asks about. Not safe for concurrent
// use — it is engine-affine state like the backend that samples it.
type TraceSet struct {
	opt   TraceOptions
	chans []int // sorted channel numbers
	by    map[int]*trace
}

// NewTraceSet builds traces for the given 20 MHz channel numbers. Every
// channel's process is seeded from (seed, channel) alone.
func NewTraceSet(seed int64, chans []int, opt TraceOptions) *TraceSet {
	ts := &TraceSet{
		opt:   opt.withDefaults(),
		chans: append([]int(nil), chans...),
		by:    make(map[int]*trace, len(chans)),
	}
	sort.Ints(ts.chans)
	for _, ch := range ts.chans {
		ts.by[ch] = &trace{rng: sim.NewRNG(traceSeed(seed, ch))}
	}
	return ts
}

// traceSeed mixes (seed, channel) with the same SplitMix64 finalizer the
// rest of the tree uses for derived streams.
func traceSeed(seed int64, ch int) int64 {
	return int64(sim.Mix64(uint64(seed) + 0x9e3779b97f4a7c15*uint64(ch+1)))
}

// Channels returns the covered channel numbers, sorted. Callers must not
// mutate the returned slice.
func (ts *TraceSet) Channels() []int { return ts.chans }

// Occupancy samples channel ch at time t: 0 when idle (or when ch is not
// covered), the burst's level in (0,1] when occupied.
func (ts *TraceSet) Occupancy(ch int, t sim.Time) float64 {
	tr := ts.by[ch]
	if tr == nil || t < 0 {
		return 0
	}
	ts.extend(tr, t)
	i := sort.Search(len(tr.end), func(i int) bool { return tr.end[i] > t })
	return tr.occ[i]
}

// extend generates steps until the trace covers t. Steps are only ever
// appended in time order from the channel's own stream, so samples are
// independent of query order.
func (ts *TraceSet) extend(tr *trace, t sim.Time) {
	for tr.horizon() <= t {
		var dur sim.Time
		occ := 0.0
		if tr.on {
			dur = boundedPareto(tr.rng, ts.opt.MeanOn, ts.opt.Alpha)
			occ = ts.opt.OccLo + tr.rng.Float64()*(ts.opt.OccHi-ts.opt.OccLo)
		} else {
			dur = boundedPareto(tr.rng, ts.opt.MeanOff, ts.opt.Alpha)
		}
		tr.end = append(tr.end, tr.horizon()+dur)
		tr.occ = append(tr.occ, occ)
		tr.on = !tr.on
	}
}

// boundedPareto draws a Pareto(alpha) duration with the given mean,
// capped at 64x the scale so a single draw cannot freeze a channel for
// a simulated month.
func boundedPareto(rng *rand.Rand, mean sim.Time, alpha float64) sim.Time {
	// Scale xm such that the uncapped mean alpha*xm/(alpha-1) equals mean.
	xm := float64(mean) * (alpha - 1) / alpha
	d := xm / math.Pow(1-rng.Float64(), 1/alpha)
	if max := 64 * xm; d > max {
		d = max
	}
	if d < 1 {
		d = 1
	}
	return sim.Time(d)
}

// NoiseMap samples every channel at t and returns the band's occupancy as
// a 5 GHz sub-channel row — entry i is the channel of spectrum mask bit i,
// the shape turboca.Input.ChannelNoise carries — or nil when the whole
// band is quiet. A covered channel that is no US 5 GHz 20 MHz channel has
// no entry. The result is freshly allocated; callers may keep it.
func (ts *TraceSet) NoiseMap(t sim.Time) []float64 {
	var row []float64
	for _, ch := range ts.chans {
		bit := spectrum.Sub20Mask(spectrum.Band5, ch)
		if o := ts.Occupancy(ch, t); o > 0 && bit != 0 {
			if row == nil {
				row = make([]float64, len(spectrum.Channels(spectrum.Band5, spectrum.W20, true)))
			}
			row[bits.TrailingZeros64(bit)] = o
		}
	}
	return row
}

// Step is one recorded-trace step: the channel holds Occ from the
// previous step's End (0 for the first) until End.
type Step struct {
	End sim.Time
	Occ float64
}

// Recording is a materialized trace in WACA's recorded-trace shape: per
// channel, an abutting step sequence from t=0 to the recording horizon.
type Recording struct {
	ByChan map[int][]Step
}

// Record materializes every channel's trace up to horizon. The final
// step of each channel is clamped to end exactly at horizon, so two
// recordings of the same set at different horizons agree on the overlap.
func (ts *TraceSet) Record(horizon sim.Time) *Recording {
	r := &Recording{ByChan: make(map[int][]Step, len(ts.chans))}
	for _, ch := range ts.chans {
		tr := ts.by[ch]
		ts.extend(tr, horizon)
		var steps []Step
		for i, end := range tr.end {
			if end > horizon {
				steps = append(steps, Step{End: horizon, Occ: tr.occ[i]})
				break
			}
			steps = append(steps, Step{End: end, Occ: tr.occ[i]})
		}
		r.ByChan[ch] = steps
	}
	return r
}

// Occupancy samples a recording; 0 beyond its horizon or off-trace.
func (r *Recording) Occupancy(ch int, t sim.Time) float64 {
	steps := r.ByChan[ch]
	if len(steps) == 0 || t < 0 {
		return 0
	}
	i := sort.Search(len(steps), func(i int) bool { return steps[i].End > t })
	if i == len(steps) {
		return 0
	}
	return steps[i].Occ
}

// Marshal renders the recording in the interchange format: one
// "channel end_us occupancy" line per step, channels ascending, steps in
// time order. Occupancy uses shortest round-tripping notation so
// Marshal/ParseRecording is lossless.
func (r *Recording) Marshal() []byte {
	var chans []int
	for ch := range r.ByChan {
		chans = append(chans, ch)
	}
	sort.Ints(chans)
	var buf bytes.Buffer
	buf.WriteString("# rfenv trace v1: chan end_us occupancy\n")
	for _, ch := range chans {
		for _, s := range r.ByChan[ch] {
			buf.WriteString(strconv.Itoa(ch))
			buf.WriteByte(' ')
			buf.WriteString(strconv.FormatInt(int64(s.End), 10))
			buf.WriteByte(' ')
			buf.WriteString(strconv.FormatFloat(s.Occ, 'g', -1, 64))
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// ParseRecording parses Marshal's output (comment lines starting with
// '#' and blank lines are skipped).
func ParseRecording(data []byte) (*Recording, error) {
	r := &Recording{ByChan: make(map[int][]Step)}
	sc := bufio.NewScanner(bytes.NewReader(data))
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		fields := bytes.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("rfenv: line %d: want 3 fields, got %d", line, len(fields))
		}
		ch, err := strconv.Atoi(string(fields[0]))
		if err != nil {
			return nil, fmt.Errorf("rfenv: line %d: channel: %v", line, err)
		}
		end, err := strconv.ParseInt(string(fields[1]), 10, 64)
		if err != nil || end < 0 {
			return nil, fmt.Errorf("rfenv: line %d: bad end %q", line, fields[1])
		}
		occ, err := strconv.ParseFloat(string(fields[2]), 64)
		if err != nil || occ < 0 || occ > 1 || math.IsNaN(occ) {
			return nil, fmt.Errorf("rfenv: line %d: bad occupancy %q", line, fields[2])
		}
		steps := r.ByChan[ch]
		if n := len(steps); n > 0 && sim.Time(end) <= steps[n-1].End {
			return nil, fmt.Errorf("rfenv: line %d: non-increasing step end for chan %d", line, ch)
		}
		r.ByChan[ch] = append(steps, Step{End: sim.Time(end), Occ: occ})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rfenv: %v", err)
	}
	return r, nil
}
