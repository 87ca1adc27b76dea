package mac

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/phy"
	"repro/internal/sim"
)

// FrameReport describes one completed frame exchange, for instrumentation.
type FrameReport struct {
	At        sim.Time // transmission start
	Src, Dst  StationID
	AC        phy.AccessCategory
	Rate      phy.Rate
	AggSize   int     // MPDUs in the A-MPDU
	Delivered int     // MPDUs acknowledged by the block ACK
	AirtimeUs float64 // full exchange airtime including BA
	Collision bool
}

// MediumStats aggregates channel-level counters.
type MediumStats struct {
	BusyUs       float64 // airtime consumed by frames + interference
	Frames       int64
	Collisions   int64 // collision events (>= 2 winners)
	InterfererUs float64
}

// Medium is one collision domain on one channel: every attached station
// hears every other (the paper's single-room testbed), so carrier sense is
// the medium's one busyUntil.
type Medium struct {
	engine   *sim.Engine
	stations []*Station

	defaultSNR float64 // of any pair without a SetSNR

	busyUntil         sim.Time
	contentionPending bool

	stats MediumStats

	// contendFn is contend bound once, so a round's scheduling allocates
	// nothing.
	contendFn func(*sim.Engine)

	// txLines holds one line per distinct TxDelay (see Station.txLine).
	txLines []*sim.Line[*MPDU]

	// Scratch of one contention round, truncated at its start: nothing in
	// them outlives the round (transmit copies its contender, collide builds
	// its own attempts). failed is completeFrame's, read by retry only.
	cs, winners []contender
	failed      []*MPDU

	// OnFrame, if set, receives a report for every frame exchange.
	OnFrame func(FrameReport)
	// OnTransmit, if set, receives the concrete MPDU list of every
	// (non-collided) frame exchange at completion. Nothing else exposes
	// that list; TestPERMemoOnMixedAggregates reads it to count the
	// frames that mixed MPDU lengths.
	OnTransmit func(FrameReport, []*MPDU)
}

// NewMedium creates an empty collision domain. defaultSNR is used for any
// link without an explicit SetSNR.
func NewMedium(engine *sim.Engine, defaultSNR float64) *Medium {
	md := &Medium{
		engine:     engine,
		defaultSNR: defaultSNR,
	}
	md.contendFn = md.contend
	return md
}

// Engine returns the underlying simulation engine.
func (md *Medium) Engine() *sim.Engine { return md.engine }

// Stats returns a snapshot of medium counters.
func (md *Medium) Stats() MediumStats { return md.stats }

// AddStation attaches a new station and returns it.
func (md *Medium) AddStation(cfg StationConfig) *Station {
	if cfg.NSS <= 0 {
		cfg.NSS = 1
	}
	st := &Station{
		ID:     StationID(len(md.stations)),
		cfg:    cfg,
		medium: md,
	}
	for i := range st.queues {
		st.queues[i] = new(acQueue)
	}
	for ac := range st.backoffs {
		st.backoffs[ac] = backoffState{cw: phy.AccessCategory(ac).EDCA().CWMin, counter: -1}
	}
	if cfg.TxDelay > 0 {
		st.txLine = md.txLine(cfg.TxDelay)
	}
	md.stations = append(md.stations, st)
	return st
}

// txLine returns the line that holds frames for delay before they join
// their station's queue, making it on first use. One line per delay rather
// than per station: a ring keeps its peak length, and one shared ring peaks
// no higher than per-station rings summed.
func (md *Medium) txLine(delay sim.Time) *sim.Line[*MPDU] {
	for _, l := range md.txLines {
		if l.Delay() == delay {
			return l
		}
	}
	l := sim.NewLine(md.engine, delay, md.afterTxDelay)
	md.txLines = append(md.txLines, l)
	return l
}

// afterTxDelay queues a frame whose host-stack wait is over and kicks
// contention.
func (md *Medium) afterTxDelay(m *MPDU) {
	md.stations[m.Src].queues[m.AC].enqueue(m)
	md.kickContention()
}

// Station returns the station with the given ID.
func (md *Medium) Station(id StationID) *Station { return md.stations[id] }

// Stations returns all attached stations.
func (md *Medium) Stations() []*Station { return md.stations }

// pairRow returns the one row that holds the symmetric state of a and b —
// the higher-numbered station's row for the lower-numbered — making it if
// no one has yet.
func (md *Medium) pairRow(a, b StationID) *peerRow {
	return md.stations[max(a, b)].peer(min(a, b))
}

// pairRowIfAny is pairRow for readers: nil, meaning every default, when
// the table was never grown that far.
func (md *Medium) pairRowIfAny(a, b StationID) *peerRow {
	rows, lo := md.stations[max(a, b)].peers, min(a, b)
	if int(lo) >= len(rows) {
		return nil
	}
	return &rows[lo]
}

// SetSNR sets the symmetric link SNR between two stations in dB.
func (md *Medium) SetSNR(a, b StationID, snrDB float64) {
	row := md.pairRow(a, b)
	row.snr, row.hasSNR = snrDB, true
}

// SNR returns the link SNR between two stations.
func (md *Medium) SNR(a, b StationID) float64 {
	if row := md.pairRowIfAny(a, b); row != nil && row.hasSNR {
		return row.snr
	}
	return md.defaultSNR
}

// Utilization returns lifetime busy airtime as a fraction of elapsed time.
func (md *Medium) Utilization() float64 {
	now := md.engine.Now()
	if now == 0 {
		return 0
	}
	return md.stats.BusyUs / (float64(now) / float64(sim.Microsecond))
}

// Seize occupies the medium for burst, modeling a non-CSMA interferer or a
// co-channel transmission from outside the network. If the medium is
// already busy the seizure starts when it frees.
func (md *Medium) Seize(burst sim.Time) {
	start := md.engine.Now()
	if md.busyUntil > start {
		start = md.busyUntil
	}
	md.busyUntil = start + burst
	md.stats.BusyUs += float64(burst)
	md.stats.InterfererUs += float64(burst)
	md.kickContention()
}

// AddInterferer schedules a duty-cycled interferer: every period it seizes
// the medium for period*dutyCycle. Returns a stop function.
func (md *Medium) AddInterferer(period sim.Time, dutyCycle float64) (stop func()) {
	burst := sim.Time(float64(period) * dutyCycle)
	if burst <= 0 {
		return func() {}
	}
	return md.engine.Ticker(period, func(e *sim.Engine) {
		md.Seize(burst)
	})
}

// kickContention arranges for a contention round now, unless one is
// already scheduled. Carrier sense is resolved inside contend, which
// reschedules itself for when the medium frees.
func (md *Medium) kickContention() {
	if md.contentionPending {
		return
	}
	md.contentionPending = true
	md.engine.Schedule(md.engine.Now(), md.contendFn)
}

type contender struct {
	st *Station
	ac phy.AccessCategory
	// accessDelayUs is AIFS + backoff counter in slots, the station's bid
	// for this round.
	accessDelayUs float64
}

// contend resolves one channel-access round: every station-AC pair with
// queued traffic bids AIFS + backoff once the medium is free. A contender
// proceeds unless another station bids strictly lower; each run of equal
// bids among those that proceed transmits (a run of one) or collides.
// Losers freeze their decremented counters (802.11 backoff semantics),
// which preserves short-term fairness.
//
// The rule looks at other stations only, so several ACs of one station can
// all proceed and put overlapping frames on the air. 802.11e resolves such
// an internal collision by giving the TXOP to the higher-priority AC and
// backing the others off as on a collision; this model does not (ROADMAP
// item 12(a)).
func (md *Medium) contend(e *sim.Engine) {
	md.contentionPending = false
	now := md.engine.Now()
	if md.busyUntil > now {
		for _, st := range md.stations {
			if st.hasTraffic() {
				md.contentionPending = true
				md.engine.Schedule(md.busyUntil, md.contendFn)
				break
			}
		}
		return // otherwise idle; the next Enqueue kicks us again
	}

	cs := md.cs[:0]
	for _, st := range md.stations {
		for ac := range st.queues {
			if st.queues[ac].count == 0 {
				continue
			}
			bs := &st.backoffs[ac]
			if bs.counter < 0 {
				bs.counter = md.engine.Rand().Intn(bs.cw + 1)
			}
			p := phy.AccessCategory(ac).EDCA()
			cs = append(cs, contender{
				st:            st,
				ac:            phy.AccessCategory(ac),
				accessDelayUs: p.AIFSus() + float64(bs.counter)*phy.SlotUs,
			})
		}
	}
	md.cs = cs
	if len(cs) == 0 {
		return // idle; next Enqueue kicks us again
	}

	proceeds := func(c contender) bool {
		for _, o := range cs {
			if o.st != c.st && o.accessDelayUs < c.accessDelayUs {
				return false
			}
		}
		return true
	}

	winners := md.winners[:0]
	minDelay := math.Inf(1)
	for _, c := range cs {
		if proceeds(c) {
			winners = append(winners, c)
			if c.accessDelayUs < minDelay {
				minDelay = c.accessDelayUs
			}
		}
	}
	md.winners = winners
	// Losers freeze: decrement by the slots that elapsed after their AIFS
	// before someone seized the air.
	for _, c := range cs {
		if proceeds(c) {
			continue
		}
		bs := &c.st.backoffs[c.ac]
		elapsed := int((minDelay - c.ac.EDCA().AIFSus()) / phy.SlotUs)
		if elapsed > 0 {
			bs.counter -= elapsed
			if bs.counter < 0 {
				bs.counter = 0
			}
		}
	}

	// Sorting by bid makes equal bids adjacent; the order inside a run,
	// which collide's attempts follow, is pdqsort's (DESIGN.md §3.9).
	slices.SortFunc(winners, func(a, b contender) int {
		return cmp.Compare(a.accessDelayUs, b.accessDelayUs)
	})
	for i := 0; i < len(winners); {
		j := i + 1
		for j < len(winners) && winners[j].accessDelayUs == winners[i].accessDelayUs {
			j++
		}
		start := now + usToTime(winners[i].accessDelayUs)
		if j-i == 1 {
			md.transmit(winners[i], start)
		} else {
			md.collide(winners[i:j], start)
		}
		i = j
	}
}

// usToTime converts float microseconds to sim.Time, rounding up.
func usToTime(us float64) sim.Time { return sim.Time(math.Ceil(us)) }

// buildFrame pops an A-MPDU for the contender's next destination.
func (md *Medium) buildFrame(c contender) (dst StationID, rate phy.Rate, mpdus []*MPDU, ok bool) {
	q := c.st.queues[c.ac]
	dst, ok = q.nextDst()
	if !ok {
		return 0, phy.Rate{}, nil, false
	}
	rc := c.st.rateFor(dst)
	rate = rc.Select()
	headLen := (*q.byDst[dst].At(0)).Dgram.WireLen()
	maxAgg := phy.MaxAggregateForRate(rate, headLen)
	if rc.Probing() && maxAgg > MaxProbeAggregate {
		maxAgg = MaxProbeAggregate
	}
	mpdus = q.popFor(dst, maxAgg)
	// Assign per-TID sequence numbers at first transmission attempt;
	// retried MPDUs keep theirs.
	next := &c.st.peer(dst).txSeq[c.ac]
	for _, m := range mpdus {
		if !m.tidSeqSet {
			m.tidSeq = *next
			*next++
			m.tidSeqSet = true
		}
	}
	return dst, rate, mpdus, len(mpdus) > 0
}

// frameAirtimeUs computes the exchange airtime for a concrete MPDU list.
func frameAirtimeUs(rate phy.Rate, mpdus []*MPDU) float64 {
	bits := 0.0
	for _, m := range mpdus {
		per := m.Dgram.WireLen() + phy.MACHeaderLen
		if len(mpdus) > 1 {
			per += phy.MPDUDelimiter
		}
		bits += float64(per) * 8
	}
	return phy.VHTPreambleUs + bits/rate.Mbps()
}

// transmit performs a successful (collision-free) frame exchange starting
// at start: airtime, per-MPDU PER draws, block ACK, callbacks, backoff
// reset, rate-controller update.
func (md *Medium) transmit(c contender, start sim.Time) {
	dst, rate, mpdus, ok := md.buildFrame(c)
	if !ok {
		md.kickContention()
		return
	}
	airUs := frameAirtimeUs(rate, mpdus) + phy.BlockAckAirtimeUs()
	end := start + usToTime(airUs)
	if end > md.busyUntil {
		md.busyUntil = end
	}
	md.stats.BusyUs += airUs
	md.stats.Frames++

	st := c.st
	st.stats.TxFrames++
	st.stats.TxMPDUs += int64(len(mpdus))
	st.stats.AirtimeUs += airUs
	if len(mpdus) <= phy.MaxAMPDUSubframes {
		st.stats.AggHistogram[len(mpdus)]++
	}

	snr := md.SNR(st.ID, dst)
	md.engine.Schedule(end, func(e *sim.Engine) {
		md.completeFrame(c, dst, rate, mpdus, snr, start, airUs)
	})
}

func (md *Medium) completeFrame(c contender, dst StationID, rate phy.Rate, mpdus []*MPDU, snr float64, start sim.Time, airUs float64) {
	st := c.st
	now := md.engine.Now()
	rx := md.stations[dst]

	// rate and snr are fixed for the frame, so PER moves only with an
	// MPDU's length: recompute it only when the length changes. The same
	// function on the same arguments gives the same bits.
	delivered := 0
	failed := md.failed[:0]
	perLen, perLast := -1, 0.0
	for _, m := range mpdus {
		if n := m.Dgram.WireLen(); n != perLen {
			perLen, perLast = n, rate.PER(snr, n)
		}
		if md.engine.Rand().Float64() >= perLast {
			delivered++
			st.stats.Delivered++
			rx.reorderDeliver(m, now)
			if st.OnDelivered != nil {
				st.OnDelivered(m, true, now)
			}
		} else {
			failed = append(failed, m)
		}
	}

	md.failed = failed
	st.retry(failed, rx, c.ac, now)
	clear(failed) // hold no MPDU past its frame

	st.rateFor(dst).Update(rate, len(mpdus), delivered)

	if bs := &st.backoffs[c.ac]; delivered > 0 {
		bs.cw = c.ac.EDCA().CWMin
		bs.counter = -1
	} else {
		bs.fail(c.ac)
	}

	report := FrameReport{
		At: start, Src: st.ID, Dst: dst, AC: c.ac, Rate: rate,
		AggSize: len(mpdus), Delivered: delivered, AirtimeUs: airUs,
	}
	if md.OnFrame != nil {
		md.OnFrame(report)
	}
	if md.OnTransmit != nil {
		md.OnTransmit(report, mpdus)
	}
	md.kickContention()
}

// retry charges one failed attempt to each of failed (in transmit order):
// an MPDU over its retry limit is dropped — the receiver's reorder window
// advances past it so held frames behind it are released (BAR semantics),
// then the transmitter's OnDelivered(false) and OnDrop fire — and the rest
// go back on the head of the queue in their original order (a front insert
// reverses, so iterate from the back).
func (st *Station) retry(failed []*MPDU, rx *Station, ac phy.AccessCategory, now sim.Time) {
	limit := perACRetryLimit(ac)
	for i := len(failed) - 1; i >= 0; i-- {
		m := failed[i]
		m.Retries++
		if m.Retries > limit {
			st.stats.Dropped++
			rx.reorderAdvance(st.ID, ac, m.tidSeq, now)
			if st.OnDelivered != nil {
				st.OnDelivered(m, false, now)
			}
			if st.OnDrop != nil {
				st.OnDrop(m, now)
			}
			continue
		}
		st.queues[ac].requeueFront(m)
	}
}

// collide handles >= 2 winners transmitting simultaneously: every frame is
// lost, the medium is busy for the longest of them plus an ACK timeout.
func (md *Medium) collide(winners []contender, start sim.Time) {
	type txAttempt struct {
		c     contender
		dst   StationID
		rate  phy.Rate
		mpdus []*MPDU
		airUs float64
	}
	var attempts []txAttempt
	maxAir := 0.0
	for _, c := range winners {
		dst, rate, mpdus, ok := md.buildFrame(c)
		if !ok {
			continue
		}
		air := frameAirtimeUs(rate, mpdus)
		if air > maxAir {
			maxAir = air
		}
		attempts = append(attempts, txAttempt{c, dst, rate, mpdus, air})
	}
	if len(attempts) == 0 {
		md.kickContention()
		return
	}
	if len(attempts) == 1 {
		// Everyone else's queue turned out to be empty; transmit normally.
		// Re-queue and go through transmit for uniform handling.
		a := attempts[0]
		for i := len(a.mpdus) - 1; i >= 0; i-- {
			a.c.st.queues[a.c.ac].requeueFront(a.mpdus[i])
		}
		md.transmit(a.c, start)
		return
	}

	totalUs := maxAir + phy.SlotUs + phy.AckTimeoutUs
	end := start + usToTime(totalUs)
	if end > md.busyUntil {
		md.busyUntil = end
	}
	md.stats.BusyUs += totalUs
	md.stats.Collisions++

	md.engine.Schedule(end, func(e *sim.Engine) {
		now := md.engine.Now()
		for _, a := range attempts {
			st := a.c.st
			st.stats.TxFrames++
			st.stats.TxMPDUs += int64(len(a.mpdus))
			st.stats.Collisions++
			st.stats.AirtimeUs += a.airUs

			st.retry(a.mpdus, md.stations[a.dst], a.c.ac, now)
			st.rateFor(a.dst).Update(a.rate, len(a.mpdus), 0)
			st.backoffs[a.c.ac].fail(a.c.ac)

			if md.OnFrame != nil {
				md.OnFrame(FrameReport{
					At: start, Src: st.ID, Dst: a.dst, AC: a.c.ac, Rate: a.rate,
					AggSize: len(a.mpdus), Delivered: 0, AirtimeUs: a.airUs, Collision: true,
				})
			}
		}
		md.kickContention()
	})
}
