// Package spectrum models the unlicensed spectrum available to 802.11
// devices in the United States: the 2.4 GHz ISM band and the 5 GHz U-NII
// bands, including channel bonding (40/80/160 MHz), Dynamic Frequency
// Selection (DFS) restrictions, and channel overlap computation.
//
// The 5 GHz channel inventory matches Section 4.1.1 of the paper:
// twenty-five 20 MHz, twelve 40 MHz, six 80 MHz and two 160 MHz channels,
// of which only nine/four/two/zero are usable without DFS certification;
// plus three non-overlapping channels at 2.4 GHz.
package spectrum

import "fmt"

// Band identifies a frequency band.
type Band int

const (
	// Band2G4 is the 2.4 GHz ISM band.
	Band2G4 Band = iota
	// Band5 is the 5 GHz U-NII band.
	Band5
)

func (b Band) String() string {
	switch b {
	case Band2G4:
		return "2.4GHz"
	case Band5:
		return "5GHz"
	default:
		return fmt.Sprintf("Band(%d)", int(b))
	}
}

// Width is a channel width in MHz.
type Width int

// Channel widths defined by 802.11n/ac.
const (
	W20  Width = 20
	W40  Width = 40
	W80  Width = 80
	W160 Width = 160
)

// Widths lists all widths narrow-to-wide.
var Widths = []Width{W20, W40, W80, W160}

func (w Width) String() string { return fmt.Sprintf("%dMHz", int(w)) }

// Slot returns w's index in Widths, or -1 when w is not a defined 802.11
// channel width.
func (w Width) Slot() int {
	switch w {
	case W20:
		return 0
	case W40:
		return 1
	case W80:
		return 2
	case W160:
		return 3
	}
	return -1
}

// Valid reports whether w is a defined 802.11 channel width.
func (w Width) Valid() bool { return w.Slot() >= 0 }

// Channel is one assignable (center, width) tuple.
type Channel struct {
	Band   Band
	Number int   // IEEE channel number of the center frequency
	Width  Width // occupied bandwidth
	DFS    bool  // any covered 20 MHz sub-channel requires DFS
}

func (c Channel) String() string {
	dfs := ""
	if c.DFS {
		dfs = "/DFS"
	}
	return fmt.Sprintf("ch%d@%s%s", c.Number, c.Width, dfs)
}

// CenterMHz returns the channel's center frequency in MHz.
func (c Channel) CenterMHz() float64 {
	if c.Band == Band2G4 {
		return 2407 + 5*float64(c.Number)
	}
	return 5000 + 5*float64(c.Number)
}

// LowMHz returns the lower edge of the occupied bandwidth.
func (c Channel) LowMHz() float64 { return c.CenterMHz() - float64(c.Width)/2 }

// HighMHz returns the upper edge of the occupied bandwidth.
func (c Channel) HighMHz() float64 { return c.CenterMHz() + float64(c.Width)/2 }

// Overlaps reports whether the occupied bandwidths of a and b intersect.
// An 80 MHz transmission is corrupted by interference on any of its four
// 20 MHz sub-channels, so any spectral intersection counts (§4.1.1).
// This is the frequency-arithmetic definition and holds for any channel,
// on the table or not; between two table channels of one band it equals
// ID.Mask intersection.
func (c Channel) Overlaps(o Channel) bool {
	if c.Band != o.Band {
		return false
	}
	return c.LowMHz() < o.HighMHz() && o.LowMHz() < c.HighMHz()
}

// sub20Count is the number of 20 MHz sub-channels c covers.
func (c Channel) sub20Count() int {
	if c.Band == Band2G4 || c.Width == W20 {
		return 1
	}
	return int(c.Width) / 20
}

// sub20At is the IEEE number of c's i-th covered 20 MHz sub-channel:
// 20 MHz neighbours at 5 GHz are 4 channel numbers apart.
func (c Channel) sub20At(i int) int { return c.Number - 2*(c.sub20Count()-1) + 4*i }

// Sub20Numbers returns the IEEE numbers of the 20 MHz sub-channels covered
// by c, lowest first. For a 20 MHz channel this is just {c.Number}. For a
// US channel the result is a read-only view of the package table; only a
// channel the table does not know gets a fresh slice.
func (c Channel) Sub20Numbers() []int {
	if id, ok := IDOf(c); ok {
		return id.Sub20Numbers()
	}
	out := make([]int, c.sub20Count())
	for i := range out {
		out[i] = c.sub20At(i)
	}
	return out
}

// Primary20 returns the default primary 20 MHz sub-channel (the lowest).
func (c Channel) Primary20() int { return c.sub20At(0) }

// IsDFS20 reports whether 5 GHz 20 MHz channel number n requires DFS in
// the US (U-NII-2A, ch 52-64, and U-NII-2C, ch 100-144).
func IsDFS20(n int) bool {
	return n%4 == 0 && (n >= 52 && n <= 64 || n >= 100 && n <= 144)
}

// NonOverlapping24 is the classic 1/6/11 plan.
var NonOverlapping24 = []int{1, 6, 11}

// inventory is the US channel list, by band and width slot. The 2.4 GHz
// band only supports 20 MHz here: 40 MHz at 2.4 GHz is catastrophic in
// enterprise deployments and Meraki APs do not use it.
var inventory = [numBands][numSlots][]int{
	Band2G4: {NonOverlapping24},
	Band5: {
		{36, 40, 44, 48, 52, 56, 60, 64, 100, 104, 108, 112, 116, 120, 124, 128, 132, 136, 140, 144, 149, 153, 157, 161, 165},
		{38, 46, 54, 62, 102, 110, 118, 126, 134, 142, 151, 159},
		{42, 58, 106, 122, 138, 155},
		{50, 114},
	},
}

// Table dimensions. numChannels and numNoDFS5 restate the inventory's
// length (§4.1.1: 25/12/6/2 at 5 GHz, 9/4/2/0 of them without DFS) so the
// table can be fixed-size arrays; init checks them against it.
const (
	numBands    = 2
	numSlots    = 4
	maxNumber   = 165 // highest IEEE number on any band (5 GHz ch165)
	maxSub20    = 8   // a 160 MHz channel covers eight 20 MHz sub-channels
	numChannels = 3 + (25 + 12 + 6 + 2)
	numNoDFS5   = 9 + 4 + 2
	// maxOverlap is the most IDs one channel overlaps, itself included: a
	// 160 MHz channel holds eight 20s, four 40s, two 80s and itself.
	maxOverlap = 2*maxSub20 - 1
)

// MaxBandChannels is the most channels one band has (5 GHz: 25 + 12 + 6 +
// 2): BandIDs never spans more, so a per-call table indexed by a band's IDs
// can be a fixed-size array.
const MaxBandChannels = 25 + 12 + 6 + 2

// ID is a channel's dense index in the package table: 0..numChannels-1,
// band-major, then width narrow-to-wide, then ascending number — so one
// band's channels are the contiguous range BandIDs reports, in AllChannels
// order. IDs are a property of the build, not a wire format: nothing
// persisted or digested may contain one.
type ID int16

// None is the ID of no channel.
const None ID = -1

// tbl is every US channel and every relation between channels, built once
// at package init and never written again. Everything this package
// returns from it — []Channel from Channels/AllChannels, []int from
// Sub20Numbers — is a view with cap == len into these arrays: callers
// must not write through it, and an append always copies.
var tbl struct {
	chans [numChannels]Channel
	// first[b][s] is the ID of band b's first channel at width slot s;
	// first[b][numSlots] ends the band.
	first [numBands][numSlots + 1]ID
	// noDFS5 is the 5 GHz list without DFS channels, in the same order,
	// with its own slot offsets (no other band has DFS channels).
	noDFS5      [numNoDFS5]Channel
	firstNoDFS5 [numSlots + 1]ID

	byNumber [numBands][numSlots][maxNumber + 1]ID
	sub20    [numChannels][maxSub20]int
	// mask has bit i set when the channel covers its band's i-th 20 MHz
	// channel; two channels of one band overlap iff their masks intersect.
	mask [numChannels]uint64
	// ladder[c][s] is c seen at width slot s: below c's own width the
	// sub-channel anchored at c's primary, at it c itself, above it the
	// bond containing c — or the widest one that exists, where the US
	// plan stops short of slot s (ch165).
	ladder [numChannels][numSlots]ID
	// firstOverlap[a][c] is the narrowest width slot s, up to a's own, at
	// which ladder[a][s] overlaps c, or a's own slot + 1 when none does.
	firstOverlap [numChannels][numChannels]uint8
	// overlap[c][:numOverlap[c]] lists the IDs of c's band whose masks
	// intersect c's, ascending.
	overlap    [numChannels][maxOverlap]ID
	numOverlap [numChannels]uint8
}

func init() {
	for b := range tbl.byNumber {
		for s := range tbl.byNumber[b] {
			for n := range tbl.byNumber[b][s] {
				tbl.byNumber[b][s][n] = None
			}
		}
	}
	id, noDFS := ID(0), ID(0)
	for b := Band(0); b < numBands; b++ {
		for s, numbers := range inventory[b] {
			tbl.first[b][s] = id
			if b == Band5 {
				tbl.firstNoDFS5[s] = noDFS
			}
			for _, n := range numbers {
				c := Channel{Band: b, Number: n, Width: Widths[s]}
				tbl.byNumber[b][s][n] = id
				for i := 0; i < c.sub20Count(); i++ {
					sub := c.sub20At(i)
					tbl.sub20[id][i] = sub
					tbl.mask[id] |= 1 << (tbl.byNumber[b][0][sub] - tbl.first[b][0])
					c.DFS = c.DFS || b == Band5 && IsDFS20(sub)
				}
				tbl.chans[id] = c
				if b == Band5 && !c.DFS {
					tbl.noDFS5[noDFS] = c
					noDFS++
				}
				id++
			}
		}
		tbl.first[b][numSlots] = id
	}
	tbl.firstNoDFS5[numSlots] = noDFS
	widest := ID(0)
	for b := range tbl.first {
		widest = max(widest, tbl.first[b][numSlots]-tbl.first[b][0])
	}
	if id != numChannels || noDFS != numNoDFS5 || widest != MaxBandChannels {
		panic("spectrum: inventory does not match the table's declared size")
	}

	for id := ID(0); id < numChannels; id++ {
		c := tbl.chans[id]
		own := c.Width.Slot()
		for s := 0; s < numSlots; s++ {
			// At or above c's width: the channel holding all of c. Below
			// it: the one holding c's primary, its lowest sub-channel.
			want := tbl.mask[id]
			if s < own {
				want &= -want
			}
			at := None
			for w := tbl.first[c.Band][s]; w < tbl.first[c.Band][s+1]; w++ {
				if tbl.mask[w]&want == want {
					at = w
					break
				}
			}
			switch {
			case at != None:
			case s > own:
				at = tbl.ladder[id][s-1]
			default:
				panic(fmt.Sprintf("spectrum: %v has no %v sub-channel at its primary", c, Widths[s]))
			}
			tbl.ladder[id][s] = at
		}
	}

	for a := range tbl.firstOverlap {
		own := tbl.chans[a].Width.Slot()
		lo, hi := BandIDs(tbl.chans[a].Band)
		for c := range tbl.firstOverlap[a] {
			f := 0
			for f <= own && (ID(c) < lo || ID(c) >= hi || tbl.mask[tbl.ladder[a][f]]&tbl.mask[c] == 0) {
				f++
			}
			tbl.firstOverlap[a][c] = uint8(f)
		}
		for c := lo; c < hi; c++ {
			if tbl.mask[a]&tbl.mask[c] != 0 {
				tbl.overlap[a][tbl.numOverlap[a]] = c
				tbl.numOverlap[a]++
			}
		}
	}
}

// IDOf returns the table ID of the US channel with c's band, number and
// width (c.DFS is not consulted), or ok=false when there is none.
func IDOf(c Channel) (ID, bool) {
	s := c.Width.Slot()
	if s < 0 || c.Band < 0 || c.Band >= numBands || c.Number < 0 || c.Number > maxNumber {
		return None, false
	}
	id := tbl.byNumber[c.Band][s][c.Number]
	return id, id != None
}

// BandIDs returns the half-open ID range [lo, hi) of band's channels.
func BandIDs(band Band) (lo, hi ID) {
	if band < 0 || band >= numBands {
		return 0, 0
	}
	return tbl.first[band][0], tbl.first[band][numSlots]
}

// Channel returns the channel with this ID.
func (id ID) Channel() Channel { return tbl.chans[id] }

// Sub20Numbers is Channel().Sub20Numbers() without the lookup.
func (id ID) Sub20Numbers() []int {
	n := tbl.chans[id].sub20Count()
	return tbl.sub20[id][:n:n]
}

// Mask returns the channel's covered 20 MHz sub-channels as a bitmask over
// its band's 20 MHz channels (bit i = the band's i-th). Masks of different
// bands are not comparable.
func (id ID) Mask() uint64 { return tbl.mask[id] }

// AtWidth returns the channel seen at width slot s (Width.Slot): its
// primary-anchored sub-channel when s is narrower than the channel, the
// channel itself at its own width, and the bond that contains it when s
// is wider — the widest such bond that exists if the US plan has none at
// s (ch165 stays 20 MHz at every slot).
func (id ID) AtWidth(s int) ID { return tbl.ladder[id][s] }

// FirstOverlap returns the narrowest width slot s, up to id's own, at
// which id.AtWidth(s) overlaps c, or id's own slot + 1 when c does not
// overlap id (a channel of another band never does). The views of id up to
// its own width nest, so c overlaps exactly those from s on.
func (id ID) FirstOverlap(c ID) int { return int(tbl.firstOverlap[id][c]) }

// FirstOverlaps returns id's row of FirstOverlap as a read-only view of the
// table, indexed by ID: row[c] == id.FirstOverlap(c) for every ID c.
func (id ID) FirstOverlaps() []uint8 { return tbl.firstOverlap[id][:] }

// Overlapping returns the IDs of id's band whose masks intersect id's, id
// itself included, in ascending order, as a read-only view of the table
// (cap == len). The relation is symmetric, and no channel overlaps more
// than fifteen.
func (id ID) Overlapping() []ID {
	n := tbl.numOverlap[id]
	return tbl.overlap[id][:n:n]
}

// Sub20Mask returns the Mask bit of 20 MHz channel number n on band, or 0
// when n is not a US 20 MHz channel there.
func Sub20Mask(band Band, n int) uint64 {
	id, ok := IDOf(Channel{Band: band, Number: n, Width: W20})
	if !ok {
		return 0
	}
	return tbl.mask[id]
}

// view returns band's channels at width slots [from, to) as a slice of the
// table.
func view(band Band, from, to int, allowDFS bool) []Channel {
	if band < 0 || band >= numBands {
		return nil
	}
	list, first := tbl.chans[:], &tbl.first[band]
	if band == Band5 && !allowDFS {
		list, first = tbl.noDFS5[:], &tbl.firstNoDFS5
	}
	lo, hi := first[from], first[to]
	if lo == hi {
		return nil
	}
	return list[lo:hi:hi]
}

// Channels returns the US-regulatory channel list for band and width.
// When allowDFS is false, channels whose bandwidth touches a DFS
// sub-channel are excluded. The result is a read-only view of the package
// table (cap == len).
func Channels(band Band, w Width, allowDFS bool) []Channel {
	s := w.Slot()
	if s < 0 {
		return nil
	}
	return view(band, s, s+1, allowDFS)
}

// AllChannels returns every assignable channel on band up to maxWidth,
// narrow-to-wide, as a read-only view of the package table (cap == len).
func AllChannels(band Band, maxWidth Width, allowDFS bool) []Channel {
	n := 0
	for n < numSlots && Widths[n] <= maxWidth {
		n++
	}
	return view(band, 0, n, allowDFS)
}

// ChannelAt returns the channel with the given band/number/width, or false
// if it is not a valid US channel.
func ChannelAt(band Band, number int, w Width) (Channel, bool) {
	id, ok := IDOf(Channel{Band: band, Number: number, Width: w})
	if !ok {
		return Channel{}, false
	}
	return tbl.chans[id], true
}

// Narrower returns the same spectrum position at the next narrower width,
// anchored at the primary 20 MHz sub-channel. A 20 MHz channel, and a
// channel that is not a US channel, is returned unchanged.
func Narrower(c Channel) Channel {
	id, ok := IDOf(c)
	if !ok || c.Width == W20 {
		return c
	}
	return tbl.chans[tbl.ladder[id][c.Width.Slot()-1]]
}

// Wider returns the bonded channel one width step up that contains c, or
// ok=false if no such US channel exists (e.g. widening ch165).
func Wider(c Channel) (Channel, bool) {
	if id, ok := IDOf(c); ok && c.Width < W160 {
		if w := tbl.ladder[id][c.Width.Slot()+1]; w != id {
			return tbl.chans[w], true
		}
	}
	return Channel{}, false
}

// Bonded returns the channel an emitter anchored on 20 MHz channel
// anchor20 occupies when it bonds up to maxWidth: the US channel of that
// width containing the anchor, or the widest narrower one where the plan
// has none (ch165 never bonds). An anchor that is not a US 20 MHz channel
// — a foreign 2.4 GHz AP on channel 3 — comes back as the plain 20 MHz
// channel at that number, which Overlaps still places correctly.
func Bonded(band Band, anchor20 int, maxWidth Width) Channel {
	c := Channel{Band: band, Number: anchor20, Width: W20}
	id, ok := IDOf(c)
	if !ok {
		return c
	}
	return tbl.chans[tbl.ladder[id][max(maxWidth.Slot(), 0)]]
}
