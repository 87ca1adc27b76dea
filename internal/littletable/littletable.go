// Package littletable is a small in-memory time-series store modeled on
// LittleTable (Rhea et al., SIGMOD '17), the database the Meraki backend
// uses to hold per-AP statistics (§2.2). It stores rows clustered by
// (table, key) and ordered by timestamp, and supports the access patterns
// the backend needs: time-ordered appends, time-range scans, fleet-wide
// field aggregation, and retention trimming. It keeps everything in
// memory: there is no persistence and no downsampling.
//
// Storage is columnar (struct-of-arrays): a series keeps one flat
// []float64 of field values plus a compact header per row pointing at an
// interned field schema. A DB ingesting millions of rows pays ~20
// bytes of header and 8 bytes per field instead of a map[string]float64
// per row; the handful of distinct field sets a table ever sees (usage,
// utilization, latency samples…) are interned once per table and shared by
// every row.
package littletable

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Row is one observation: a timestamp plus named numeric fields.
type Row struct {
	At     sim.Time
	Fields map[string]float64
}

// Field returns the named field value, or 0 if absent.
func (r Row) Field(name string) float64 { return r.Fields[name] }

// rowSchema is an interned field set: names in sorted order, and the
// value-slot index of each. Rows reference a schema instead of carrying
// their own map; all rows with the same field set share one schema.
type rowSchema struct {
	names []string
	idx   map[string]int
}

// crow is one stored row: its timestamp, its schema, and the offset of
// its first value in the series' flat value array (the row owns
// len(schema.names) consecutive slots).
type crow struct {
	at     sim.Time
	schema *rowSchema
	off    int32
}

type series struct {
	rows []crow
	vals []float64
	// dead counts value slots in vals that belong to pruned rows; when
	// they outnumber the live slots, trim compacts the array.
	dead int
	// unsorted marks that an out-of-order append happened and rows need
	// re-sorting before the next read. Only the headers move on a sort —
	// offsets into vals stay valid.
	unsorted bool
}

func (s *series) ensureSorted() {
	if s.unsorted {
		sort.SliceStable(s.rows, func(i, j int) bool { return s.rows[i].at < s.rows[j].at })
		s.unsorted = false
	}
}

// materialize converts a stored row back to the exported map form.
func (s *series) materialize(r crow) Row {
	fields := make(map[string]float64, len(r.schema.names))
	for i, name := range r.schema.names {
		fields[name] = s.vals[int(r.off)+i]
	}
	return Row{At: r.at, Fields: fields}
}

// value returns the named field of a stored row without materializing it.
func (s *series) value(r crow, field string) (float64, bool) {
	i, ok := r.schema.idx[field]
	if !ok {
		return 0, false
	}
	return s.vals[int(r.off)+i], true
}

// Table holds the series of every key within one logical table.
//
// A Table is safe for concurrent use: every accessor takes the table
// lock. Single-writer callers (one simulation engine feeding one DB) pay
// an uncontended mutex; multi-writer callers (several goroutines feeding
// one DB) should prefer InsertBatch, which amortizes the lock, the sort
// check, the retention pass, and the store metrics over a whole batch of
// rows.
// Range returns freshly materialized rows that do not alias internal
// storage.
type Table struct {
	mu    sync.Mutex
	byKey map[string]*series

	// Schema interning: every distinct sorted field set a row ever used,
	// keyed by its joined names, plus the last schema seen — consecutive
	// inserts almost always repeat the previous row's field set.
	schemas    map[string]*rowSchema
	lastSchema *rowSchema

	// db links back to the owning DB for the retention setting; nil for
	// a standalone table (no retention).
	db *DB
	// maxAt is the newest timestamp ever inserted — the reference point
	// retention prunes against (monotonic even when inserts arrive out
	// of order).
	maxAt sim.Time
	// sincePrune counts inserts since the last retention pass, so
	// pruning costs are amortized over pruneBatch appends. Reads treat a
	// non-zero count as "rows may have aged out" and trim before
	// answering (see pruneOnReadLocked).
	sincePrune int
}

// pruneBatch is how many inserts a table accepts between insert-path
// retention passes. Trimming re-slices every key, so doing it on every
// append would be quadratic; once per batch keeps the overshoot bounded
// (at most pruneBatch rows past the window) and the amortized cost
// constant. The read path trims pending rows regardless, so queries never
// observe the overshoot of a table that has gone quiet.
const pruneBatch = 64

// DB is a collection of named tables. Table lookup is guarded by the DB
// lock and the retention setting is atomic, so independent goroutines may
// resolve tables and insert concurrently; row access is guarded per table.
type DB struct {
	mu        sync.RWMutex
	tables    map[string]*Table
	retention atomic.Int64 // a sim.Time
}

// NewDB returns an empty store.
func NewDB() *DB { return &DB{tables: map[string]*Table{}} }

// SetRetention bounds every table to a trailing window: rows older than
// (newest insert - window) are pruned during inserts and before reads.
// Zero or negative disables retention. The window applies to tables
// created before or after the call.
func (db *DB) SetRetention(window sim.Time) { db.retention.Store(int64(window)) }

// Retention returns the configured trailing window (0 = unlimited).
func (db *DB) Retention() sim.Time { return sim.Time(db.retention.Load()) }

// Table returns (creating if needed) the named table.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	t, ok := db.tables[name]
	db.mu.RUnlock()
	if ok {
		return t
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if t, ok = db.tables[name]; ok {
		return t
	}
	t = &Table{byKey: map[string]*series{}, schemas: map[string]*rowSchema{}, db: db}
	db.tables[name] = t
	return t
}

// schemaFor interns the field set of one row. The fast path — the same
// field set as the previous insert — is a length check plus one map
// lookup per field, no allocation, no sort.
func (t *Table) schemaFor(fields map[string]float64) *rowSchema {
	if last := t.lastSchema; last != nil && len(last.names) == len(fields) {
		match := true
		for name := range fields {
			if _, ok := last.idx[name]; !ok {
				match = false
				break
			}
		}
		if match {
			return last
		}
	}
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	sort.Strings(names)
	key := strings.Join(names, "\x00")
	sc, ok := t.schemas[key]
	if !ok {
		idx := make(map[string]int, len(names))
		for i, name := range names {
			idx[name] = i
		}
		sc = &rowSchema{names: names, idx: idx}
		t.schemas[key] = sc
	}
	t.lastSchema = sc
	return sc
}

// Insert appends a row for key. Appends are expected to be in time order
// (the common case for a poller); out-of-order inserts are accepted and
// lazily re-sorted.
func (t *Table) Insert(key string, at sim.Time, fields map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendLocked(key, []Row{{At: at, Fields: fields}})
	t.maybePruneLocked(1)
}

// InsertBatch appends a batch of rows for key, taking the table lock once
// and deferring the sort check, the amortized retention pass, and the
// store metrics to a single pass over the batch. This is the bulk-ingest
// path: a poller delivering one AP's whole sample set pays one lock
// round-trip instead of len(rows).
//
// Rows need not be sorted among themselves or against existing rows;
// disorder is detected here and repaired lazily on the next read, exactly
// as for Insert.
func (t *Table) InsertBatch(key string, rows []Row) {
	if len(rows) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendLocked(key, rows)
	t.maybePruneLocked(len(rows))
}

// appendLocked appends rows to key's series, interning each row's field
// set and copying its values into the flat array, maintaining the
// unsorted flag and the table's newest-timestamp watermark. Caller holds
// t.mu.
func (t *Table) appendLocked(key string, rows []Row) {
	s, ok := t.byKey[key]
	if !ok {
		s = &series{}
		t.byKey[key] = s
	}
	last := sim.Time(0)
	if n := len(s.rows); n > 0 {
		last = s.rows[n-1].at
	} else if len(rows) > 0 {
		last = rows[0].At
	}
	for _, r := range rows {
		if r.At < last {
			s.unsorted = true
		} else {
			last = r.At
		}
		if r.At > t.maxAt {
			t.maxAt = r.At
		}
		sc := t.schemaFor(r.Fields)
		off := int32(len(s.vals))
		for _, name := range sc.names {
			s.vals = append(s.vals, r.Fields[name])
		}
		s.rows = append(s.rows, crow{at: r.At, schema: sc, off: off})
	}
}

// maybePruneLocked advances the amortized-retention counter by n inserts
// and runs a trim pass when the batch threshold is crossed. Caller holds
// t.mu.
func (t *Table) maybePruneLocked(n int) {
	if t.db == nil {
		return
	}
	retention := t.db.Retention()
	if retention <= 0 {
		return
	}
	t.sincePrune += n
	if t.sincePrune >= pruneBatch {
		t.sincePrune = 0
		if cutoff := t.maxAt - retention; cutoff > 0 {
			t.trimLocked(cutoff)
		}
	}
}

// pruneOnReadLocked trims rows that aged out of the retention window
// before a read answers, so a table that has gone quiet — its amortized
// insert-path counter stuck below pruneBatch forever — still never serves
// rows past the window. A zero counter means no insert happened since the
// last pass, so there is nothing new to age out relative to maxAt and the
// read proceeds without rescanning. Caller holds t.mu.
func (t *Table) pruneOnReadLocked() {
	if t.db == nil || t.sincePrune == 0 {
		return
	}
	retention := t.db.Retention()
	if retention <= 0 {
		return
	}
	t.sincePrune = 0
	if cutoff := t.maxAt - retention; cutoff > 0 {
		t.trimLocked(cutoff)
	}
}

// InsertValue appends a single-field row.
func (t *Table) InsertValue(key string, at sim.Time, field string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendValuesLocked(key, at, field, []float64{v})
	t.maybePruneLocked(1)
}

// InsertSamples appends one single-field row per value, all at at, in
// order, under one lock: InsertBatch's path for a sample set, without a
// map per row.
func (t *Table) InsertSamples(key string, at sim.Time, field string, vals []float64) {
	if len(vals) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendValuesLocked(key, at, field, vals)
	t.maybePruneLocked(len(vals))
}

// appendValuesLocked is appendLocked for single-field rows at one time,
// interning the one-field schema directly. Caller holds t.mu.
func (t *Table) appendValuesLocked(key string, at sim.Time, field string, vals []float64) {
	s, ok := t.byKey[key]
	if !ok {
		s = &series{}
		t.byKey[key] = s
	}
	if n := len(s.rows); n > 0 && at < s.rows[n-1].at {
		s.unsorted = true
	}
	t.maxAt = max(t.maxAt, at)
	sc := t.lastSchema
	if sc == nil || len(sc.names) != 1 || sc.names[0] != field {
		// A one-field set's interning key is the field name itself.
		if sc, ok = t.schemas[field]; !ok {
			sc = &rowSchema{names: []string{field}, idx: map[string]int{field: 0}}
			t.schemas[field] = sc
		}
		t.lastSchema = sc
	}
	for _, v := range vals {
		s.rows = append(s.rows, crow{at: at, schema: sc, off: int32(len(s.vals))})
		s.vals = append(s.vals, v)
	}
}

// Keys returns every key with at least one row, sorted.
func (t *Table) Keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.keysLocked()
}

func (t *Table) keysLocked() []string {
	out := make([]string, 0, len(t.byKey))
	for k := range t.byKey {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of rows stored for key.
func (t *Table) Len(key string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.byKey[key]; ok {
		return len(s.rows)
	}
	return 0
}

// Range returns the rows for key with from <= At < to, in time order.
// Rows are freshly materialized: the result does not alias internal
// storage and stays valid indefinitely.
func (t *Table) Range(key string, from, to sim.Time) []Row {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pruneOnReadLocked()
	s, ok := t.byKey[key]
	if !ok {
		return nil
	}
	lo, hi := s.search(from, to)
	if lo == hi {
		return nil
	}
	out := make([]Row, 0, hi-lo)
	for _, r := range s.rows[lo:hi] {
		out = append(out, s.materialize(r))
	}
	return out
}

// search returns the [lo, hi) header range covering from <= at < to,
// sorting first if needed. An inverted window (to < from) is empty.
func (s *series) search(from, to sim.Time) (int, int) {
	s.ensureSorted()
	lo := sort.Search(len(s.rows), func(i int) bool { return s.rows[i].at >= from })
	hi := sort.Search(len(s.rows), func(i int) bool { return s.rows[i].at >= to })
	return lo, max(lo, hi)
}

// FieldSeries extracts one field across a time range as (time, value) pairs.
type Point struct {
	At sim.Time
	V  float64
}

// FieldRange returns the named field over [from, to). It reads the
// columnar storage directly — no per-row map materialization.
func (t *Table) FieldRange(key, field string, from, to sim.Time) []Point {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pruneOnReadLocked()
	s, ok := t.byKey[key]
	if !ok {
		return nil
	}
	lo, hi := s.search(from, to)
	out := make([]Point, 0, hi-lo)
	for _, r := range s.rows[lo:hi] {
		if v, ok := s.value(r, field); ok {
			out = append(out, Point{At: r.at, V: v})
		}
	}
	return out
}

// AggregateField collects the named field across ALL keys over [from, to)
// into a Sample, the operation behind every fleet-wide CDF in Section 3.
// One lock acquisition covers the whole scan; keys are visited in sorted
// order so the sample fills deterministically.
func (t *Table) AggregateField(field string, from, to sim.Time) *stats.Sample {
	sample := stats.NewSample(1024)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pruneOnReadLocked()
	for _, k := range t.keysLocked() {
		s := t.byKey[k]
		lo, hi := s.search(from, to)
		for _, r := range s.rows[lo:hi] {
			if v, ok := s.value(r, field); ok {
				sample.Add(v)
			}
		}
	}
	return sample
}

// SumField sums the named field across all keys over [from, to), e.g. total
// network usage per day (Table 2). Keys are visited in sorted order, so
// the float accumulation order is deterministic.
func (t *Table) SumField(field string, from, to sim.Time) float64 {
	sum := 0.0
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pruneOnReadLocked()
	for _, k := range t.keysLocked() {
		s := t.byKey[k]
		lo, hi := s.search(from, to)
		for _, r := range s.rows[lo:hi] {
			if v, ok := s.value(r, field); ok {
				sum += v
			}
		}
	}
	return sum
}

// trimLocked discards rows older than cutoff for all keys (retention).
// Caller holds t.mu.
func (t *Table) trimLocked(cutoff sim.Time) int {
	removed := 0
	for _, s := range t.byKey {
		s.ensureSorted()
		lo := sort.Search(len(s.rows), func(i int) bool { return s.rows[i].at >= cutoff })
		if lo == 0 {
			continue
		}
		removed += lo
		for _, r := range s.rows[:lo] {
			s.dead += len(r.schema.names)
		}
		s.rows = append(s.rows[:0], s.rows[lo:]...)
		s.compact()
	}
	return removed
}

// compact rewrites the flat value array when pruned rows' slots outnumber
// the live ones, keeping the store's resident size proportional to the
// retention window rather than to everything ever inserted.
func (s *series) compact() {
	if s.dead <= len(s.vals)-s.dead {
		return
	}
	vals := make([]float64, 0, len(s.vals)-s.dead)
	for i := range s.rows {
		r := &s.rows[i]
		n := len(r.schema.names)
		off := int32(len(vals))
		vals = append(vals, s.vals[int(r.off):int(r.off)+n]...)
		r.off = off
	}
	s.vals = vals
	s.dead = 0
}
