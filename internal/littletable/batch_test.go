package littletable

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sim"
)

func batchRows(n int, start, step sim.Time) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{At: start + sim.Time(i)*step, Fields: map[string]float64{"v": float64(i)}}
	}
	return rows
}

func TestInsertBatchOrdered(t *testing.T) {
	db := NewDB()
	tab := db.Table("m")
	tab.InsertBatch("ap1", batchRows(10, 0, sim.Second))
	tab.InsertBatch("ap1", batchRows(10, 10*sim.Second, sim.Second))
	if got := tab.Len("ap1"); got != 20 {
		t.Fatalf("Len = %d, want 20", got)
	}
	rows := tab.Range("ap1", 0, sim.Hour)
	for i := 1; i < len(rows); i++ {
		if rows[i-1].At > rows[i].At {
			t.Fatalf("rows out of order at %d: %v > %v", i, rows[i-1].At, rows[i].At)
		}
	}
	if last := rows[len(rows)-1]; last.At != 19*sim.Second {
		t.Fatalf("last row at %v, want 19s", last.At)
	}
}

func TestInsertBatchEmptyIsNoop(t *testing.T) {
	db := NewDB()
	tab := db.Table("m")
	tab.InsertBatch("k", nil)
	tab.InsertBatch("k", []Row{})
	if got := tab.Len("k"); got != 0 {
		t.Fatalf("Len = %d, want 0", got)
	}
	if len(tab.Keys()) != 0 {
		t.Fatalf("Keys = %v, want empty", tab.Keys())
	}
}

// TestInsertBatchUnsorted covers the two disorder shapes: a batch that is
// internally unsorted, and a sorted batch that lands before already-stored
// rows. Both must read back in time order.
func TestInsertBatchUnsorted(t *testing.T) {
	db := NewDB()
	tab := db.Table("m")
	tab.InsertBatch("k", []Row{
		{At: 5 * sim.Second, Fields: map[string]float64{"v": 5}},
		{At: 1 * sim.Second, Fields: map[string]float64{"v": 1}},
		{At: 3 * sim.Second, Fields: map[string]float64{"v": 3}},
	})
	// Sorted batch, but older than the stored maximum.
	tab.InsertBatch("k", batchRows(2, 0, sim.Second))
	rows := tab.Range("k", 0, sim.Hour)
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].At > rows[i].At {
			t.Fatalf("rows out of order at %d", i)
		}
	}
	if rows[0].At != 0 || rows[len(rows)-1].At != 5*sim.Second {
		t.Fatalf("range bounds wrong: %v .. %v", rows[0].At, rows[len(rows)-1].At)
	}
}

// TestInsertBatchMixedWithInsert interleaves the two write paths on one
// key and checks they observe a single consistent series.
func TestInsertBatchMixedWithInsert(t *testing.T) {
	db := NewDB()
	tab := db.Table("m")
	tab.Insert("k", 2*sim.Second, map[string]float64{"v": 2})
	tab.InsertBatch("k", batchRows(3, 10*sim.Second, sim.Second))
	tab.Insert("k", 1*sim.Second, map[string]float64{"v": 1}) // out of order
	rows := tab.Range("k", 0, sim.Hour)
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	if rows[0].At != sim.Second || rows[1].At != 2*sim.Second {
		t.Fatalf("lazy re-sort failed: first rows at %v, %v", rows[0].At, rows[1].At)
	}
}

// TestInsertBatchRetention verifies a batch advances the amortized
// retention counter by its row count, not by one call.
func TestInsertBatchRetention(t *testing.T) {
	db := NewDB()
	db.SetRetention(10 * sim.Second)
	tab := db.Table("m")
	// pruneBatch rows in one batch must trigger exactly one trim pass,
	// leaving only the trailing window.
	tab.InsertBatch("k", batchRows(pruneBatch, 0, sim.Second))
	if got, want := tab.Len("k"), 11; got != want {
		// Rows at 53s..63s survive the cutoff (63s - 10s).
		t.Fatalf("Len after batched retention = %d, want %d", got, want)
	}
}

// TestInsertBatchConcurrent hammers one shared table from many
// goroutines, the fleetd ingest shape; run under -race this is the
// locking contract's regression test.
func TestInsertBatchConcurrent(t *testing.T) {
	db := NewDB()
	tab := db.Table("m")
	var wg sync.WaitGroup
	const writers = 8
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("net%d", w)
			for i := 0; i < 50; i++ {
				tab.InsertBatch(key, batchRows(4, sim.Time(i)*sim.Minute, sim.Second))
			}
		}(w)
	}
	wg.Wait()
	if got := len(tab.Keys()); got != writers {
		t.Fatalf("keys = %d, want %d", got, writers)
	}
	for _, k := range tab.Keys() {
		if got := tab.Len(k); got != 200 {
			t.Fatalf("key %s has %d rows, want 200", k, got)
		}
	}
}

// BenchmarkInsert and BenchmarkInsertBatch quantify the amortization win:
// a batch pays one lock round-trip, one sort check, and one metrics
// observation for the whole sample set instead of one per row. Each
// iteration writes a 32-row window a minute past the last, and a
// one-minute retention keeps the table bounded, so both benchmarks measure
// steady-state cost and the pruning overhead cancels out of the comparison.
func BenchmarkInsert(b *testing.B) {
	db := NewDB()
	db.SetRetention(sim.Minute)
	tab := db.Table("bench")
	rows := batchRows(32, 0, sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i) * sim.Minute
		for _, r := range rows {
			tab.Insert("k", at+r.At, r.Fields)
		}
	}
}

func BenchmarkInsertBatch(b *testing.B) {
	db := NewDB()
	db.SetRetention(sim.Minute)
	tab := db.Table("bench")
	rows := batchRows(32, 0, sim.Second)
	buf := make([]Row, len(rows))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i) * sim.Minute
		for j, r := range rows {
			buf[j] = Row{At: at + r.At, Fields: r.Fields}
		}
		tab.InsertBatch("k", buf)
	}
}

// TestInsertSamplesMatchesBatch: InsertSamples and InsertValue store what
// InsertBatch of one-field maps and Insert of a one-field map store — the
// same rows, values and order, under shared schemas, with retention and
// out-of-order times among them — so every key reads the same rows.
func TestInsertSamplesMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	direct, mapped := NewDB(), NewDB()
	direct.SetRetention(40 * sim.Second)
	mapped.SetRetention(40 * sim.Second)
	for op := 0; op < 400; op++ {
		key, at := fmt.Sprint("ap", r.Intn(3)), sim.Time(r.Intn(120))*sim.Second
		field := []string{"ms", "eff", "v"}[r.Intn(3)]
		switch r.Intn(3) {
		case 0:
			vals := make([]float64, r.Intn(5))
			rows := make([]Row, len(vals))
			for i := range vals {
				vals[i] = r.Float64()
				rows[i] = Row{At: at, Fields: map[string]float64{field: vals[i]}}
			}
			direct.Table("t").InsertSamples(key, at, field, vals)
			mapped.Table("t").InsertBatch(key, rows)
		case 1:
			v := r.Float64()
			direct.Table("t").InsertValue(key, at, field, v)
			mapped.Table("t").Insert(key, at, map[string]float64{field: v})
		default:
			fields := map[string]float64{"ms": r.Float64(), "v": r.Float64()}
			direct.Table("t").Insert(key, at, fields)
			mapped.Table("t").Insert(key, at, fields)
		}
		if op%50 == 49 {
			a, b := direct.Table("t").Range(key, 0, sim.Hour), mapped.Table("t").Range(key, 0, sim.Hour)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("op %d: %s reads\n%v\nwant\n%v", op, key, a, b)
			}
		}
	}
	keys := direct.Table("t").Keys()
	if fmt.Sprint(keys) != fmt.Sprint(mapped.Table("t").Keys()) {
		t.Fatalf("keys %v, want %v", keys, mapped.Table("t").Keys())
	}
	for _, key := range keys {
		a, b := direct.Table("t").Range(key, 0, sim.Hour), mapped.Table("t").Range(key, 0, sim.Hour)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%s: InsertSamples/InsertValue read\n%v\nwant InsertBatch/Insert's\n%v", key, a, b)
		}
	}
}
