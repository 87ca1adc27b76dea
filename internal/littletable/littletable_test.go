package littletable

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestInsertAndRange(t *testing.T) {
	db := NewDB()
	tb := db.Table("usage")
	for i := 0; i < 10; i++ {
		tb.InsertValue("ap1", sim.Time(i)*sim.Minute, "bytes", float64(i))
	}
	rows := tb.Range("ap1", 2*sim.Minute, 5*sim.Minute)
	if len(rows) != 3 {
		t.Fatalf("range returned %d rows", len(rows))
	}
	if rows[0].Field("bytes") != 2 || rows[2].Field("bytes") != 4 {
		t.Fatalf("wrong rows: %+v", rows)
	}
	// Half-open interval: to is exclusive.
	if len(tb.Range("ap1", 0, 0)) != 0 {
		t.Fatal("empty interval returned rows")
	}
	if tb.Len("ap1") != 10 || tb.Len("nope") != 0 {
		t.Fatal("Len wrong")
	}
}

func TestOutOfOrderInsert(t *testing.T) {
	db := NewDB()
	tb := db.Table("t")
	tb.InsertValue("k", 30, "v", 3)
	tb.InsertValue("k", 10, "v", 1)
	tb.InsertValue("k", 20, "v", 2)
	rows := tb.Range("k", 0, 100)
	if len(rows) != 3 || rows[0].At != 10 || rows[1].At != 20 || rows[2].At != 30 {
		t.Fatalf("not resorted: %+v", rows)
	}
}

func TestLatest(t *testing.T) {
	db := NewDB()
	tb := db.Table("t")
	if _, ok := tb.Latest("k"); ok {
		t.Fatal("latest on empty key")
	}
	tb.InsertValue("k", 10, "v", 1)
	tb.InsertValue("k", 30, "v", 3)
	tb.InsertValue("k", 20, "v", 2)
	row, ok := tb.Latest("k")
	if !ok || row.At != 30 || row.Field("v") != 3 {
		t.Fatalf("latest = %+v", row)
	}
}

func TestDownsample(t *testing.T) {
	db := NewDB()
	tb := db.Table("t")
	// Two values in each 10-unit bucket: (0,2), (4,6), ...
	for i := sim.Time(0); i < 40; i += 5 {
		tb.InsertValue("k", i, "v", float64(i))
	}
	pts := tb.Downsample("k", "v", 0, 40, 10)
	if len(pts) != 4 {
		t.Fatalf("buckets = %d", len(pts))
	}
	if pts[0].V != 2.5 || pts[1].V != 12.5 {
		t.Fatalf("bucket means: %+v", pts)
	}
}

func TestDownsampleSkipsEmptyBuckets(t *testing.T) {
	db := NewDB()
	tb := db.Table("t")
	tb.InsertValue("k", 5, "v", 1)
	tb.InsertValue("k", 35, "v", 2)
	pts := tb.Downsample("k", "v", 0, 40, 10)
	if len(pts) != 2 {
		t.Fatalf("buckets = %+v", pts)
	}
	if pts[1].At != 30 {
		t.Fatalf("second bucket at %v", pts[1].At)
	}
}

func TestAggregateAndSum(t *testing.T) {
	db := NewDB()
	tb := db.Table("t")
	tb.InsertValue("a", 1, "v", 10)
	tb.InsertValue("b", 2, "v", 20)
	tb.InsertValue("b", 3, "v", 30)
	s := tb.AggregateField("v", 0, 100)
	if s.N() != 3 || s.Mean() != 20 {
		t.Fatalf("aggregate: %v", s.Summarize())
	}
	if got := tb.SumField("v", 0, 100); got != 60 {
		t.Fatalf("sum = %v", got)
	}
	if got := tb.SumField("v", 2, 3); got != 20 {
		t.Fatalf("windowed sum = %v", got)
	}
	// An inverted window is empty, not a slice-bounds panic (a 6-hour run
	// asked for "everything after the first day").
	if n, sum, rows := tb.AggregateField("v", 3, 1).N(), tb.SumField("v", 3, 1), tb.Range("b", 3, 1); n != 0 || sum != 0 || len(rows) != 0 {
		t.Fatalf("inverted window: %d samples, sum %v, %d rows", n, sum, len(rows))
	}
}

func TestTrim(t *testing.T) {
	db := NewDB()
	tb := db.Table("t")
	for i := sim.Time(0); i < 10; i++ {
		tb.InsertValue("k", i, "v", 1)
	}
	if removed := tb.Trim(5); removed != 5 {
		t.Fatalf("trim removed %d", removed)
	}
	if tb.Len("k") != 5 {
		t.Fatalf("remaining %d", tb.Len("k"))
	}
	if rows := tb.Range("k", 0, 100); rows[0].At != 5 {
		t.Fatalf("oldest after trim: %v", rows[0].At)
	}
}

func TestTableIsolationAndNames(t *testing.T) {
	db := NewDB()
	db.Table("a").InsertValue("k", 1, "v", 1)
	db.Table("b").InsertValue("k", 1, "v", 2)
	if db.Table("a").Range("k", 0, 10)[0].Field("v") != 1 {
		t.Fatal("tables not isolated")
	}
	names := db.TableNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	if db.Table("a") != db.Table("a") {
		t.Fatal("Table not idempotent")
	}
}

func TestFieldRange(t *testing.T) {
	db := NewDB()
	tb := db.Table("t")
	tb.Insert("k", 1, map[string]float64{"a": 1, "b": 2})
	tb.Insert("k", 2, map[string]float64{"b": 3})
	pts := tb.FieldRange("k", "a", 0, 10)
	if len(pts) != 1 || pts[0].V != 1 {
		t.Fatalf("FieldRange skips missing fields: %+v", pts)
	}
}

// Property: for any insertion order, Range(key, lo, hi) returns exactly
// the rows with lo <= At < hi in sorted order.
func TestQuickRangeCorrect(t *testing.T) {
	f := func(times []uint16, loRaw, spanRaw uint16) bool {
		db := NewDB()
		tb := db.Table("t")
		for _, at := range times {
			tb.InsertValue("k", sim.Time(at), "v", float64(at))
		}
		lo := sim.Time(loRaw)
		hi := lo + sim.Time(spanRaw)
		got := tb.Range("k", lo, hi)
		want := 0
		for _, at := range times {
			if sim.Time(at) >= lo && sim.Time(at) < hi {
				want++
			}
		}
		if len(got) != want {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].At < got[i-1].At {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringer(t *testing.T) {
	db := NewDB()
	tb := db.Table("x")
	tb.InsertValue("k", 1, "v", 1)
	if tb.String() == "" {
		t.Fatal("empty string")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := NewDB()
	db.Table("usage").Insert("ap1", 100, map[string]float64{"bytes": 42, "served": 1.5})
	db.Table("usage").InsertValue("ap2", 200, "bytes", 7)
	db.Table("latency").InsertValue("ap1", 150, "ms", 12.5)

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}

	db2 := NewDB()
	if err := db2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := db2.Table("usage").Len("ap1"); got != 1 {
		t.Fatalf("ap1 rows = %d", got)
	}
	row, ok := db2.Table("usage").Latest("ap1")
	if !ok || row.At != 100 || row.Field("bytes") != 42 || row.Field("served") != 1.5 {
		t.Fatalf("row = %+v", row)
	}
	if db2.Table("latency").Len("ap1") != 1 {
		t.Fatal("latency table lost")
	}
	names := db2.TableNames()
	if len(names) != 2 {
		t.Fatalf("tables = %v", names)
	}
}

func TestSaveDeterministic(t *testing.T) {
	build := func() *DB {
		db := NewDB()
		db.Table("b").InsertValue("z", 3, "v", 1)
		db.Table("a").InsertValue("y", 1, "v", 2)
		db.Table("a").InsertValue("x", 2, "v", 3)
		return db
	}
	var b1, b2 bytes.Buffer
	if err := build().Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().Save(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("save output not deterministic")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	db := NewDB()
	if err := db.Load(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := db.Load(strings.NewReader(`{"t":"","k":"x","at":1,"f":{}}`)); err == nil {
		t.Fatal("empty table name accepted")
	}
	// Empty input is fine.
	if err := db.Load(strings.NewReader("")); err != nil {
		t.Fatal(err)
	}
}
