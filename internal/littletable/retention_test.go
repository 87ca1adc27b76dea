package littletable

import (
	"testing"

	"repro/internal/sim"
)

// TestRetentionPrunesOldRows drives enough inserts through a
// retention-bounded table to trigger several amortized prune passes and
// checks the trailing window is what survives.
func TestRetentionPrunesOldRows(t *testing.T) {
	db := NewDB()
	db.SetRetention(1 * sim.Hour)
	tbl := db.Table("usage")

	// One row per minute for 10 hours: far past the window, and far more
	// than pruneBatch inserts.
	for i := 0; i < 600; i++ {
		tbl.InsertValue("ap1", sim.Time(i)*sim.Minute, "v", float64(i))
	}
	last := 599 * sim.Minute
	cutoff := last - 1*sim.Hour

	rows := tbl.Range("ap1", 0, last+1)
	if len(rows) == 0 {
		t.Fatal("all rows pruned")
	}
	// Nothing older than the cutoff beyond the amortization overshoot.
	if oldest := rows[0].At; oldest < cutoff-pruneBatch*sim.Minute {
		t.Fatalf("oldest surviving row at %v, cutoff %v", oldest, cutoff)
	}
	// Everything inside the window must survive (61 rows: both the
	// cutoff minute and the last minute are in the half-open range).
	inWindow := tbl.Range("ap1", cutoff, last+1)
	if want := 61; len(inWindow) != want {
		t.Fatalf("%d rows in window, want %d", len(inWindow), want)
	}
}

// TestRetentionRangeNearCutoff checks range queries straddling the
// retention boundary: rows inside the window are returned exactly, in
// order, with correct values; the pruned region simply reads empty.
func TestRetentionRangeNearCutoff(t *testing.T) {
	db := NewDB()
	db.SetRetention(30 * sim.Minute)
	tbl := db.Table("util")
	for i := 0; i < 300; i++ {
		tbl.InsertValue("k", sim.Time(i)*sim.Minute, "v", float64(i))
	}
	last := 299 * sim.Minute
	cutoff := last - 30*sim.Minute

	// A query straddling the cutoff returns only surviving rows, still in
	// time order with values intact.
	got := tbl.Range("k", cutoff-10*sim.Minute, cutoff+10*sim.Minute)
	for i, r := range got {
		if i > 0 && got[i-1].At >= r.At {
			t.Fatalf("rows out of order at %d", i)
		}
		if want := float64(r.At / sim.Minute); r.Field("v") != want {
			t.Fatalf("row at %v has value %f, want %f", r.At, r.Field("v"), want)
		}
	}
	// The most recent 30 minutes are fully intact (31 rows inclusive of
	// both the cutoff minute and the final minute).
	fresh := tbl.Range("k", cutoff, last+1)
	if len(fresh) != 31 {
		t.Fatalf("%d rows in the retention window, want 31", len(fresh))
	}
	if fresh[len(fresh)-1].At != last {
		t.Fatalf("newest row at %v, want %v", fresh[len(fresh)-1].At, last)
	}
}

// TestRetentionDisabled verifies zero/negative windows keep everything.
func TestRetentionDisabled(t *testing.T) {
	for _, window := range []sim.Time{0, -1} {
		db := NewDB()
		db.SetRetention(window)
		tbl := db.Table("x")
		for i := 0; i < 200; i++ {
			tbl.InsertValue("k", sim.Time(i)*sim.Hour, "v", 1)
		}
		if n := tbl.Len("k"); n != 200 {
			t.Fatalf("window %v: %d rows survived, want 200", window, n)
		}
	}
}

// TestRetentionAppliesToLaterTables checks the window set on the DB
// governs tables created after the call too.
func TestRetentionAppliesToLaterTables(t *testing.T) {
	db := NewDB()
	db.SetRetention(10 * sim.Minute)
	if db.Retention() != 10*sim.Minute {
		t.Fatalf("Retention() = %v", db.Retention())
	}
	tbl := db.Table("made-later")
	for i := 0; i < 2*pruneBatch; i++ {
		tbl.InsertValue("k", sim.Time(i)*sim.Minute, "v", 1)
	}
	if n := tbl.Len("k"); n >= 2*pruneBatch {
		t.Fatalf("no pruning happened: %d rows", n)
	}
}

// TestRetentionQuietTableTrimsOnRead is the regression for the staleness
// bug: pruning used to run only every pruneBatch inserts, so a table that
// went quiet below the threshold retained rows past the window forever.
// The read path now trims pending rows first, so every query of a quiet
// table converges to the window.
func TestRetentionQuietTableTrimsOnRead(t *testing.T) {
	db := NewDB()
	db.SetRetention(10 * sim.Minute)
	tbl := db.Table("quiet")
	// Far fewer inserts than pruneBatch: the insert-path amortization
	// alone would never trim these, no matter how long we wait.
	for i := 0; i < 20; i++ {
		tbl.InsertValue("k", sim.Time(i)*sim.Minute, "v", float64(i))
	}
	cutoff := 19*sim.Minute - 10*sim.Minute

	rows := tbl.Range("k", 0, 100*sim.Minute)
	if len(rows) == 0 {
		t.Fatal("all rows pruned")
	}
	if rows[0].At < cutoff {
		t.Fatalf("quiet table served row at %v, cutoff %v", rows[0].At, cutoff)
	}
	if want := 11; len(rows) != want {
		t.Fatalf("%d rows served, want %d (the full window)", len(rows), want)
	}
	// The trim actually removed the stale rows from storage, not just
	// from this response.
	if n := tbl.Len("k"); n != 11 {
		t.Fatalf("Len = %d after read-path trim, want 11", n)
	}
}

// TestRetentionQuietTableAllReadPaths drives each read entry point on its
// own quiet table and checks none of them serves out-of-window rows.
func TestRetentionQuietTableAllReadPaths(t *testing.T) {
	build := func() *Table {
		db := NewDB()
		db.SetRetention(5 * sim.Minute)
		tbl := db.Table("x")
		for i := 0; i < 12; i++ {
			tbl.InsertValue("k", sim.Time(i)*sim.Minute, "v", float64(i))
		}
		return tbl // newest row at 11m; window covers [6m, 11m]
	}
	if pts := build().FieldRange("k", "v", 0, sim.Hour); len(pts) != 6 || pts[0].At != 6*sim.Minute {
		t.Errorf("FieldRange served %d points starting at %v, want 6 from 6m", len(pts), pts[0].At)
	}
	if s := build().AggregateField("v", 0, sim.Hour); s.N() != 6 {
		t.Errorf("AggregateField saw %d values, want 6", s.N())
	}
	if sum := build().SumField("v", 0, sim.Hour); sum != 6+7+8+9+10+11 {
		t.Errorf("SumField = %f, want %d", sum, 6+7+8+9+10+11)
	}
}

// TestRetentionOutOfOrderInserts checks that a late-arriving old row
// (a delayed poll delivery) does not drag the cutoff backwards and is
// itself pruned once it falls out of the window.
func TestRetentionOutOfOrderInserts(t *testing.T) {
	db := NewDB()
	db.SetRetention(1 * sim.Hour)
	tbl := db.Table("usage")
	for i := 0; i < 200; i++ {
		tbl.InsertValue("k", sim.Time(i)*sim.Minute, "v", float64(i))
		if i == 150 {
			// Late delivery of a sample taken long ago: already outside
			// the window, must not survive the next prune pass.
			tbl.InsertValue("k", 5*sim.Minute, "v", -1)
		}
	}
	for _, r := range tbl.Range("k", 0, 200*sim.Minute) {
		if r.Field("v") == -1 {
			t.Fatal("stale out-of-order row survived retention")
		}
	}
}
