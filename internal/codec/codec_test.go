package codec

import (
	"bytes"
	"math"
	"testing"
)

// TestRoundTrip: every value the helpers append reads back as itself,
// NaN's bits and the extreme integers included, and nothing is left over.
func TestRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	var b []byte
	b = AppendUint(b, math.MaxUint64)
	b = AppendInt(b, math.MinInt64)
	b = AppendInt(b, -1)
	b = AppendFloat(b, nan)
	b = AppendFloat(b, math.Inf(-1))
	b = AppendBool(b, true)
	b = AppendString(b, "net-7")
	r := NewReader(b)
	if v := r.Uint(); v != math.MaxUint64 {
		t.Errorf("Uint = %d", v)
	}
	if v := r.Int(); v != math.MinInt64 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Int(); v != -1 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Float(); math.Float64bits(v) != math.Float64bits(nan) {
		t.Errorf("Float = %#x", math.Float64bits(v))
	}
	if v := r.Float(); !math.IsInf(v, -1) {
		t.Errorf("Float = %v", v)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if s := r.String(); s != "net-7" {
		t.Errorf("String = %q", s)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRefuses: the Reader accepts only what the helpers write, and
// its first error sticks.
func TestReaderRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(*Reader)
	}{
		{"empty varint", nil, func(r *Reader) { r.Uint() }},
		{"overlong varint", []byte{0x81, 0x00}, func(r *Reader) { r.Uint() }},
		{"varint past 64 bits", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uint() }},
		{"short float", make([]byte, 7), func(r *Reader) { r.Float() }},
		{"bool byte 2", []byte{2}, func(r *Reader) { r.Bool() }},
		{"string past the end", []byte{4, 'a', 'b', 'c'}, func(r *Reader) { _ = r.String() }},
		{"list past the end", []byte{3, 0, 0, 0, 0, 0}, func(r *Reader) { r.Len(2) }},
		{"trailing bytes", []byte{1, 0}, func(r *Reader) { r.Uint() }},
	} {
		r := NewReader(tc.in)
		tc.read(r)
		if r.Done() == nil {
			t.Errorf("%s: read %x without an error", tc.name, tc.in)
		}
		if r.Bool() || r.Uint() != 0 || r.Len(1) != 0 || r.Err() == nil {
			t.Errorf("%s: a read after the error returned a value or cleared it", tc.name)
		}
	}
}
